"""Meta-Blocking configuration: Block Purging → Block Filtering → Edge Pruning.

Paper §6.1(iii): the sequence is strict — block-refinement first (coarse,
cheap), comparison-refinement last (fine, expensive) — and BP precedes BF
because BP reasons over the whole collection while BF is per-block.
:class:`MetaBlockingConfig` toggles individual stages to reproduce the
configuration study of Table 8 (ALL, BP+BF, BP+EP); the stages run in
:func:`repro.er.packed_blocking.derive_candidates`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.er.block_filtering import DEFAULT_RATIO
from repro.er.block_purging import SMOOTHING_FACTOR
from repro.er.edge_pruning import WeightingScheme


@dataclass(frozen=True)
class MetaBlockingConfig:
    """Which meta-blocking stages run, and with what parameters.

    The paper's default (and best-performing, Table 8) configuration is
    ``ALL`` — every stage enabled.
    """

    purging: bool = True
    filtering: bool = True
    pruning: bool = True
    smoothing_factor: float = SMOOTHING_FACTOR
    filter_ratio: float = DEFAULT_RATIO
    weighting: WeightingScheme = WeightingScheme.ARCS

    @classmethod
    def all(cls) -> "MetaBlockingConfig":
        """ALL = BP + BF + EP (paper default)."""
        return cls()

    @classmethod
    def bp_bf(cls) -> "MetaBlockingConfig":
        """BP + BF (Table 8's best-recall configuration)."""
        return cls(pruning=False)

    @classmethod
    def bp_ep(cls) -> "MetaBlockingConfig":
        """BP + EP (Table 8's slowest configuration)."""
        return cls(filtering=False)

    @classmethod
    def none(cls) -> "MetaBlockingConfig":
        """No meta-blocking at all (raw block collection)."""
        return cls(purging=False, filtering=False, pruning=False)

    @property
    def label(self) -> str:
        """Human-readable configuration name as used in Table 8."""
        stages = []
        if self.purging:
            stages.append("BP")
        if self.filtering:
            stages.append("BF")
        if self.pruning:
            stages.append("EP")
        if stages == ["BP", "BF", "EP"]:
            return "ALL"
        return " + ".join(stages) if stages else "NONE"

