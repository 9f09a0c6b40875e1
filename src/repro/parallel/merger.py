"""Deterministic recombination of per-partition results.

Workers may finish in any order; every merge here consumes results
*sorted by partition index*, and partitions are contiguous input spans —
so concatenating per-partition outputs reproduces the serial visit order
exactly.  Matching decisions are order-independent pure functions, and
the graph reduction applies per-pair accumulation in the reassembled
global block order, so both merges are bit-identical to serial — the
subsystem's core guarantee, checked by the equivalence property tests.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.er.edge_pruning import reduce_span_segments
from repro.er.matching import ProfileMatcher
from repro.parallel.tasks import GraphResult, MatchResult


class DeterministicMerger:
    """Fixed-canonical-order recombination of partition results."""

    # -- matching --------------------------------------------------------
    @staticmethod
    def merge_matches(
        results: Iterable[MatchResult],
        matcher: Optional[ProfileMatcher] = None,
    ) -> List[int]:
        """Global matched positions, in ascending (serial) order.

        Each partition reports positions within the shared pair list, so
        partition-order concatenation *is* the serial match order.  With
        *matcher* given, private per-partition cascade-counter deltas are
        folded back in partition order (integer sums — exact).
        """
        matched: List[int] = []
        for result in sorted(results, key=lambda r: r.partition):
            matched.extend(result.matched)
            if matcher is not None and result.cascade_delta:
                for key, delta in result.cascade_delta.items():
                    matcher.cascade_stats[key] = (
                        matcher.cascade_stats.get(key, 0) + delta
                    )
        return matched

    # -- blocking graph --------------------------------------------------
    @staticmethod
    def merge_span_segments(
        results: Iterable[GraphResult], n: int, need_arcs: bool
    ) -> Tuple[Any, Any, List[int]]:
        """(edge_keys, edge_stats, block_counts) from partition segments.

        Partition-order concatenation reassembles the global block visit
        order, reduced through
        :func:`~repro.er.edge_pruning.reduce_span_segments`: the stable
        key sort keeps per-key contributions in global block visit
        order, so the merged arrays equal the serial span build's
        exactly (sorted-key edge order, left-to-right per-key sums).
        """
        ordered = sorted(results, key=lambda r: r.partition)
        block_counts = [0] * n
        for result in ordered:
            for position, count in result.touched_counts.items():
                block_counts[position] += count
        key_segments = [r.keys for r in ordered if len(r.keys)]
        value_segments = (
            [r.values for r in ordered if r.values is not None and len(r.values)]
            if need_arcs
            else []
        )
        edge_keys, edge_stats = reduce_span_segments(
            key_segments, value_segments, need_arcs
        )
        return edge_keys, edge_stats, block_counts
