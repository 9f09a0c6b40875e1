"""The paper-literal candidate-pair pipeline, kept as a reference.

QBI → Block-Join → Block Purging → Block Filtering → Edge Pruning → pair
enumeration over string-keyed :class:`~repro.er.blocking.BlockCollection`
objects, written the way the paper (§4, §6.1) states each step, with a
dict-built blocking graph.  The engine never runs it: every query
derives its pairs through :func:`repro.er.packed_blocking.derive_candidates`.
The equivalence suites check the production pipeline against this one,
and ``repro.bench.perf_regression`` times it as its ``baseline``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.er.block_filtering import block_filtering
from repro.er.block_purging import block_purging
from repro.er.blocking import Block, BlockCollection
from repro.er.edge_pruning import WeightingScheme
from repro.er.linkset import canonical_pair
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.packed_blocking import PackedCandidates
from repro.er.util import ordered_pair, safe_sorted


class UnpackedBlockingGraph:
    """Weighted co-occurrence graph of a block collection, built on dicts.

    With *focus* set, only edges incident to a focus entity exist (the
    only comparisons a Deduplicate query executes, §6.1(iv)).  Edges
    iterate in first-visit order: blocks in collection order, members in
    sorted order.
    """

    def __init__(
        self,
        collection: BlockCollection,
        scheme: WeightingScheme = WeightingScheme.ARCS,
        focus: Optional[Set[Any]] = None,
    ):
        self.scheme = scheme
        self._block_count = max(len(collection), 1)
        self._entity_blocks: Dict[Any, int] = {}
        self._shared_blocks: Dict[Tuple[Any, Any], int] = {}
        self._shared_arcs: Dict[Tuple[Any, Any], float] = {}
        for block in collection:
            members = safe_sorted(block.entities)
            reciprocal = 1.0 / block.cardinality if block.cardinality else 0.0
            for entity in members:
                self._entity_blocks[entity] = self._entity_blocks.get(entity, 0) + 1
            for i, left in enumerate(members):
                left_in_focus = focus is None or left in focus
                for right in members[i + 1 :]:
                    if not left_in_focus and right not in focus:
                        continue
                    pair = (left, right)
                    self._shared_blocks[pair] = self._shared_blocks.get(pair, 0) + 1
                    self._shared_arcs[pair] = self._shared_arcs.get(pair, 0.0) + reciprocal

    def __len__(self) -> int:
        return len(self._shared_blocks)

    def nodes(self) -> Set[Any]:
        return set(self._entity_blocks)

    def weight(self, a: Any, b: Any) -> float:
        """Edge weight of pair ``(a, b)`` under the configured scheme."""
        pair = ordered_pair(a, b)
        common = self._shared_blocks.get(pair, 0)
        if common == 0:
            return 0.0
        if self.scheme is WeightingScheme.ARCS:
            return self._shared_arcs[pair]
        if self.scheme is WeightingScheme.CBS:
            return float(common)
        blocks_a = self._entity_blocks[pair[0]]
        blocks_b = self._entity_blocks[pair[1]]
        if self.scheme is WeightingScheme.JS:
            union = blocks_a + blocks_b - common
            return common / union if union else 0.0
        total = self._block_count
        boost_a = math.log(total / blocks_a)
        boost_b = math.log(total / blocks_b)
        # Degenerate single-block collections keep the CBS ordering.
        if boost_a <= 0.0 or boost_b <= 0.0:
            return float(common)
        return common * boost_a * boost_b

    def edges(self) -> Iterator[Tuple[Any, Any, float]]:
        """Iterate ``(a, b, weight)`` over all edges, in first-visit order."""
        for a, b in self._shared_blocks:
            yield a, b, self.weight(a, b)

    def average_weight(self) -> float:
        """Mean edge weight, summed left to right in edge order."""
        if not self._shared_blocks:
            return 0.0
        return sum(w for _, _, w in self.edges()) / len(self)

    def retained_pairs(self, threshold: float) -> Set[Tuple[Any, Any]]:
        """Canonical pairs whose weight is at or above *threshold*."""
        return {(a, b) for a, b, w in self.edges() if w >= threshold}


def edge_pruning(
    collection: BlockCollection,
    scheme: WeightingScheme = WeightingScheme.ARCS,
    focus: Optional[Set[Any]] = None,
) -> Set[Tuple[Any, Any]]:
    """Weighted Edge Pruning: the pairs at or above the average weight."""
    graph = UnpackedBlockingGraph(collection, scheme=scheme, focus=focus)
    return graph.retained_pairs(graph.average_weight())


def pairs_to_blocks(pairs: Iterable[Tuple[Any, Any]]) -> BlockCollection:
    """Wrap retained pairs as 2-entity blocks (one block per pair)."""
    collection = BlockCollection()
    for index, (a, b) in enumerate(sorted(pairs, key=repr)):
        collection.put(Block(f"pair:{index}", (a, b)))
    return collection


def apply_meta_blocking(
    collection: BlockCollection,
    config: Optional[MetaBlockingConfig] = None,
    focus: Optional[Set[Any]] = None,
) -> BlockCollection:
    """Run the configured BP → BF → EP stages over *collection*.

    When Edge Pruning runs, the surviving comparisons come back as
    2-entity pair blocks; *focus* restricts its graph to focus-incident
    edges.
    """
    config = config or MetaBlockingConfig.all()
    current = collection.non_singleton()
    if config.purging:
        current = block_purging(current, smoothing=config.smoothing_factor)
    if config.filtering:
        current = block_filtering(current, ratio=config.filter_ratio)
    if config.pruning:
        current = pairs_to_blocks(
            edge_pruning(current, scheme=config.weighting, focus=focus)
        )
    return current


def candidate_pairs(
    index: Any, frontier: Set[Any], config: Optional[MetaBlockingConfig] = None
) -> PackedCandidates:
    """The frontier's candidate pairs through the dict TBI of *index*.

    Same output type and stats as ``derive_candidates``; each
    frontier-incident pair appears once, in block enumeration order.
    """
    config = config or MetaBlockingConfig.all()
    qbi = index.query_block_index(frontier)
    eqbi = index.block_join(qbi)
    refined = apply_meta_blocking(eqbi, config, focus=frontier)
    pairs: List[Tuple[Any, Any]] = []
    seen: Set[Tuple[Any, Any]] = set()
    for block in refined:
        members = safe_sorted(block.entities)
        for i, left in enumerate(members):
            for right in members[i + 1 :]:
                if left not in frontier and right not in frontier:
                    continue
                pair = canonical_pair(left, right)
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
    return PackedCandidates(
        pairs, len(qbi), len(eqbi), eqbi.cardinality, refined.cardinality
    )
