"""Test-only oracles for the equivalence suites.

The engine derives every candidate pair through
:func:`repro.er.packed_blocking.derive_candidates`, builds its blocking
graph from postings spans and matches through the signature cascade.
These helpers run the same code on the exact references instead:
:class:`ReferenceOperator` and :class:`ReferenceEngine` take their
candidate pairs from :mod:`repro.er.reference`, :class:`ExactMatcher`
decides every pair with :meth:`ProfileMatcher.matches` over raw
attributes, and :func:`span_graph` builds the production graph from a
hand-made block collection so it can be held against
:class:`repro.er.reference.UnpackedBlockingGraph`.
"""

from __future__ import annotations

import numpy as np

from repro.core.dedup_operator import DeduplicateOperator
from repro.core.engine import QueryEREngine
from repro.er import reference
from repro.er.edge_pruning import (
    BlockingGraph,
    WeightingScheme,
    generate_span_segments,
    reduce_span_segments,
)
from repro.er.matching import ProfileMatcher
from repro.er.util import safe_sorted


class ReferenceOperator(DeduplicateOperator):
    """Deduplicate whose candidate pairs come from the dict pipeline."""

    def _candidate_pairs(self, frontier, compared, context, stats):
        derived = reference.candidate_pairs(self.index, frontier, self.meta_blocking)
        stats.record(derived)
        pairs = [pair for pair in derived.pairs if pair not in compared]
        compared.update(pairs)
        return pairs


class ReferenceEngine(QueryEREngine):
    """An engine whose every DEDUP runs :class:`ReferenceOperator`."""

    def dedup_operator(self, index):
        return ReferenceOperator(
            index,
            matcher=self.matcher_for(index),
            meta_blocking=self.meta_blocking,
            use_link_index=self.use_link_index,
            transitive=self.transitive,
            executor=self.parallel_executor,
        )


class ExactMatcher(ProfileMatcher):
    """A matcher deciding every pair through :meth:`matches`."""

    def match_signatures(self, left, right):
        return self.matches(left.attributes, right.attributes)


def span_arrays(collection, focus=None):
    """A block collection as the span build's input arrays.

    Blocks keep the collection's order, entities become positions in
    the sorted universe: ``(members, indptr, sizes, universe, in_focus)``.
    """
    universe = safe_sorted(collection.entity_ids())
    index_of = {entity: i for i, entity in enumerate(universe)}
    blocks = [[index_of[e] for e in block.entities] for block in collection]
    sizes = np.array([len(block) for block in blocks], dtype=np.int64)
    indptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(sizes)))
    members = np.array([i for block in blocks for i in block], dtype=np.int64)
    in_focus = None
    if focus is not None:
        in_focus = bytearray(len(universe))
        for entity in focus:
            if entity in index_of:
                in_focus[index_of[entity]] = 1
    return members, indptr, sizes, universe, in_focus


def span_graph(collection, scheme=WeightingScheme.ARCS, focus=None):
    """The production blocking graph over *collection*'s blocks, serial."""
    members, indptr, sizes, universe, in_focus = span_arrays(collection, focus)
    need_arcs = scheme is WeightingScheme.ARCS
    key_segments, value_segments, block_counts = generate_span_segments(
        members, indptr, 0, len(sizes), len(universe), in_focus, need_arcs
    )
    edge_keys, edge_stats = reduce_span_segments(key_segments, value_segments, need_arcs)
    return BlockingGraph(
        scheme, len(sizes), universe, block_counts.tolist(),
        edge_keys, edge_stats,
    )
