"""Edge Pruning over the blocking graph (Weighted Edge Pruning, WEP).

Paper §4/§6.1(iii): the block collection is transformed into a *blocking
graph* — a node per entity, an edge per co-occurring pair — each edge
weighted by the likelihood the pair matches.  Edges below the global
average weight are discarded, removing most superfluous comparisons while
retaining nearly all matching ones (Papadakis et al. [25, 27]).

Weighting schemes implemented (standard meta-blocking literature):

* ``CBS``  — Common Blocks Scheme: number of blocks the pair shares.
* ``ECBS`` — Enhanced CBS: CBS scaled by the inverse block-frequency of
  both entities (log |B|/|B_i| factors).
* ``JS``   — Jaccard Scheme: shared blocks over union of blocks.
* ``ARCS`` — Aggregate Reciprocal Comparisons: Σ 1/||b|| over shared
  blocks, favouring pairs meeting in small blocks.

Graph construction is the meta-blocking hot path, so the graph is built
on arrays: entities are dense universe positions, each unordered pair is
one packed int (``left * n + right``), blocks are contiguous spans of a
member array, and per-scheme weights are computed in bulk.  Building is
split into *segment generation* (:func:`generate_span_segments`, per
block span — embarrassingly parallel, which :mod:`repro.parallel` uses)
and *reduction* (:func:`reduce_span_segments`, one pass over the
concatenated segments), so a partitioned build is the same computation
as the serial one, bit for bit.  The paper-literal dict graph the
equivalence suites compare against lives in :mod:`repro.er.reference`.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.er.util import LRUCache


#: Blocks below this size stay on the scalar pair loop — per-block array
#: setup costs more than a handful of Python iterations.
_VECTOR_MIN_SIZE = 16

#: Blocks above this size switch from one cached triangular index pair to
#: per-row vectorization, bounding scratch memory at O(block size).
_VECTOR_TRIU_MAX = 256

#: Bounded cache of upper-triangle index pairs keyed by block size —
#: sizes repeat heavily across blocks, and building the triangle
#: dominates small vectorized blocks.  One entry at the
#: _VECTOR_TRIU_MAX extreme is ~0.5 MB (two int64 arrays of s(s-1)/2),
#: so the LRU's worst-case footprint is ~33 MB; larger blocks never
#: touch the cache.
_TRIU_CACHE = LRUCache(64)


def _triu_indices(size: int) -> Tuple[Any, Any]:
    cached = _TRIU_CACHE.get(size)
    if cached is None:
        cached = np.triu_indices(size, 1)
        _TRIU_CACHE.put(size, cached)
    return cached


class WeightingScheme(enum.Enum):
    """Edge-weight definitions for the blocking graph."""

    CBS = "cbs"
    ECBS = "ecbs"
    JS = "js"
    ARCS = "arcs"


def _emit_scalar_block(
    members: List[int],
    n: int,
    in_focus: Optional[bytearray],
    need_arcs: bool,
    reciprocal: float,
    pending_keys: List[int],
    pending_recips: List[float],
) -> None:
    """One small block's packed pair keys, appended to the scalar run.

    *members* are sorted universe positions; pairs with neither side in
    focus are skipped.
    """
    size = len(members)
    for ai in range(size):
        left = members[ai]
        base = left * n
        tail = members[ai + 1 :]
        if in_focus is not None and not in_focus[left]:
            tail = [right for right in tail if in_focus[right]]
        for right in tail:
            pending_keys.append(base + right)
            if need_arcs:
                pending_recips.append(reciprocal)


def _emit_vector_block(
    members_arr: Any,
    n: int,
    focus_mask: Any,
    need_arcs: bool,
    reciprocal: float,
    key_segments: List[Any],
    value_segments: List[Any],
) -> None:
    """One vectorized block's key (and ARCS value) segments.

    *members_arr* is a sorted int64 array of dense indices.  Mid-size
    blocks use one cached upper-triangle index pair; larger blocks go
    row-at-a-time to keep scratch memory linear in block size.
    """
    size = len(members_arr)
    if size <= _VECTOR_TRIU_MAX:
        ii, jj = _triu_indices(size)
        left = members_arr[ii]
        right = members_arr[jj]
        keys = left * n + right
        if focus_mask is not None:
            keep = focus_mask[left] | focus_mask[right]
            keys = keys[keep]
        if keys.size:
            key_segments.append(keys)
            if need_arcs:
                value_segments.append(np.full(keys.size, reciprocal, dtype=np.float64))
        return
    for ai in range(size - 1):
        left_idx = int(members_arr[ai])
        tail = members_arr[ai + 1 :]
        if focus_mask is not None and not focus_mask[left_idx]:
            tail = tail[focus_mask[tail]]
            if not tail.size:
                continue
        keys = left_idx * n + tail
        key_segments.append(keys)
        if need_arcs:
            value_segments.append(np.full(keys.size, reciprocal, dtype=np.float64))


def generate_span_segments(
    members: Any,
    indptr: Any,
    start: int,
    stop: int,
    n: int,
    in_focus: Optional[bytearray],
    need_arcs: bool,
) -> Tuple[List[Any], List[Any], Any]:
    """Packed pair segments for block span ``[start, stop)``.

    *members* holds universe positions grouped by block (block ``b``
    spans ``members[indptr[b] : indptr[b+1]]``), so no per-entity dict
    lookups happen at all — block membership counts come from one
    ``bincount`` and per-block pair enumeration is size-tiered (scalar
    / cached triangle / row-at-a-time).
    Returns ``(key_segments, value_segments, block_counts)`` with
    *block_counts* an int64 array of length *n* covering the span.
    """
    focus_mask = (
        None
        if in_focus is None
        else np.frombuffer(in_focus, dtype=np.uint8).view(np.bool_)
    )
    span = members[indptr[start] : indptr[stop]]
    if len(span):
        block_counts = np.bincount(span, minlength=n).astype(np.int64)
    else:
        block_counts = np.zeros(n, dtype=np.int64)
    key_segments: List[Any] = []
    value_segments: List[Any] = []
    pending_keys: List[int] = []
    pending_recips: List[float] = []

    def flush_scalar() -> None:
        if pending_keys:
            key_segments.append(np.array(pending_keys, dtype=np.int64))
            if need_arcs:
                value_segments.append(np.array(pending_recips, dtype=np.float64))
                pending_recips.clear()
            pending_keys.clear()

    for block in range(start, stop):
        lo = int(indptr[block])
        hi = int(indptr[block + 1])
        size = hi - lo
        if size < 2:
            continue
        reciprocal = 1.0 / (size * (size - 1) // 2) if need_arcs else 0.0
        if size < _VECTOR_MIN_SIZE:
            _emit_scalar_block(
                sorted(members[lo:hi].tolist()), n, in_focus, need_arcs,
                reciprocal, pending_keys, pending_recips,
            )
            continue
        flush_scalar()
        _emit_vector_block(
            np.sort(members[lo:hi]), n, focus_mask, need_arcs, reciprocal,
            key_segments, value_segments,
        )
    flush_scalar()
    return key_segments, value_segments, block_counts


def reduce_span_segments(
    key_segments: List[Any], value_segments: List[Any], need_arcs: bool
) -> Tuple[Any, Any]:
    """Generated segments reduced to ``(edge_keys, edge_stats)``.

    Edges come back in ascending packed-key order (not first-visit
    order), which makes the reduction one stable argsort, boundary
    detection and ``np.add.reduceat``.  Per-key contributions still
    accumulate left-to-right in global block visit order (the stable
    sort preserves it), so a partitioned build concatenating span
    results in partition order reduces bit-identically to the serial
    span build.
    """
    empty_stats = np.empty(0, dtype=np.float64 if need_arcs else np.int64)
    if not key_segments:
        return np.empty(0, dtype=np.int64), empty_stats
    all_keys = np.concatenate(key_segments)
    order = np.argsort(all_keys, kind="stable")
    sorted_keys = all_keys[order]
    boundaries = np.nonzero(np.diff(sorted_keys))[0] + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    unique_keys = sorted_keys[starts]
    if need_arcs:
        values = np.concatenate(value_segments)[order]
        sums = np.add.reduceat(values, starts)
    else:
        stops = np.concatenate((boundaries, np.array([len(sorted_keys)], dtype=np.int64)))
        sums = stops - starts
    return unique_keys, sums


class BlockingGraph:
    """Weighted co-occurrence graph over packed edge arrays.

    *edge_keys* are packed pair keys in edge order and *edge_stats* the
    per-edge reduced statistic (ARCS: Σ 1/||b||; every other scheme: the
    number of shared blocks); *block_counts* holds each universe
    position's block membership count and *block_count* the number of
    blocks the graph was built from.
    """

    def __init__(
        self,
        scheme: WeightingScheme,
        block_count: int,
        universe: List[Any],
        block_counts: List[int],
        edge_keys: Any,
        edge_stats: Any,
    ):
        self.scheme = scheme
        self._block_count = max(block_count, 1)
        self._universe = universe
        self._n = len(universe)
        self._block_counts = block_counts
        self._edge_keys = edge_keys
        self._edge_stats = edge_stats
        self._weights_memo = None

    def __len__(self) -> int:
        return len(self._edge_keys)

    def nodes(self) -> Set[Any]:
        return set(self._universe)

    def _weights(self) -> Any:
        """Per-edge weights in edge order, computed in bulk per scheme.

        Memoized: the graph is immutable after construction and WEP
        needs the array twice (average, then filter).
        """
        if self._weights_memo is None:
            self._weights_memo = self._compute_weights()
        return self._weights_memo

    def _compute_weights(self) -> Any:
        stats = self._edge_stats
        if self.scheme is WeightingScheme.ARCS:
            return stats
        if self.scheme is WeightingScheme.CBS:
            return stats.astype(np.float64)
        left = self._edge_keys // self._n
        right = self._edge_keys % self._n
        counts = np.asarray(self._block_counts, dtype=np.int64)
        if self.scheme is WeightingScheme.JS:
            union = counts[left] + counts[right] - stats
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(union != 0, stats / union, 0.0)
        # ECBS — math.log per entity (not np.log: bit-identical to the
        # reference graph's scalar weights), bulk multiply per edge.
        total = self._block_count
        boosts = np.asarray(
            [math.log(total / count) if count else 0.0 for count in self._block_counts],
            dtype=np.float64,
        )
        boost_left = boosts[left]
        boost_right = boosts[right]
        weights = stats * boost_left * boost_right
        degenerate = (boost_left <= 0.0) | (boost_right <= 0.0)
        return np.where(degenerate, stats.astype(np.float64), weights)

    def edges(self) -> Iterator[Tuple[Any, Any, float]]:
        """Iterate ``(a, b, weight)`` over all edges, in edge order."""
        universe = self._universe
        n = self._n
        for key, weight in zip(self._edge_keys.tolist(), self._weights().tolist()):
            left, right = divmod(key, n)
            yield universe[left], universe[right], float(weight)

    def average_weight(self) -> float:
        """Mean edge weight — WEP's global pruning criterion.

        Summed left-to-right in edge order (``cumsum``, never the
        pairwise ``np.sum``), the same association a sequential Python
        sum over the edges would use.
        """
        edge_count = len(self)
        if not edge_count:
            return 0.0
        return float(np.cumsum(self._weights())[-1]) / edge_count

    def retained_key_array(self, threshold: float) -> Any:
        """Packed keys whose weight is at or above *threshold* (bulk).

        The keys keep their edge order (ascending under
        :func:`reduce_span_segments`), so the caller can unpack them to
        id pairs without set materialization.
        """
        return self._edge_keys[self._weights() >= threshold]
