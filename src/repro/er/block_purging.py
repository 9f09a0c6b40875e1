"""Block Purging — drop oversized blocks of non-discriminative tokens.

Paper §6.1(iii)/§7.2.1: blocks larger than a data-derived comparison
threshold correspond to stop-word-like tokens (e.g. "Entity" in Table 1)
whose comparisons are overwhelmingly redundant or non-matching.  The
threshold t is the cardinality ||b_i|| at the first index i (blocks sorted
ascending by cardinality) where

    |b_i| * ||b_{i-1}|| < SF * ||b_i|| * |b_{i-1}|

with smoothing factor SF = 1.025 [23]; blocks with ||b|| > t are removed.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np

from repro.er.blocking import Block, BlockCollection

#: Smoothing factor, experimentally set to 1.025 in the blocking framework
#: of Papadakis et al. and adopted verbatim by the paper (§7.2.1).
SMOOTHING_FACTOR = 1.025


def _ascending_stats(blocks: List[Block]) -> List[Tuple[int, int, int]]:
    """Cumulative (assignments Σ|b|, comparisons Σ||b||) per distinct ||b||.

    Blocks are aggregated by cardinality so ties don't produce degenerate
    consecutive ratios.
    """
    by_cardinality: dict = {}
    for block in blocks:
        size, comparisons = by_cardinality.get(block.cardinality, (0, 0))
        by_cardinality[block.cardinality] = (size + block.size, comparisons + block.cardinality)
    stats: List[Tuple[int, int, int]] = []
    total_size = 0
    total_comparisons = 0
    for cardinality in sorted(by_cardinality):
        group_size, group_comparisons = by_cardinality[cardinality]
        total_size += group_size
        total_comparisons += group_comparisons
        stats.append((cardinality, total_size, total_comparisons))
    return stats


def _threshold_from_stats(
    stats: List[Tuple[int, int, int]], smoothing: float
) -> int:
    """The descending cumulative-ratio walk shared by both purge paths.

    *stats* is the ascending per-level ``(cardinality, Σ|b|, Σ||b||)``
    list (Python ints — the walk's comparisons are exact).  See
    :func:`purge_threshold` for the criterion.
    """
    if not stats:
        return 0
    # Fallback when the walk never flattens: the ratio grows faster than
    # SF at every level, so only the smallest blocks are worth keeping.
    threshold = stats[0][0]
    previous_cardinality, previous_size, previous_comparisons = 0, 0.0, 0.0
    for cardinality, cum_size, cum_comparisons in reversed(stats):
        if previous_comparisons > 0:
            if cum_size * previous_comparisons < smoothing * cum_comparisons * previous_size:
                threshold = previous_cardinality
                break
        previous_cardinality = cardinality
        previous_size, previous_comparisons = cum_size, cum_comparisons
    return threshold


def purge_threshold_from_sizes(sizes: Any, smoothing: float = SMOOTHING_FACTOR) -> int:
    """Purge threshold from a per-block size array |b| (the packed path).

    Vectorized grouping (distinct cardinality levels, cumulative Σ|b|
    and Σ||b|| via ``np.unique``/``np.cumsum``) feeding the exact same
    scalar walk as :func:`purge_threshold` — the integer threshold is
    identical to the dict path's by construction.  Blocks with fewer
    than two entities are ignored, mirroring the dict path's
    ``non_singleton`` precondition.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    sizes = sizes[sizes >= 2]
    if not len(sizes):
        return 0
    cardinalities = sizes * (sizes - 1) // 2
    levels, inverse = np.unique(cardinalities, return_inverse=True)
    size_sums = np.zeros(len(levels), dtype=np.int64)
    np.add.at(size_sums, inverse, sizes)
    comparison_sums = np.zeros(len(levels), dtype=np.int64)
    np.add.at(comparison_sums, inverse, cardinalities)
    stats = list(
        zip(
            levels.tolist(),
            np.cumsum(size_sums).tolist(),
            np.cumsum(comparison_sums).tolist(),
        )
    )
    return _threshold_from_stats(stats, smoothing)


def purge_threshold(collection: BlockCollection, smoothing: float = SMOOTHING_FACTOR) -> int:
    """Maximum allowed block cardinality ||b|| for *collection*.

    Implements the comparisons-based purging of Papadakis et al. [23]
    (the procedure §7.2.1 references): with cumulative statistics per
    distinct cardinality level — BC(c) = Σ|b| and CC(c) = Σ||b|| over
    blocks with ||b|| ≤ c — walk the levels *descending* and stop at the
    first level i where

        BC(c_i) · CC(c_{i+1}) < SF · CC(c_i) · BC(c_{i+1})

    i.e. where including the next-larger level stops inflating the
    comparisons-per-assignment ratio by more than the smoothing factor;
    the threshold is that next-larger level's cardinality.  Returns ``0``
    for an empty collection and the maximum cardinality when the walk
    never triggers (nothing purged).
    """
    stats = _ascending_stats([b for b in collection if b.cardinality > 0])
    return _threshold_from_stats(stats, smoothing)


def block_purging(
    collection: BlockCollection, smoothing: float = SMOOTHING_FACTOR
) -> BlockCollection:
    """Return a new collection without blocks exceeding the purge threshold.

    Singleton blocks (cardinality 0) are also dropped — they yield no
    comparisons and only slow the later stages down.
    """
    threshold = purge_threshold(collection, smoothing=smoothing)
    kept = BlockCollection()
    for block in collection:
        if 0 < block.cardinality <= threshold:
            # An explicit cheap copy: the kept block must not alias the
            # input's mutable entity set (callers mutate results freely),
            # and Block.copy() clones the set without re-hashing it.
            kept.put(block.copy())
    return kept
