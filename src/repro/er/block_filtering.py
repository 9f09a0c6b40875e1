"""Block Filtering — keep each entity only in its smallest blocks.

Paper §6.1(iii)/§7.2.1: each block has a different importance for every
entity it contains; smaller blocks are more discriminative.  For every
entity e with block list {B} (sorted ascending by block size |b|), retain
e only in the first ``n = ceil(p * |{B}|)`` blocks, p ≤ 1 the filtering
ratio (0.8 per Papadakis et al. [27]).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

from repro.er.blocking import Block, BlockCollection

#: Default filtering ratio from the enhanced meta-blocking paper [27].
DEFAULT_RATIO = 0.8


def _validate_ratio(ratio: float) -> None:
    if not 0.0 < ratio <= 1.0:
        raise ValueError("filtering ratio must be in (0, 1]")


def retained_assignment_mask(
    entities: Any, sizes: Any, key_ranks: Any, ratio: float = DEFAULT_RATIO
) -> Any:
    """Vectorized Block Filtering over flat assignment arrays.

    Inputs are parallel per-assignment arrays: *entities* (dense entity
    id of the assignment), *sizes* (|b| of the assignment's block) and
    *key_ranks* (the block key's rank in the dict path's tie-break
    order — lexicographic over key strings).  Returns a boolean mask
    keeping, per entity, its first ``max(1, ceil(ratio * count))``
    assignments in ascending ``(|b|, key)`` order — exactly the keys
    :func:`retained_keys` retains, computed with one ``lexsort`` and
    prefix arithmetic instead of per-entity Python sorts.
    """
    _validate_ratio(ratio)
    total = len(entities)
    if not total:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((key_ranks, sizes, entities))
    grouped = entities[order]
    # Per-entity group spans over the sorted assignments.
    boundaries = np.nonzero(np.diff(grouped))[0] + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    stops = np.concatenate((boundaries, np.array([total], dtype=np.int64)))
    counts = stops - starts
    # Same float arithmetic as the dict path's math.ceil(ratio * count).
    limits = np.maximum(1, np.ceil(ratio * counts)).astype(np.int64)
    positions = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    keep_sorted = positions < np.repeat(limits, counts)
    mask = np.empty(total, dtype=bool)
    mask[order] = keep_sorted
    return mask


def retained_keys(
    collection: BlockCollection, ratio: float = DEFAULT_RATIO
) -> Dict[Any, List[str]]:
    """Per-entity list of blocking keys that survive filtering.

    Keys come back sorted ascending by block size (ITBI order), truncated
    to the first ``ceil(ratio * count)`` entries.
    """
    _validate_ratio(ratio)
    inverted = collection.inverted()  # already ascending by |b|
    kept: Dict[Any, List[str]] = {}
    for entity_id, keys in inverted.items():
        limit = max(1, math.ceil(ratio * len(keys)))
        kept[entity_id] = keys[:limit]
    return kept


def block_filtering(collection: BlockCollection, ratio: float = DEFAULT_RATIO) -> BlockCollection:
    """Restructure *collection* by removing entities from oversized blocks.

    Returns a new collection; blocks that end up with fewer than two
    entities are dropped since they contribute no comparisons.
    """
    kept = retained_keys(collection, ratio=ratio)
    filtered = BlockCollection()
    for entity_id, keys in kept.items():
        for key in keys:
            filtered.add(key, entity_id)
    return filtered.non_singleton()
