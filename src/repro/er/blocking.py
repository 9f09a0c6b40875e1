"""Blocks, block collections and schema-agnostic Token Blocking.

A *block* groups entities sharing a blocking key (a token); ER then
compares only entities that co-occur in at least one block (paper §4).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.er.tokenizer import MIN_TOKEN_LENGTH, TokenVocabulary, tokenize_entity
from repro.er.util import safe_sorted

#: Backwards-compatible alias; the implementation lives in
#: :mod:`repro.er.util` now so every ER module shares one definition.
_safe_sorted = safe_sorted


class Block:
    """A blocking key plus the set of entity ids sharing it.

    ``size`` is the paper's |b| (number of entities) and ``cardinality``
    its ||b|| (number of pairwise comparisons |b|·(|b|−1)/2).
    """

    __slots__ = ("key", "entities")

    def __init__(self, key: str, entities: Iterable[Any] = ()):
        self.key = key
        self.entities: Set[Any] = set(entities)

    @property
    def size(self) -> int:
        return len(self.entities)

    @property
    def cardinality(self) -> int:
        n = len(self.entities)
        return n * (n - 1) // 2

    def add(self, entity_id: Any) -> None:
        self.entities.add(entity_id)

    def copy(self) -> "Block":
        """An independent copy sharing no mutable state with this block.

        ``set.copy()`` is a straight memcpy-style clone — measurably
        cheaper than re-hashing every element through ``set(iterable)``,
        which is what ``Block(key, entities)`` would do.
        """
        clone = Block.__new__(Block)
        clone.key = self.key
        clone.entities = self.entities.copy()
        return clone

    def __contains__(self, entity_id: Any) -> bool:
        return entity_id in self.entities

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.entities)

    def __repr__(self) -> str:
        return f"Block({self.key!r}, size={self.size})"


class BlockCollection:
    """An ordered mapping of blocking key → :class:`Block`.

    This is the in-memory structure behind the paper's ``TBI``, ``QBI``
    and ``EQBI`` indices.  ``|B|`` is :func:`len`; ``||B||`` is
    :attr:`cardinality`.
    """

    def __init__(self, blocks: Optional[Mapping[str, Block]] = None):
        self._blocks: Dict[str, Block] = dict(blocks) if blocks else {}

    # -- construction -------------------------------------------------
    def add(self, key: str, entity_id: Any) -> None:
        """Insert *entity_id* into the block keyed by *key*."""
        block = self._blocks.get(key)
        if block is None:
            block = Block(key)
            self._blocks[key] = block
        block.add(entity_id)

    def put(self, block: Block) -> None:
        """Insert (or replace) a whole block."""
        self._blocks[block.key] = block

    def discard(self, key: str, entity_id: Any) -> None:
        """Remove *entity_id* from the block keyed by *key*, if present.

        An emptied block is deleted outright — a built TBI never holds
        zero-entity blocks, so the undo of an :meth:`add` sequence (the
        DML rollback path) restores the collection element-for-element.
        """
        block = self._blocks.get(key)
        if block is None:
            return
        block.entities.discard(entity_id)
        if not block.entities:
            del self._blocks[key]

    # -- access --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def __contains__(self, key: str) -> bool:
        return key in self._blocks

    def get(self, key: str) -> Optional[Block]:
        return self._blocks.get(key)

    def keys(self) -> List[str]:
        return list(self._blocks)

    @property
    def cardinality(self) -> int:
        """Total comparisons ||B|| = Σ ||b||."""
        return sum(b.cardinality for b in self._blocks.values())

    @property
    def total_assignments(self) -> int:
        """Σ |b| — entity-to-block assignments (block index footprint)."""
        return sum(b.size for b in self._blocks.values())

    def entity_ids(self) -> Set[Any]:
        """All entity ids appearing in any block."""
        ids: Set[Any] = set()
        for block in self._blocks.values():
            ids.update(block.entities)
        return ids

    def non_singleton(self) -> "BlockCollection":
        """Copy keeping only blocks with ≥ 2 entities (comparisons > 0)."""
        return BlockCollection(
            {k: Block(k, b.entities) for k, b in self._blocks.items() if b.size >= 2}
        )

    def copy(self) -> "BlockCollection":
        return BlockCollection({k: Block(k, b.entities) for k, b in self._blocks.items()})

    def inverted(self) -> Dict[Any, List[str]]:
        """Entity id → blocking keys, keys sorted ascending by block size.

        This is the paper's Inverse Table Block Index (ITBI) ordering:
        "sorted in ascending order by their block size" (§3), which Block
        Filtering exploits directly.
        """
        index: Dict[Any, List[str]] = {}
        for block in self._blocks.values():
            for entity_id in block.entities:
                index.setdefault(entity_id, []).append(block.key)
        for entity_id, keys in index.items():
            keys.sort(key=lambda k: (self._blocks[k].size, k))
        return index

    def comparison_pairs(self) -> Set[Tuple[Any, Any]]:
        """Distinct unordered entity pairs co-occurring in some block."""
        pairs: Set[Tuple[Any, Any]] = set()
        for block in self._blocks.values():
            members = _safe_sorted(block.entities)
            for i, left in enumerate(members):
                for right in members[i + 1 :]:
                    pairs.add((left, right))
        return pairs

    def __repr__(self) -> str:
        return f"BlockCollection(|B|={len(self)}, ||B||={self.cardinality})"


class _GrowableIntArray:
    """A contiguous int64 NumPy array with amortized O(1) appends.

    Capacity doubles on overflow, so the postings arrays stay contiguous
    (CSR consumers slice them directly) while ``INSERT`` batches extend
    them at cost proportional to the batch.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, initial: Optional[Iterable[int]] = None, capacity: int = 16):
        if initial is not None:
            self._data = np.array(list(initial), dtype=np.int64)
            self._size = len(self._data)
        else:
            self._data = np.empty(max(capacity, 1), dtype=np.int64)
            self._size = 0

    def __len__(self) -> int:
        return self._size

    def view(self) -> Any:
        """The live contents as a zero-copy array view."""
        return self._data[: self._size]

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= len(self._data):
            return
        capacity = max(len(self._data), 1)
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=np.int64)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def append(self, value: int) -> None:
        self._reserve(1)
        self._data[self._size] = value
        self._size += 1

    def extend(self, values: Any) -> None:
        values = np.asarray(values, dtype=np.int64)
        self._reserve(len(values))
        self._data[self._size : self._size + len(values)] = values
        self._size += len(values)

    def pad_to(self, size: int) -> None:
        """Zero-extend to at least *size* entries."""
        if size > self._size:
            self._reserve(size - self._size)
            self._data[self._size : size] = 0
            self._size = size


def _gather_ranges(source: Any, starts: Any, counts: Any) -> Any:
    """Concatenate ``source[starts[i] : starts[i]+counts[i]]`` segments.

    The standard vectorized multi-slice gather: one ``arange`` over the
    total output size, shifted per segment.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=source.dtype)
    ends = np.cumsum(counts)
    positions = (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - counts, counts)
        + np.repeat(starts, counts)
    )
    return source[positions]


class TokenPostings:
    """CSR-style columnar twin of the TBI/ITBI (the blocking fast path).

    Two contiguous-array indices over the same assignments the dict TBI
    holds:

    * **forward** — entity → token ids: ``_ent_indptr`` / ``_ent_tokens``
      (the ITBI, minus the per-entity size ordering, which the packed
      Block Filtering re-derives vectorized per query);
    * **inverted** — token id → entity dense ids: a compacted base CSR
      (``_tok_indptr`` / ``_tok_members``) plus a small per-token pending
      delta that ``INSERT INTO`` batches append to.

    Token ids come from the table's shared
    :class:`~repro.er.tokenizer.TokenVocabulary`; entities get dense ids
    in registration order.  Appends never rebuild: the forward CSR is
    append-only and inverted deltas are folded into the base only when
    the pending volume reaches the base volume (amortized O(1) per
    posting).
    """

    def __init__(self, vocabulary: TokenVocabulary):
        self.vocabulary = vocabulary
        self._entity_ids: List[Any] = []
        self._entity_index: Dict[Any, int] = {}
        self._ent_indptr = _GrowableIntArray([0])
        self._ent_tokens = _GrowableIntArray()
        # Inverted base CSR (rebuilt only by compaction) + pending delta.
        self._tok_indptr = np.zeros(1, dtype=np.int64)
        self._tok_members = np.empty(0, dtype=np.int64)
        self._pending: Dict[int, List[int]] = {}
        self._pending_count = 0
        # Total posting length per token id (base + pending), maintained
        # incrementally — the purge/filter stages read it in bulk.
        self._sizes = _GrowableIntArray()

    # -- construction ---------------------------------------------------
    @classmethod
    def build(
        cls,
        items: Iterable[Tuple[Any, Iterable[str]]],
        vocabulary: TokenVocabulary,
    ) -> "TokenPostings":
        """Bulk-build postings from ``(entity_id, distinct keys)`` pairs.

        The forward CSR is assembled in one pass (interning each key),
        then the inverted CSR falls out of a single stable counting
        sort — no per-block Python sets, no per-entity key sorts.
        """
        postings = cls(vocabulary)
        intern = vocabulary.intern
        ids = postings._entity_ids
        index = postings._entity_index
        indptr: List[int] = [0]
        tokens: List[int] = []
        for entity_id, keys in items:
            index[entity_id] = len(ids)
            ids.append(entity_id)
            for key in keys:
                tokens.append(intern(key))
            indptr.append(len(tokens))
        postings._ent_indptr = _GrowableIntArray(indptr)
        postings._ent_tokens = _GrowableIntArray(tokens)
        postings._sizes.pad_to(len(vocabulary))
        if tokens:
            np.add.at(postings._sizes.view(), postings._ent_tokens.view(), 1)
        postings.compact()
        return postings

    @classmethod
    def from_arrays(
        cls,
        entity_ids: Iterable[Any],
        indptr: Any,
        tokens: Any,
        vocabulary: TokenVocabulary,
    ) -> "TokenPostings":
        """Rehydrate postings from a persisted forward CSR (no tokenizing).

        ``indptr``/``tokens`` are the arrays :meth:`to_arrays` produced
        (entities in dense-id order, token ids interned in
        *vocabulary*).  The inverted CSR is rebuilt with the same
        counting sort :meth:`build` uses, so the result is
        indistinguishable from a bulk build over the original keys.
        """
        postings = cls(vocabulary)
        postings._entity_ids = list(entity_ids)
        postings._entity_index = {e: i for i, e in enumerate(postings._entity_ids)}
        postings._ent_indptr = _GrowableIntArray(np.asarray(indptr, dtype=np.int64))
        postings._ent_tokens = _GrowableIntArray(np.asarray(tokens, dtype=np.int64))
        if len(postings._ent_indptr) != len(postings._entity_ids) + 1:
            raise ValueError(
                f"indptr has {len(postings._ent_indptr)} entries for "
                f"{len(postings._entity_ids)} entities"
            )
        postings._sizes.pad_to(len(vocabulary))
        if len(postings._ent_tokens):
            np.add.at(postings._sizes.view(), postings._ent_tokens.view(), 1)
        postings.compact()
        return postings

    def to_arrays(self) -> Dict[str, Any]:
        """Dehydrate the forward CSR (entity order + indptr + token ids).

        The inverted side is derived state (one counting sort away), so
        only the forward arrays need persisting; :meth:`from_arrays`
        restores both.
        """
        return {
            "entity_ids": list(self._entity_ids),
            "indptr": self._ent_indptr.view().copy(),
            "tokens": self._ent_tokens.view().copy(),
        }

    def add_entity(self, entity_id: Any, keys: Iterable[str]) -> int:
        """Append one entity's postings (an ``INSERT`` delta step).

        Cost is proportional to the entity's key count: the forward CSR
        extends in place and inverted updates land in the pending delta.
        Returns the entity's dense id.
        """
        if entity_id in self._entity_index:
            raise ValueError(f"entity {entity_id!r} already has postings")
        dense = len(self._entity_ids)
        self._entity_index[entity_id] = dense
        self._entity_ids.append(entity_id)
        token_ids = [self.vocabulary.intern(key) for key in keys]
        self._ent_tokens.extend(token_ids)
        self._ent_indptr.append(len(self._ent_tokens))
        self._sizes.pad_to(len(self.vocabulary))
        sizes = self._sizes.view()
        pending = self._pending
        for token_id in token_ids:
            sizes[token_id] += 1
            bucket = pending.get(token_id)
            if bucket is None:
                pending[token_id] = [dense]
            else:
                bucket.append(dense)
        self._pending_count += len(token_ids)
        return dense

    def compact(self) -> None:
        """Fold pending deltas into the inverted base CSR.

        A stable counting sort over the forward arrays: O(assignments),
        fully vectorized.  Triggered automatically only when the pending
        volume has caught up with the base volume, so append-heavy
        workloads pay amortized O(1) per posting.
        """
        tokens = self._ent_tokens.view()
        indptr = self._ent_indptr.view()
        counts = np.diff(indptr)
        entities = np.repeat(np.arange(len(self._entity_ids), dtype=np.int64), counts)
        self._sizes.pad_to(len(self.vocabulary))
        token_counts = np.bincount(tokens, minlength=len(self._sizes))
        self._tok_indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(token_counts, dtype=np.int64))
        )
        order = np.argsort(tokens, kind="stable")
        self._tok_members = entities[order]
        self._pending = {}
        self._pending_count = 0

    def _maybe_compact(self) -> None:
        if self._pending_count and self._pending_count >= max(
            256, len(self._tok_members)
        ):
            self.compact()

    # -- entity mapping -------------------------------------------------
    @property
    def entity_count(self) -> int:
        return len(self._entity_ids)

    @property
    def assignment_count(self) -> int:
        """Σ |b| — total entity-to-block assignments."""
        return len(self._ent_tokens)

    def __contains__(self, entity_id: Any) -> bool:
        return entity_id in self._entity_index

    def entity_id_of(self, dense: int) -> Any:
        return self._entity_ids[dense]

    def entity_ids_of(self, dense: Any) -> List[Any]:
        ids = self._entity_ids
        return [ids[i] for i in dense.tolist()]

    def dense_frontier(self, entity_ids: Iterable[Any]) -> Any:
        """Sorted dense ids of the known subset of *entity_ids*."""
        index = self._entity_index
        dense = [index[e] for e in entity_ids if e in index]
        dense.sort()
        return np.array(dense, dtype=np.int64)

    # -- forward postings -----------------------------------------------
    def tokens_of_entities(self, dense: Any) -> Any:
        """Distinct token ids over the given dense entities (sorted)."""
        if not len(dense):
            return np.empty(0, dtype=np.int64)
        indptr = self._ent_indptr.view()
        starts = indptr[dense]
        counts = indptr[dense + 1] - starts
        gathered = _gather_ranges(self._ent_tokens.view(), starts, counts)
        return np.unique(gathered)

    # -- inverted postings ----------------------------------------------
    def sizes_of(self, token_ids: Any) -> Any:
        """Posting length |b| per token id (vectorized)."""
        self._sizes.pad_to(len(self.vocabulary))
        return self._sizes.view()[token_ids]

    def members_of(self, token_ids: Any) -> Tuple[Any, Any]:
        """CSR (indptr, members) of the given tokens' full postings.

        Base segments gather vectorized; pending deltas (only present
        between an append and the next compaction) fill in per token.
        """
        self._maybe_compact()
        token_ids = np.asarray(token_ids, dtype=np.int64)
        base_n = len(self._tok_indptr) - 1
        if base_n:
            clipped = np.minimum(token_ids, base_n - 1)
            in_base = token_ids < base_n
            starts = np.where(in_base, self._tok_indptr[clipped], 0)
            base_counts = np.where(
                in_base, self._tok_indptr[clipped + 1] - starts, 0
            )
        else:
            starts = np.zeros(len(token_ids), dtype=np.int64)
            base_counts = np.zeros(len(token_ids), dtype=np.int64)
        totals = self.sizes_of(token_ids)
        out_indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(totals, dtype=np.int64))
        )
        members = np.empty(int(out_indptr[-1]), dtype=np.int64)
        base_total = int(base_counts.sum())
        if base_total:
            out_positions = (
                np.arange(base_total, dtype=np.int64)
                - np.repeat(np.cumsum(base_counts) - base_counts, base_counts)
                + np.repeat(out_indptr[:-1], base_counts)
            )
            src = _gather_ranges(self._tok_members, starts, base_counts)
            members[out_positions] = src
        if self._pending:
            pending = self._pending
            extra = totals - base_counts
            for i in np.nonzero(extra)[0].tolist():
                bucket = pending[int(token_ids[i])]
                position = int(out_indptr[i]) + int(base_counts[i])
                members[position : position + len(bucket)] = bucket
        return out_indptr, members

    def __repr__(self) -> str:
        return (
            f"TokenPostings({self.entity_count} entities, "
            f"{self.assignment_count} assignments, "
            f"{self._pending_count} pending)"
        )


class TokenBlocking:
    """Schema-agnostic Token Blocking (paper §6.1(i)).

    The same blocking function must construct both the table-level TBI and
    the per-query QBI so their keys are join-compatible; instantiating one
    ``TokenBlocking`` per table and reusing it guarantees that.
    """

    def __init__(
        self,
        exclude_attributes: Iterable[str] = (),
        min_token_length: int = MIN_TOKEN_LENGTH,
        numeric_min_length: Optional[int] = None,
    ):
        self.exclude_attributes = tuple(exclude_attributes)
        self.min_token_length = min_token_length
        self.numeric_min_length = numeric_min_length

    def keys_for(self, attributes: Mapping[str, Any]) -> Set[str]:
        """Blocking keys of a single entity."""
        return tokenize_entity(
            attributes,
            exclude=self.exclude_attributes,
            min_length=self.min_token_length,
            numeric_min_length=self.numeric_min_length,
        )

    def build(self, entities: Iterable[Tuple[Any, Mapping[str, Any]]]) -> BlockCollection:
        """Build a block collection from ``(entity_id, attributes)`` pairs."""
        collection = BlockCollection()
        for entity_id, attributes in entities:
            for key in self.keys_for(attributes):
                collection.add(key, entity_id)
        return collection


class NGramBlocking(TokenBlocking):
    """Character n-gram blocking (paper §10: "different blocking methods").

    Every token additionally contributes its character n-grams as
    blocking keys, so typo-corrupted tokens ("smith"/"smiht") still land
    in shared blocks at the cost of more, larger blocks — the classic
    recall/efficiency trade the comparative ablation measures.
    """

    def __init__(
        self,
        n: int = 3,
        exclude_attributes: Iterable[str] = (),
        min_token_length: int = MIN_TOKEN_LENGTH,
        numeric_min_length: Optional[int] = None,
    ):
        super().__init__(
            exclude_attributes=exclude_attributes,
            min_token_length=min_token_length,
            numeric_min_length=numeric_min_length,
        )
        if n < 2:
            raise ValueError("n-gram size must be at least 2")
        self.n = n

    def keys_for(self, attributes: Mapping[str, Any]) -> Set[str]:
        tokens = super().keys_for(attributes)
        keys: Set[str] = set()
        for token in tokens:
            if len(token) <= self.n:
                keys.add(token)
                continue
            for start in range(len(token) - self.n + 1):
                keys.add(token[start : start + self.n])
        return keys
