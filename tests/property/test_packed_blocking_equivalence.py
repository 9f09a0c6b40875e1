"""Property: packed (columnar) blocking ≡ the dict reference, end to end.

The production pipeline's contract: for any table, frontier and
meta-blocking configuration it derives the *same purge threshold*, the
*same retained per-entity keys*, the *same blocking-graph weights*, the
*same candidate-pair set* and the *same DEDUP result* as the
paper-literal dict pipeline of :mod:`repro.er.reference` — for query
frontiers, the Batch Approach's whole-table frontier, the empty frontier
and rows with no blocking key, after ``INSERT INTO`` postings deltas (no
index rebuild) and at every worker width.  These tests drive both
pipelines over random tables, filter ratios, weighting schemes and
append splits and compare every observable.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_oracles import ReferenceEngine, ReferenceOperator, span_graph

from repro.core.dedup_operator import DedupStats, DeduplicateOperator
from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.er import reference
from repro.er.block_filtering import retained_assignment_mask, retained_keys
from repro.er.block_purging import purge_threshold, purge_threshold_from_sizes
from repro.er.blocking import BlockCollection
from repro.er.edge_pruning import WeightingScheme
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.packed_blocking import derive_candidates
from repro.er.tokenizer import TokenVocabulary
from repro.parallel import ExecutionConfig
from repro.storage.table import Table

CONFIGS = (
    MetaBlockingConfig.all(),
    MetaBlockingConfig.bp_bf(),
    MetaBlockingConfig.bp_ep(),
    MetaBlockingConfig.none(),
)

# Random block collections: key index → subset of a small entity universe.
assignments = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=25)
    ),
    max_size=80,
)


def build_collection(pairs) -> BlockCollection:
    collection = BlockCollection()
    for key, entity in pairs:
        collection.add(f"k{key}", f"e{entity}")
    return collection


def engine_for(table, packed: bool, workers: int = 1) -> QueryEREngine:
    execution = (
        ExecutionConfig.serial()
        if workers == 1
        else ExecutionConfig(
            workers=workers,
            backend="thread",
            min_parallel_pairs=0,
            min_parallel_comparisons=0,
        )
    )
    engine_class = QueryEREngine if packed else ReferenceEngine
    engine = engine_class(
        meta_blocking=MetaBlockingConfig(),
        execution=execution,
        sample_stats=False,
    )
    engine.register(table)
    return engine


def observed(engine: QueryEREngine, sql: str):
    result = engine.execute(sql)
    links = engine.index_of("PPL").link_index.links
    return (
        sorted(result.rows, key=repr),
        sorted(links, key=repr),
        result.comparisons,
    )


class TestStageEquivalence:
    @given(assignments)
    def test_packed_purge_threshold_equals_dict(self, pairs):
        collection = build_collection(pairs).non_singleton()
        sizes = np.array([block.size for block in collection], dtype=np.int64)
        assert purge_threshold_from_sizes(sizes) == purge_threshold(collection)

    @given(assignments, st.floats(min_value=0.05, max_value=1.0))
    def test_packed_filter_retains_dict_keys(self, pairs, ratio):
        """Per-entity retained keys match the dict path, any ratio."""
        collection = build_collection(pairs)
        expected = retained_keys(collection, ratio=ratio)
        # Flatten the collection into the packed path's assignment arrays.
        vocabulary = TokenVocabulary()
        keys = collection.keys()
        token_ids = np.array([vocabulary.intern(k) for k in keys], dtype=np.int64)
        entity_index = {e: i for i, e in enumerate(sorted(collection.entity_ids()))}
        entities, sizes, ranks = [], [], []
        rank_of = {k: r for r, k in enumerate(sorted(keys))}
        flat = []  # (key, entity) per assignment, aligned with the arrays
        for key in keys:
            block = collection.get(key)
            for entity in block.entities:
                entities.append(entity_index[entity])
                sizes.append(block.size)
                ranks.append(rank_of[key])
                flat.append((key, entity))
        mask = retained_assignment_mask(
            np.array(entities, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            np.array(ranks, dtype=np.int64),
            ratio,
        )
        got = {}
        for keep, (key, entity) in zip(mask.tolist(), flat):
            if keep:
                got.setdefault(entity, set()).add(key)
        assert got == {e: set(k) for e, k in expected.items()}

    def test_filter_ratio_validation_matches_dict(self):
        with pytest.raises(ValueError):
            retained_assignment_mask(
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                0.0,
            )


class TestGraphEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(assignments, st.sampled_from(list(WeightingScheme)), st.booleans())
    def test_span_graph_equals_reference_graph(self, pairs, scheme, focused):
        """Same edges with bit-identical weights; the average differs at
        most by float association (edge order differs), so both graphs
        retain the same pairs at the same threshold."""
        collection = build_collection(pairs)
        focus = {f"e{i}" for i in range(0, 26, 3)} if focused else None
        packed = span_graph(collection, scheme=scheme, focus=focus)
        expected = reference.UnpackedBlockingGraph(collection, scheme=scheme, focus=focus)
        assert len(packed) == len(expected)
        assert packed.nodes() == expected.nodes()
        weights = {(a, b): w for a, b, w in packed.edges()}
        assert weights == {(a, b): w for a, b, w in expected.edges()}
        assert math.isclose(
            packed.average_weight(), expected.average_weight(), rel_tol=1e-12
        )
        threshold = expected.average_weight()
        kept = {(a, b) for a, b, w in packed.edges() if w >= threshold}
        assert kept == expected.retained_pairs(threshold)
        assert len(packed.retained_key_array(threshold)) == len(kept)


def with_tokenless_rows(table, count: int) -> Table:
    """*table* plus *count* rows no blocking key can come from."""
    width = len(table.schema.columns) - 1
    filler = [(None,) * width, ("-",) + (None,) * (width - 1), ("x",) * width]
    start = max(table.ids) + 1
    rows = [row.values for row in table] + [
        (start + i,) + filler[i % len(filler)] for i in range(count)
    ]
    return Table(table.name, table.schema, rows)


def frontier_of(table, kind: str, tokenless: int):
    ids = sorted(table.ids)
    if kind == "whole":
        return set(ids)
    if kind == "empty":
        return set()
    if kind == "tokenless":
        return set(ids[len(ids) - tokenless :])
    return {i for i in ids if i % 3 == 0}


class TestFrontierEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        size=st.integers(min_value=20, max_value=90),
        seed=st.integers(min_value=0, max_value=2**16),
        tokenless=st.integers(min_value=0, max_value=4),
        kind=st.sampled_from(["whole", "empty", "query", "tokenless"]),
        config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
        scheme=st.sampled_from(list(WeightingScheme)),
    )
    def test_derive_equals_reference(self, size, seed, tokenless, kind, config_index, scheme):
        """Pairs and stage stats, for the whole-table frontier (the Batch
        Approach's), the empty frontier and token-less rows."""
        table, _ = generate_people(size, seed=seed)
        table = with_tokenless_rows(table, tokenless)
        frontier = frontier_of(table, kind, tokenless)
        config = replace(CONFIGS[config_index], weighting=scheme)
        index = TableIndex(table)
        derived = derive_candidates(index.postings, frontier, config)
        expected = reference.candidate_pairs(index, frontier, config)
        assert len(set(derived.pairs)) == len(derived.pairs)
        assert set(derived.pairs) == set(expected.pairs)
        assert (
            derived.qbi_blocks,
            derived.eqbi_blocks,
            derived.comparisons_before,
            derived.comparisons_after,
        ) == (
            expected.qbi_blocks,
            expected.eqbi_blocks,
            expected.comparisons_before,
            expected.comparisons_after,
        )


class TestOperatorEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        size=st.integers(min_value=30, max_value=120),
        seed=st.integers(min_value=0, max_value=2**16),
        config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
        filter_ratio=st.floats(min_value=0.3, max_value=1.0),
    )
    def test_packed_operator_equals_dict(self, size, seed, config_index, filter_ratio):
        """Same pairs, same stats, same duplicates, every configuration."""
        table, _ = generate_people(size, seed=seed)
        frontier = [row.id for row in table if row.id % 3 == 0]
        base = replace(CONFIGS[config_index], filter_ratio=filter_ratio)
        outcomes = []
        for operator_class in (DeduplicateOperator, ReferenceOperator):
            index = TableIndex(table)
            operator = operator_class(
                index,
                meta_blocking=base,
                collect_candidates=True,
            )
            stats = DedupStats()
            result = operator.deduplicate(frontier, stats=stats)
            outcomes.append(
                (
                    result.duplicate_ids,
                    sorted(result.links, key=repr),
                    set(stats.candidate_pairs),
                    stats.qbi_blocks,
                    stats.eqbi_blocks,
                    stats.eqbi_comparisons_before,
                    stats.eqbi_comparisons_after,
                    stats.executed_comparisons,
                    stats.matches_found,
                )
            )
        assert outcomes[0] == outcomes[1]


class TestEngineEquivalence:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        size=st.integers(min_value=40, max_value=120),
        seed=st.integers(min_value=0, max_value=2**16),
        workers=st.sampled_from([1, 2]),
    )
    def test_packed_engine_equals_dict(self, size, seed, workers):
        table, _ = generate_people(size, seed=seed)
        sql = "SELECT DEDUP id, given_name, surname, state FROM PPL"
        packed = observed(engine_for(table, packed=True, workers=workers), sql)
        plain = observed(engine_for(table, packed=False, workers=workers), sql)
        assert packed == plain

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        size=st.integers(min_value=40, max_value=100),
        seed=st.integers(min_value=0, max_value=2**16),
        batch=st.integers(min_value=1, max_value=8),
        workers=st.sampled_from([1, 2]),
    )
    def test_insert_delta_equals_dict_and_fresh(self, size, seed, batch, workers):
        """register → query → INSERT → query with postings deltas.

        The packed engine must match (a) the dict engine replaying the
        identical history and (b) a fresh packed engine registered with
        the grown table — i.e. the postings delta is equivalent to a
        rebuild without ever performing one.
        """
        table, _ = generate_people(size, seed=seed)
        extra, _ = generate_people(batch, seed=seed + 1)
        sql = "SELECT DEDUP id, given_name, surname, state FROM PPL"
        base_rows = [row.values for row in table]
        extra_rows = [
            (size + 1000 + i,) + tuple(row.values[1:]) for i, row in enumerate(extra)
        ]

        def history(packed: bool):
            engine = engine_for(
                Table(table.name, table.schema, list(base_rows)), packed, workers
            )
            engine.execute(sql)  # prime postings, plans and the LI
            engine.insert("PPL", extra_rows)
            index = engine.index_of("PPL")
            if packed:
                assert index.postings_built
                assert index.postings.entity_count == size + batch
            return observed(engine, sql)

        packed_history = history(True)
        assert packed_history == history(False)
        fresh = engine_for(
            Table(table.name, table.schema, list(base_rows) + extra_rows),
            packed=True,
            workers=workers,
        )
        fresh_rows, _, _ = observed(fresh, sql)
        assert packed_history[0] == fresh_rows
