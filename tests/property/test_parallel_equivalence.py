"""Property: parallel DEDUP ≡ serial DEDUP, bit for bit.

The parallel execution subsystem's contract is that partitioned
Comparison-Execution — blocking-graph construction and pair matching
sharded over a worker pool — produces *bit-identical* output to the
serial fast path: the same match sets, the same link sets, the same
edge weights, the same result rows.  These tests check that contract
across workers ∈ {1, 2, 4}, both pool backends, and — because a stale
candidate plan is the subsystem's one way to go quietly wrong — across
``INSERT INTO`` boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_oracles import span_arrays, span_graph

from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.er.edge_pruning import WeightingScheme
from repro.parallel import ExecutionConfig, ParallelComparisonExecutor

WORKER_COUNTS = (1, 2, 4)


def forced_parallel(workers: int, backend: str = "thread") -> ExecutionConfig:
    """Thresholds at zero: even tiny hypothesis tables take the pool."""
    return ExecutionConfig(
        workers=workers,
        backend=backend,
        min_parallel_pairs=0,
        min_parallel_comparisons=0,
    )


def observed_state(engine: QueryEREngine, sql: str):
    """(sorted rows, sorted links, comparisons) of one cold execution."""
    result = engine.execute(sql)
    links = engine.index_of("PPL").link_index.links
    return (
        sorted(result.rows, key=repr),
        sorted(links, key=repr),
        result.comparisons,
    )


def fresh_engine(table, workers: int, backend: str) -> QueryEREngine:
    config = (
        ExecutionConfig.serial()
        if workers == 1
        else forced_parallel(workers, backend)
    )
    engine = QueryEREngine(sample_stats=False, execution=config)
    engine.register(table)
    return engine


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    size=st.integers(min_value=40, max_value=160),
    seed=st.integers(min_value=0, max_value=2**16),
    state_filter=st.booleans(),
)
def test_parallel_dedup_equals_serial(size, seed, state_filter):
    """Same rows, same links, same comparison count at every width."""
    table, _ = generate_people(size, seed=seed)
    sql = (
        "SELECT DEDUP id, given_name, surname, state FROM PPL"
        + (" WHERE state IN ('nsw', 'vic', 'qld')" if state_filter else "")
    )
    baseline = observed_state(fresh_engine(table, 1, "serial"), sql)
    for workers in WORKER_COUNTS[1:]:
        got = observed_state(fresh_engine(table, workers, "thread"), sql)
        assert got == baseline, f"workers={workers} diverged from serial"


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    size=st.integers(min_value=40, max_value=120),
    seed=st.integers(min_value=0, max_value=2**16),
    batch=st.integers(min_value=1, max_value=8),
)
def test_parallel_dedup_after_insert_equals_serial(size, seed, batch):
    """query → INSERT INTO → query: every width sees the serial answers.

    Each worker width replays the *identical* engine history (register,
    prime, append, re-query), so any divergence is the parallel
    subsystem's — in particular a stale candidate plan surviving the
    append.  The appended rows are generated from a different seed, so
    some land in blocks shared with pre-existing entities: exactly the
    pairs a stale plan would drop.
    """
    table, _ = generate_people(size, seed=seed)
    extra, _ = generate_people(batch, seed=seed + 1)
    sql = "SELECT DEDUP id, given_name, surname, state FROM PPL"
    base_rows = [row.values for row in table]
    # Re-id the appended batch past the base range: generated ids start
    # at 1 and must not collide with pre-existing records.
    extra_rows = [
        (size + 1000 + i,) + tuple(row.values[1:]) for i, row in enumerate(extra)
    ]
    Table = type(table)

    def history(workers: int):
        engine = fresh_engine(
            Table(table.name, table.schema, list(base_rows)), workers, "thread"
        )
        primed = engine.execute(sql)  # prime caches and candidate plans
        engine.insert("PPL", extra_rows)
        result = engine.execute(sql)
        links = engine.index_of("PPL").link_index.links
        return (
            sorted(primed.rows, key=repr),
            sorted(result.rows, key=repr),
            sorted(links, key=repr),
            result.comparisons,
        )

    reference = history(1)
    for workers in WORKER_COUNTS[1:]:
        assert history(workers) == reference, (
            f"workers={workers} diverged after insert"
        )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    size=st.integers(min_value=60, max_value=200),
    seed=st.integers(min_value=0, max_value=2**16),
    scheme=st.sampled_from(list(WeightingScheme)),
)
def test_parallel_graph_build_is_bit_identical(size, seed, scheme):
    """Edge keys, weights and retained pairs match the serial build exactly."""
    table, _ = generate_people(size, seed=seed)
    index = TableIndex(table)
    collection = index.tbi.non_singleton()
    focus = {row.id for row in table if row.id % 2 == 0}
    serial = span_graph(collection, scheme=scheme, focus=focus)
    members, indptr, sizes, universe, in_focus = span_arrays(collection, focus)
    for workers in WORKER_COUNTS[1:]:
        executor = ParallelComparisonExecutor(forced_parallel(workers))
        parallel = executor.build_span_graph(
            members, indptr, sizes, universe, scheme, in_focus
        )
        assert list(serial.edges()) == list(parallel.edges())
        assert serial.average_weight() == parallel.average_weight()
        threshold = serial.average_weight()
        assert np.array_equal(
            serial.retained_key_array(threshold), parallel.retained_key_array(threshold)
        )


@pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
def test_process_backend_equals_serial(workers):
    """The fork-based pool (the production backend) is also bit-identical."""
    table, _ = generate_people(300, seed=1234)
    sql = "SELECT DEDUP id, given_name, surname, state FROM PPL"
    baseline = observed_state(fresh_engine(table, 1, "serial"), sql)
    got = observed_state(fresh_engine(table, workers, "process"), sql)
    assert got == baseline


def test_insert_then_parallel_process_dedup_matches_serial():
    """Process-backend variant of the post-INSERT equivalence check."""
    table, _ = generate_people(200, seed=77)
    base_rows = [row.values for row in table]
    extra, _ = generate_people(10, seed=78)
    sql = "SELECT DEDUP id, given_name, surname, state FROM PPL"
    extra_rows = [(2000 + i,) + tuple(row.values[1:]) for i, row in enumerate(extra)]
    Table = type(table)

    def history(workers: int, backend: str):
        engine = fresh_engine(
            Table(table.name, table.schema, list(base_rows)), workers, backend
        )
        engine.execute(sql)
        engine.insert("PPL", extra_rows)
        return observed_state(engine, sql)

    assert history(4, "process") == history(1, "serial")
