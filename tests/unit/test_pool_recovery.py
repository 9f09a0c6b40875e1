"""Unit tests of WorkerPool failure recovery (repro.parallel.pool).

Every failure path is driven deterministically through the fault sites
the pool threads through itself: ``pool.task`` (worker crash),
``pool.task_hang`` (worker hang, contained by the per-task timeout) and
``pool.spawn`` (process-pool creation failure → thread fallback).
"""

from __future__ import annotations

import warnings

import pytest

from repro.parallel.config import fork_available
from repro.parallel.pool import (
    TaskExecutionError,
    TaskTimeout,
    WorkerPool,
    reset_process_fallback_warning,
)
from repro.resilience import DEGRADATION, FaultError, FaultPlan, clear_plan, install_plan


def _square(task):
    return task * task


TASKS = list(range(6))
EXPECTED = [t * t for t in TASKS]


@pytest.fixture(autouse=True)
def _isolated():
    clear_plan()
    DEGRADATION.clear()
    reset_process_fallback_warning()
    yield
    clear_plan()
    DEGRADATION.clear()
    reset_process_fallback_warning()


class TestConstruction:
    def test_rejects_bad_recovery_knobs(self):
        with pytest.raises(ValueError):
            WorkerPool(2, "thread", retries=-1)
        with pytest.raises(ValueError):
            WorkerPool(2, "thread", task_timeout=0)

    def test_single_worker_degrades_to_serial(self):
        assert WorkerPool(1, "thread").backend == "serial"


class TestTaskRecovery:
    @pytest.mark.parametrize("backend,workers", [("thread", 2), ("serial", 1)])
    def test_no_faults_results_in_task_order(self, backend, workers):
        pool = WorkerPool(workers, backend)
        assert pool.run(_square, TASKS, None) == EXPECTED

    @pytest.mark.parametrize("backend,workers", [("thread", 2), ("serial", 1)])
    def test_transient_crash_recovers_bit_identically(self, backend, workers):
        install_plan(FaultPlan().add("pool.task", times=1))
        pool = WorkerPool(workers, backend, retries=2)
        assert pool.run(_square, TASKS, None) == EXPECTED
        assert DEGRADATION.count("parallel") == 1
        events = DEGRADATION.events()
        assert events[0].site == "task_retry"

    @pytest.mark.parametrize("backend,workers", [("thread", 2), ("serial", 1)])
    def test_persistent_crash_exhausts_into_typed_error(self, backend, workers):
        install_plan(FaultPlan().add("pool.task", times=None))
        pool = WorkerPool(workers, backend, retries=2)
        with pytest.raises(TaskExecutionError) as excinfo:
            pool.run(_square, TASKS, None)
        assert excinfo.value.attempts == 3  # pool try + 2 serial retries
        assert isinstance(excinfo.value.__cause__, FaultError)
        assert any(e.site == "task_failed" for e in DEGRADATION.events())

    def test_zero_retries_fails_fast(self):
        install_plan(FaultPlan().add("pool.task", times=1))
        pool = WorkerPool(2, "thread", retries=0)
        with pytest.raises(TaskExecutionError) as excinfo:
            pool.run(_square, TASKS, None)
        assert excinfo.value.attempts == 1

    def test_hang_is_contained_by_task_timeout_then_recovered(self):
        # One worker thread sleeps well past the task timeout; its task
        # is written off as TaskTimeout and re-run serially (where the
        # exhausted hang spec stays silent), so results still match.
        install_plan(FaultPlan().add("pool.task_hang", kind="hang", delay=1.5, times=1))
        pool = WorkerPool(2, "thread", retries=2, task_timeout=0.2)
        assert pool.run(_square, TASKS, None) == EXPECTED
        events = DEGRADATION.events()
        assert events and events[0].site == "task_retry"
        assert "TaskTimeout" in events[0].detail

    def test_persistent_hang_surfaces_timeout_cause(self):
        install_plan(
            FaultPlan().add("pool.task_hang", kind="hang", delay=1.5, times=None)
        )
        pool = WorkerPool(2, "thread", retries=0, task_timeout=0.2)
        with pytest.raises(TaskExecutionError) as excinfo:
            pool.run(_square, TASKS[:2], None)
        assert isinstance(excinfo.value.__cause__, TaskTimeout)

    def test_empty_task_list_short_circuits(self):
        install_plan(FaultPlan().add("pool.task", times=None))
        assert WorkerPool(2, "thread").run(_square, [], None) == []


@pytest.mark.skipif(not fork_available(), reason="fork backend unavailable")
class TestProcessBackend:
    def test_transient_crashes_in_forked_workers_recover(self):
        # Each forked worker inherits its own copy of the plan, so the
        # fault can fire once per child *and* once in the parent's first
        # serial retry; bounded retries still converge on exact results.
        install_plan(FaultPlan().add("pool.task", times=1))
        pool = WorkerPool(2, "process", retries=2)
        assert pool.run(_square, TASKS, None) == EXPECTED
        assert DEGRADATION.count("parallel") >= 1

    def test_spawn_failure_falls_back_to_threads(self):
        install_plan(FaultPlan().add("pool.spawn", times=1))
        pool = WorkerPool(2, "process")
        with pytest.warns(RuntimeWarning, match="falling back to threads"):
            assert pool.run(_square, TASKS, None) == EXPECTED
        assert any(e.site == "pool_spawn" for e in DEGRADATION.events())

    def test_spawn_fallback_warning_is_once_per_process(self):
        install_plan(FaultPlan().add("pool.spawn", times=None))
        pool = WorkerPool(2, "process")
        with pytest.warns(RuntimeWarning):
            pool.run(_square, TASKS, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            pool.run(_square, TASKS, None)
        reset_process_fallback_warning()
        with pytest.warns(RuntimeWarning):
            pool.run(_square, TASKS, None)


class TestFailedDedupLeavesLinkIndex:
    """A DEDUP that fails in a later transitive round amends nothing.

    ``id < 40`` on this table resolves in three rounds, so both faults
    below fire after round 1 has already matched its frontier.
    """

    SQL = "SELECT DEDUP * FROM PPL WHERE id < 40"

    @staticmethod
    def _engine(table):
        from repro.core.engine import QueryEREngine
        from repro.parallel import ExecutionConfig

        engine = QueryEREngine(
            execution=ExecutionConfig(
                workers=2,
                backend="thread",
                min_parallel_pairs=1,
                min_parallel_comparisons=1,
                task_retries=2,
            )
        )
        engine.register(table)
        return engine

    @staticmethod
    def _link_index_state(engine):
        link_index = engine.index_of("PPL").link_index
        return link_index.resolved_count, sorted(link_index.links, key=repr)

    @pytest.mark.parametrize(
        "site,after",
        [("pool.task", 16), ("packed.derive", 1)],
    )
    def test_later_round_fault_leaves_link_index_untouched(self, site, after):
        from repro.datagen import generate_people

        table, _ = generate_people(400, seed=47, name="PPL")
        clean = self._engine(table)
        expected = clean.execute(self.SQL).sorted_rows()
        expected_state = self._link_index_state(clean)

        engine = self._engine(table)
        before = self._link_index_state(engine)
        install_plan(FaultPlan().add(site, times=None, after=after))
        with pytest.raises((TaskExecutionError, FaultError)):
            engine.execute(self.SQL)
        assert self._link_index_state(engine) == before

        clear_plan()
        assert engine.execute(self.SQL).sorted_rows() == expected
        assert self._link_index_state(engine) == expected_state
