"""Execution configuration for the parallel Comparison-Execution subsystem.

:class:`ExecutionConfig` is the one knob surface: how many workers, which
backend, and the thresholds below which a query stays on the serial fast
path (partitioning a few hundred pairs costs more than it saves).  The
default is auto-detection — ``REPRO_WORKERS`` if set, otherwise the
process's usable core count — so the engine scales with the hardware
without per-deployment code changes.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Optional

#: Upper bound of auto-detected workers; beyond this, per-query pool
#: management overhead outgrows the marginal core's contribution on the
#: workloads this engine serves.
MAX_AUTO_WORKERS = 8

#: Environment variable overriding the auto-detected worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable enabling the persistent shard runtime when
#: ``ExecutionConfig.persistent_shards`` is left unset.
SHARDS_ENV = "REPRO_SHARDS"

#: cgroup v2 CPU bandwidth file: ``"<quota> <period>"`` in microseconds,
#: or ``"max <period>"`` when unthrottled.
_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cgroup_quota_cores(path: str = _CGROUP_CPU_MAX) -> Optional[int]:
    """Whole cores the cgroup v2 CPU quota allows, or ``None``.

    A container pinned to ``200000 100000`` may *see* 32 cores in its
    affinity mask yet only ever get 2 cores of bandwidth — spawning 32
    workers there just makes them preempt each other.
    """
    try:
        with open(path, "r", encoding="ascii") as handle:
            fields = handle.read().split()
        quota, period = fields[0], int(fields[1])
    except (OSError, ValueError, IndexError):
        return None
    if quota == "max" or period <= 0:
        return None
    try:
        return max(1, int(quota) // period)
    except ValueError:
        return None


def usable_cores() -> int:
    """Cores this process may actually run on.

    ``sched_getaffinity`` (where available) respects CPU masks that
    ``cpu_count`` ignores, and the cgroup v2 CPU-bandwidth quota caps
    the result further — so containers limited either way never
    oversubscribe.  No env override, no cap beyond the quota — this is
    the hardware fact benchmarks report next to their ratios.
    """
    try:
        cores = max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cores = max(1, os.cpu_count() or 1)
    quota = _cgroup_quota_cores()
    if quota is not None:
        cores = min(cores, quota)
    return cores


def detect_workers() -> int:
    """Auto-detected worker count: env override, else capped cores."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(usable_cores(), MAX_AUTO_WORKERS)


def fork_available() -> bool:
    """Whether the fast copy-on-write process backend can run here."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class ExecutionConfig:
    """How DEDUP Comparison-Execution is scheduled.

    Parameters
    ----------
    workers:
        Worker count; ``None`` auto-detects (``REPRO_WORKERS`` env var,
        else the usable core count capped at :data:`MAX_AUTO_WORKERS`).
        ``1`` means strictly serial execution.
    backend:
        ``"process"`` (fork-based pool; payloads reach workers by
        copy-on-write, only partition descriptors and results cross the
        boundary), ``"thread"`` (shares live matchers — safe because the
        matcher memos are lock-guarded), ``"serial"``, or ``"auto"``
        (process where fork exists, thread otherwise).
    min_parallel_pairs:
        Candidate-pair count below which matching stays serial.  The
        default is sized against pool start-up cost: forking from a
        memory-heavy parent can cost ~100 ms, so the sharded work must
        comfortably exceed that.
    min_parallel_comparisons:
        Total block cardinality Σ||b|| below which the blocking graph
        is built serially.  Sized like ``min_parallel_pairs``, noting that
        per-comparison segment generation is far cheaper than a
        matcher cascade.
    partitions_per_worker:
        Partition granularity: more partitions than workers lets the
        pool balance uneven spans.
    parallel_graph:
        Also shard blocking-graph segment generation (not just
        matching) across the pool.
    candidate_cache_size:
        Entries of the per-engine candidate-pair plan cache (repeated
        frontiers skip re-deriving their comparison list); ``0``
        disables it.
    task_retries:
        How many serial parent-side re-runs a failed (or timed-out)
        partition task gets before the invocation surfaces a typed
        :class:`~repro.parallel.pool.TaskExecutionError`; ``0`` restores
        fail-fast propagation.
    task_timeout_s:
        Per-task wall-clock bound in seconds (hang containment): a task
        exceeding it counts as failed and enters the retry/serial
        recovery path.  ``None`` disables; the generous default only
        trips on genuine hangs, never on slow-but-alive partitions.
    persistent_shards:
        Keep a long-lived :class:`~repro.parallel.shards.ShardRuntime`
        of hash-partitioned worker processes resident across queries
        instead of forking a pool per invocation — the warm-serving
        configuration (state ships once at fork plus per-commit deltas,
        never per query).  ``None`` defers to the ``REPRO_SHARDS``
        environment variable (default off); effective only where the
        process backend is (fork available, workers > 1).
    """

    workers: int = None  # type: ignore[assignment]  # None → auto
    backend: str = "auto"
    min_parallel_pairs: int = 4096
    min_parallel_comparisons: int = 131072
    partitions_per_worker: int = 4
    parallel_graph: bool = True
    candidate_cache_size: int = 128
    task_retries: int = 2
    task_timeout_s: Optional[float] = 300.0
    persistent_shards: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.backend not in ("auto", "process", "thread", "serial"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive seconds (or None)")

    @classmethod
    def serial(cls) -> "ExecutionConfig":
        """Strictly single-threaded execution (the pre-subsystem path)."""
        return cls(workers=1, backend="serial")

    def resolved_workers(self) -> int:
        """The effective worker count (auto-detected when unset)."""
        if self.workers is not None:
            return self.workers
        return detect_workers()

    def resolved_backend(self) -> str:
        """The effective backend for the resolved worker count."""
        if self.resolved_workers() <= 1:
            return "serial"
        if self.backend == "auto":
            return "process" if fork_available() else "thread"
        return self.backend

    def resolved_shards(self) -> bool:
        """Whether the persistent shard runtime should serve this config.

        Requires the process backend (a shard *is* a forked process
        holding resident state; threads share it anyway and the serial
        path has nothing to amortize).
        """
        flag = self.persistent_shards
        if flag is None:
            env = os.environ.get(SHARDS_ENV, "").strip().lower()
            flag = env in ("1", "true", "yes", "on")
        return (
            bool(flag)
            and self.parallel
            and self.resolved_backend() == "process"
            and fork_available()
        )

    @property
    def parallel(self) -> bool:
        """Whether this configuration can ever run work on a pool."""
        return self.resolved_workers() > 1 and self.resolved_backend() != "serial"
