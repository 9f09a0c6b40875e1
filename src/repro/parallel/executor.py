"""The orchestrator: partitioned Comparison-Execution over a worker pool.

:class:`ParallelComparisonExecutor` is the one object the rest of the
engine talks to.  Per invocation it

1. asks the :class:`~repro.parallel.planner.PartitionPlanner` for
   balanced contiguous spans of the work (candidate pairs, or postings
   blocks of a graph build),
2. pre-builds every profile signature the spans touch — workers treat
   signature state as read-only,
3. runs the spans on a :class:`~repro.parallel.pool.WorkerPool`
   (fork-based processes by default, threads or serial as fallback), and
4. recombines per-partition results through the
   :class:`~repro.parallel.merger.DeterministicMerger`, whose fixed
   canonical order makes parallel output bit-identical to serial.

It also owns the *candidate-plan cache*: the deterministic candidate-pair
list derived for a (table, frontier, meta-blocking) triple, reused when
the same frontier is re-resolved (sustained query traffic repeats
frontiers; without the Link Index every repeat would re-derive the
identical plan).  Cached plans describe a table *version*: each plan is
keyed on the table's epoch, so advancing the epoch retires stale plans
— which would silently miss pairs involving freshly ingested rows —
without enumerating them.  When the executor serves an engine, the
engine's per-table epoch counter (``QueryEREngine.epoch_of``, bumped on
``register`` and every insert) is that version, passed in as
``epoch_source``; a standalone executor falls back to a private counter
advanced by :meth:`invalidate_table`.  :meth:`invalidate` drops the
whole cache when benchmark runs demand cold state.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.er.edge_pruning import BlockingGraph, WeightingScheme
from repro.er.matching import ProfileMatcher, ProfileSignature
from repro.er.util import LRUCache
from repro.parallel.config import ExecutionConfig
from repro.parallel.merger import DeterministicMerger
from repro.parallel.planner import PartitionPlanner
from repro.parallel.pool import WorkerPool
from repro.parallel.shards import ShardRuntime, ShardUnavailable
from repro.parallel.tasks import (
    MatchPayload,
    MatchTask,
    SpanPayload,
    SpanTask,
    run_match_task,
    run_span_task,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.indices import TableIndex


class _LazySignatures:
    """Mapping view over ``TableIndex.signature_of`` for serial fallbacks.

    Avoids materializing a signature dict when no worker will ever need
    a fork-shareable snapshot of it.
    """

    __slots__ = ("_signature_of",)

    def __init__(self, index: "TableIndex"):
        self._signature_of = index.signature_of

    def __getitem__(self, entity_id: Any) -> ProfileSignature:
        return self._signature_of(entity_id)


class ParallelComparisonExecutor:
    """Partition-and-merge execution of the ER hot path.

    One executor serves one engine for its whole lifetime; pools are
    created per invocation (a forked child snapshots its parent, and
    snapshots must not outlive the tables they mirror).

    *epoch_source* maps a lower-cased table name to its current epoch
    and is consulted on every plan-cache access; an engine passes its
    ``epoch_of`` so the engine's counter is the single source of truth.
    Without one (standalone executors, as in unit tests) a private
    fallback counter is kept, advanced by :meth:`invalidate_table`.
    """

    def __init__(
        self,
        config: Optional[ExecutionConfig] = None,
        epoch_source: Optional[Callable[[str], int]] = None,
        shard_state_source: Optional[Callable[[], Dict[str, Any]]] = None,
    ):
        self.config = config or ExecutionConfig()
        self.workers = self.config.resolved_workers()
        self.backend = self.config.resolved_backend()
        self.planner = PartitionPlanner(self.workers, self.config.partitions_per_worker)
        self._candidate_cache: Optional[LRUCache] = (
            LRUCache(self.config.candidate_cache_size)
            if self.config.candidate_cache_size > 0
            else None
        )
        self._epoch_source = epoch_source
        self._fallback_epochs: Dict[str, int] = {}
        # The persistent shard runtime replaces per-query pools when
        # configured; *shard_state_source* (the engine's registered
        # index/matcher map) is what a freshly forked worker keeps
        # resident.  Without a source (standalone executors) the pool
        # path serves every invocation.
        self._shards: Optional[ShardRuntime] = (
            ShardRuntime(
                self.workers,
                shard_state_source,
                epoch_source=self.epoch_of,
                task_timeout=self.config.task_timeout_s,
            )
            if shard_state_source is not None and self.config.resolved_shards()
            else None
        )
        #: Instrumentation: how invocations were scheduled.
        self.stats = {
            "parallel_match_runs": 0,
            "serial_match_runs": 0,
            "parallel_graph_builds": 0,
            "shard_match_runs": 0,
            "shard_graph_builds": 0,
            "candidate_cache_hits": 0,
            "candidate_cache_misses": 0,
        }

    # -- scheduling decisions -------------------------------------------
    @property
    def parallel(self) -> bool:
        return self.workers > 1 and self.backend != "serial"

    def _pool(self) -> WorkerPool:
        """A per-invocation pool carrying the config's recovery policy."""
        return WorkerPool(
            self.workers,
            self.backend,
            retries=self.config.task_retries,
            task_timeout=self.config.task_timeout_s,
        )

    def should_parallelize_pairs(self, pair_count: int) -> bool:
        return self.parallel and pair_count >= self.config.min_parallel_pairs

    def wants_parallel_spans(self, total_comparisons: int) -> bool:
        """Whether a postings-span graph build should use the pool."""
        return (
            self.parallel
            and self.config.parallel_graph
            and total_comparisons >= self.config.min_parallel_comparisons
        )

    # -- matching --------------------------------------------------------
    def match_pairs(
        self,
        index: "TableIndex",
        matcher: ProfileMatcher,
        pairs: Sequence[Tuple[Any, Any]],
    ) -> List[int]:
        """Matched positions of *pairs*, identical to the serial loop.

        Signatures are pre-built up front (workers never mutate the
        signature cache); the matcher handed to workers is a partition
        view sharing the lock-guarded memos but owning private cascade
        counters, which the merger folds back in partition order.
        """
        if not self.should_parallelize_pairs(len(pairs)):
            self.stats["serial_match_runs"] += 1
            return matcher.match_pair_indices(pairs, _LazySignatures(index))
        if self._shards is not None:
            # Persistent shard path: no signature pre-build, no payload
            # install, no fork — pairs route to the workers holding the
            # resident state.  An unavailable runtime (spawn failure)
            # falls through to the per-query pool below.
            try:
                matched = self._shards.match_pairs(
                    index.table.name.lower(), index, matcher, pairs
                )
            except ShardUnavailable:
                pass
            else:
                self.stats["parallel_match_runs"] += 1
                self.stats["shard_match_runs"] += 1
                return matched
        self.stats["parallel_match_runs"] += 1
        signatures = self._signature_map(index, pairs)
        partitions = self.planner.partition_pairs(len(pairs))
        view = matcher.partition_view()
        payload = MatchPayload(
            pairs, signatures, view, private_state=self.backend == "process"
        )
        tasks = [MatchTask(p.index, p.start, p.stop) for p in partitions]
        results = self._pool().run(
            run_match_task, tasks, payload
        )
        # The pool downgrades payload.private_state when a process run
        # fell back to threads mid-flight — re-read it, don't assume.
        private_state = payload.private_state
        matched = DeterministicMerger.merge_matches(
            results, matcher if private_state else None
        )
        if not private_state:
            # Threaded backend: counters accumulated in the shared view.
            for key, value in view.cascade_stats.items():
                matcher.cascade_stats[key] = matcher.cascade_stats.get(key, 0) + value
        return matched

    @staticmethod
    def _signature_map(
        index: "TableIndex", pairs: Sequence[Tuple[Any, Any]]
    ) -> Dict[Any, ProfileSignature]:
        signature_of = index.signature_of
        signatures: Dict[Any, ProfileSignature] = {}
        for left, right in pairs:
            if left not in signatures:
                signatures[left] = signature_of(left)
            if right not in signatures:
                signatures[right] = signature_of(right)
        return signatures

    # -- blocking graph --------------------------------------------------
    def build_span_graph(
        self,
        members: Any,
        indptr: Any,
        sizes: Any,
        universe: List[Any],
        scheme: WeightingScheme,
        in_focus: Optional[bytearray],
    ) -> BlockingGraph:
        """Packed graph from postings spans, sharded across the pool.

        The :class:`~repro.parallel.planner.PartitionPlanner` plans over
        the blocks' cardinality array, workers run
        :func:`~repro.er.edge_pruning.generate_span_segments` on their
        span, and the deterministic merge reassembles canonical block
        order — bit-identical to the serial span build.
        """
        self.stats["parallel_graph_builds"] += 1
        need_arcs = scheme is WeightingScheme.ARCS
        cardinalities = (sizes * (sizes - 1) // 2).tolist()
        partitions = self.planner.partition_costs(cardinalities)
        results = None
        if self._shards is not None:
            try:
                results = self._shards.run_spans(
                    members, indptr, len(universe), in_focus, need_arcs, partitions
                )
            except ShardUnavailable:
                results = None
            else:
                self.stats["shard_graph_builds"] += 1
        if results is None:
            payload = SpanPayload(members, indptr, len(universe), in_focus, need_arcs)
            tasks = [SpanTask(p.index, p.start, p.stop) for p in partitions]
            results = self._pool().run(
                run_span_task, tasks, payload
            )
        edge_keys, edge_stats, block_counts = DeterministicMerger.merge_span_segments(
            results, len(universe), need_arcs
        )
        return BlockingGraph(
            scheme, len(indptr) - 1, universe, block_counts,
            edge_keys, edge_stats,
        )

    # -- candidate-plan cache -------------------------------------------
    def cached_candidates(
        self, table_name: str, frontier: Set[Any], fingerprint: Any
    ) -> Optional[List[Tuple[Any, Any]]]:
        """The cached candidate-pair plan of a frontier, if still valid."""
        if self._candidate_cache is None:
            return None
        key = self._plan_key(table_name, frontier, fingerprint)
        plan = self._candidate_cache.get(key)
        if plan is None:
            self.stats["candidate_cache_misses"] += 1
        else:
            self.stats["candidate_cache_hits"] += 1
        return plan

    def store_candidates(
        self,
        table_name: str,
        frontier: Set[Any],
        fingerprint: Any,
        pairs: List[Tuple[Any, Any]],
    ) -> None:
        if self._candidate_cache is None:
            return
        self._candidate_cache.put(
            self._plan_key(table_name, frontier, fingerprint), pairs
        )

    def epoch_of(self, table_name: str) -> int:
        """The epoch a plan for *table_name* would be keyed on right now."""
        key = table_name.lower()
        if self._epoch_source is not None:
            return self._epoch_source(key)
        return self._fallback_epochs.get(key, 0)

    def _plan_key(self, table_name: str, frontier: Set[Any], fingerprint: Any):
        key = table_name.lower()
        # The frozen frontier participates directly (no digests): a plan
        # must never be served for a merely hash-equal frontier.
        return (key, self.epoch_of(key), fingerprint, frozenset(frontier))

    def invalidate_table(self, table_name: str) -> None:
        """Revoke every cached plan describing *table_name*.

        With an engine-provided ``epoch_source`` this is a no-op: the
        engine's epoch counter advances on register/insert, which
        retires stale partition plans — ones that would miss pairs
        involving the new records — by construction.  Standalone
        executors advance the private fallback counter instead.
        """
        if self._epoch_source is not None:
            return
        key = table_name.lower()
        self._fallback_epochs[key] = self._fallback_epochs.get(key, 0) + 1

    def invalidate(self) -> None:
        """Drop all cached per-partition state (cold-start contract)."""
        if self._candidate_cache is not None:
            self._candidate_cache.clear()

    # -- persistent shard runtime ----------------------------------------
    @property
    def shard_runtime(self) -> Optional[ShardRuntime]:
        """The persistent shard runtime, when configured (else ``None``)."""
        return self._shards

    def note_committed(self, table_name: str, epoch: int, index: Any, count: int) -> None:
        """Engine post-commit hook: ship the batch to resident shards."""
        if self._shards is not None:
            self._shards.publish_delta(table_name.lower(), index, epoch, count)

    def reset_shards(self) -> None:
        """Retire resident workers after a registration-shape change."""
        if self._shards is not None:
            self._shards.reset()

    def shard_status(self) -> Optional[Dict[str, Any]]:
        """The runtime's observability snapshot, or ``None`` when pooled."""
        return self._shards.status() if self._shards is not None else None

    def close(self) -> None:
        """Join and release every long-lived worker process (idempotent)."""
        if self._shards is not None:
            self._shards.close()
