"""End-to-end QueryER benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload sp-cold --seed 1 --seconds 8 --trace 0

Each run generates the workload's tables and statements from ``--seed``,
then repeats *passes* until ``--seconds`` have been measured.  A pass
builds a fresh engine (timed as set-up) and runs the workload's fixed
statement sequence against the public surface: ``QueryEREngine.register``
and ``execute``, or ``EngineService.execute`` for ``served``.  After the
measured window, outside any timed region, every SELECT answer is
compared with a fresh serial engine registered with the same table state,
or, where it reuses links resolved for another query (and on ``served``),
with one replaying the same history (see :func:`check_answers`).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass, then traced passes, and prints the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A wrong
answer or a failed statement makes the command exit with code 1.  Spans,
roll-ups and the run context are written under ``e2ebench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import re
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The gated end-to-end metrics.  The run also prints ``pass_s`` and
#: ``qps`` with the latency summary; they are not gated because their
#: seed-to-seed spread on a 2-core VM with multi-minute speed phases was
#: 0.2–0.5 of the median, above the largest bound a metric may have.
END_TO_END = {
    "setup_s": "s",
    "comparisons": "count",
    "peak_rss_mb": "MB",
}

#: Extra set-ups timed before the first pass, so ``setup_s`` is a median
#: of several samples even when few passes fit in the window.
EXTRA_SETUPS = 6


@dataclass
class Sample:
    """One executed statement of one pass."""

    index: int
    kind: str
    sql: str
    latency: float
    comparisons: int = 0
    answer: Optional[str] = None
    #: (table, row count) pairs the answer describes; for ``served`` the
    #: epoch map until the pass ends, then resolved to row counts.
    state: Any = None
    failed: Optional[str] = None


@dataclass
class PassResult:
    seconds: float
    samples: List[Sample]
    refreshes: List[float] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: ``served``: the SQL the engine executed, in engine-gate order.
    log: List[str] = field(default_factory=list)


def canonical(rows: Sequence[Sequence[Any]]) -> str:
    """Digest of an answer's rows in ``QueryResult.sorted_rows`` order.

    A digest rather than the text, so the answers kept for the check do
    not add to the peak memory the run reports.
    """
    text = repr(sorted((tuple(r) for r in rows), key=lambda r: tuple(repr(v) for v in r)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def cgroup_cpu_max() -> str:
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return "absent"


# -- engines ------------------------------------------------------------------
class Harness:
    """Builds engines for one workload and runs its passes."""

    def __init__(self, workload):
        from repro.parallel import ExecutionConfig
        from repro.parallel.config import usable_cores

        self.workload = workload
        #: Set by :func:`measure` once the traced passes begin.
        self.tracer = None
        if workload.served:
            self.config = ExecutionConfig(
                workers=min(2, usable_cores()), persistent_shards=True
            )
        else:
            self.config = ExecutionConfig.serial()

    def setup(self):
        """Engine construction + ``register`` (+ service and shard spawn)."""
        from repro.core.engine import QueryEREngine
        from repro.serving import EngineService

        engine = QueryEREngine(execution=self.config)
        for table in self.workload.tables.values():
            engine.register(table.table())
        service = None
        if self.workload.served:
            service = EngineService(engine)
            executor = engine.parallel_executor
            runtime = executor.shard_runtime if executor is not None else None
            if runtime is not None:
                runtime.ensure_started()
        return engine, service

    def initial_state(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted((n, t.registered) for n, t in self.workload.tables.items()))

    # -- serial workloads ------------------------------------------------
    def serial_pass(self, engine) -> PassResult:
        counts = dict(self.initial_state())
        samples: List[Sample] = []
        refreshes: List[float] = []
        last_insert = 0.0
        start = time.perf_counter()
        for index, statement in enumerate(self.workload.clients[0]):
            if statement.kind == "cold" and self.workload.clears_caches:
                engine.clear_caches()
            sample = self._run(index, statement, engine.execute)
            sample.state = tuple(sorted(counts.items()))
            if statement.kind == "insert" and sample.failed is None:
                counts[statement.table] += len(statement.rows)
                last_insert = sample.latency
            if statement.kind == "refresh":
                refreshes.append(last_insert + sample.latency)
            samples.append(sample)
        return PassResult(time.perf_counter() - start, samples, refreshes)

    def _run(self, index: int, statement, execute) -> Sample:
        tracer = self.tracer
        entry = tracer.begin("bench.statement", index) if tracer else None
        begin = time.perf_counter()
        try:
            result = execute(statement.sql)
        except Exception as error:  # counted in failed_ratio, run continues
            return Sample(index, statement.kind, statement.sql,
                          time.perf_counter() - begin, failed=repr(error))
        finally:
            if entry is not None:
                tracer.end(entry)
        latency = time.perf_counter() - begin
        sample = Sample(index, statement.kind, statement.sql, latency)
        if statement.kind != "insert":
            sample.answer = canonical(result.rows)
            # A served cache hit or coalesced answer repeats the
            # comparisons of the execution it shares.
            if getattr(result, "cache", "miss") == "miss":
                sample.comparisons = result.comparisons
            sample.state = getattr(result, "epochs", None)
        return sample

    # -- served ----------------------------------------------------------
    def served_pass(self, engine, service) -> PassResult:
        # Only client 0 writes: epoch e of a table holds its registered
        # prefix plus one insert batch per epoch after the first.
        epoch_rows = {
            name: {engine.epoch_of(name): table.registered}
            for name, table in self.workload.tables.items()
        }
        per_client: List[List[Sample]] = [[] for _ in self.workload.clients]
        refreshes: List[float] = []
        # The service runs engine.execute under its gate, so appending
        # here records the executions in the order the gate admitted them.
        log: List[str] = []
        execute = engine.execute

        def logged(sql, *args, **kwargs):
            log.append(sql)
            return execute(sql, *args, **kwargs)

        engine.execute = logged

        def client(number: int) -> None:
            last_insert = 0.0
            statements = self.workload.clients[number]
            offset = 1000 * number
            for index, statement in enumerate(statements):
                sample = self._run(offset + index, statement, service.execute)
                if statement.kind == "insert" and sample.failed is None:
                    rows = epoch_rows[statement.table]
                    rows[max(rows) + 1] = rows[max(rows)] + len(statement.rows)
                    last_insert = sample.latency
                if statement.kind == "refresh":
                    refreshes.append(last_insert + sample.latency)
                per_client[number].append(sample)

        threads = [
            threading.Thread(target=client, args=(n,), daemon=True)
            for n in range(len(self.workload.clients))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
        seconds = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a served client did not finish within 150 s")
        samples = [s for client_samples in per_client for s in client_samples]
        for sample in samples:
            if isinstance(sample.state, dict):
                sample.state = tuple(sorted(
                    (name, rows[sample.state[name.lower()]]) for name, rows in epoch_rows.items()
                ))
        extra = self._served_counters(engine, service)
        return PassResult(seconds, samples, refreshes, extra, log)

    @staticmethod
    def _served_counters(engine, service) -> Dict[str, float]:
        counter = service.metrics.counter
        out = {
            "cache_hit": counter("cache_hit"),
            "cache_lookups": counter("cache_hit") + counter("cache_miss")
            + counter("cache_coalesced"),
            "coalesced": counter("cache_coalesced"),
            "refused": counter("rejected_overload") + counter("timeouts"),
        }
        executor = engine.parallel_executor
        status = executor.shard_status() if executor is not None else None
        if status:
            out["shard_tasks"] = sum(s.get("tasks", 0) for s in status["shards"])
            out["shard_delta_lag"] = sum(s.get("delta_lag", 0) for s in status["shards"])
            out["shard_respawns"] = status.get("respawns", 0)
        return out

    def run_pass(self, engine, service) -> PassResult:
        if self.workload.served:
            result = self.served_pass(engine, service)
        else:
            result = self.serial_pass(engine)
        result.extra.update(self._engine_counters(engine))
        return result

    def _engine_counters(self, engine) -> Dict[str, float]:
        out: Dict[str, float] = {}
        snapshot = engine.plan_cache.snapshot()
        out["plan_cache_hits"] = snapshot.get("hits", 0)
        out["plan_cache_lookups"] = snapshot.get("hits", 0) + snapshot.get("misses", 0)
        for name in self.workload.tables:
            stats = engine.matcher_for(engine.index_of(name)).cascade_stats
            for key, value in stats.items():
                out[f"cascade.{key}"] = out.get(f"cascade.{key}", 0) + value
        return out


def child_peak_rss_kb() -> int:
    """Summed peak RSS of live child processes (the ``served`` shards)."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


# -- measurement --------------------------------------------------------------
@dataclass
class RunRecord:
    setups: List[float] = field(default_factory=list)
    passes: List[PassResult] = field(default_factory=list)
    traced_passes: List[PassResult] = field(default_factory=list)
    child_rss_kb: int = 0
    #: Peak RSS of this process at the end of the measured window, before
    #: the answer check builds its own engines.
    peak_rss_kb: int = 0


def measure(harness: Harness, seconds: float, trace: bool, tracer) -> RunRecord:
    record = RunRecord()

    def one_setup():
        begin = time.perf_counter()
        engine, service = harness.setup()
        record.setups.append(time.perf_counter() - begin)
        return engine, service

    # Dead engines hold reference cycles; collecting them between passes
    # (outside every timed region) keeps the peak RSS independent of how
    # many passes fit in the window, and starts each pass on a clean heap.
    for _ in range(EXTRA_SETUPS):
        engine, _service = one_setup()
        engine.close()
        gc.collect()

    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and bool(record.passes)
        if traced and tracer is not None and not harness.tracer:
            tracer.install()
            harness.tracer = tracer
        engine, service = one_setup()
        try:
            result = harness.run_pass(engine, service)
            record.child_rss_kb = max(record.child_rss_kb, child_peak_rss_kb())
        finally:
            engine.close()
        engine = service = None
        gc.collect()
        (record.traced_passes if traced else record.passes).append(result)
        now = time.perf_counter()
        done = record.traced_passes if trace else record.passes
        if now >= deadline and len(done) >= 1:
            break
    record.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        harness.tracer = None
    return record


# -- correctness --------------------------------------------------------------
def _fresh_engine(workload, state):
    from repro.core.engine import QueryEREngine
    from repro.parallel import ExecutionConfig

    engine = QueryEREngine(execution=ExecutionConfig.serial())
    for name, count in state:
        engine.register(workload.tables[name].table(count))
    return engine


def _referenced(state, sql: str) -> Tuple[Tuple[str, int], ...]:
    """The part of table *state* that statement *sql* reads."""
    return tuple((name, count) for name, count in state if re.search(rf"\b{name}\b", sql))


def fresh_answers(workload, keys) -> Dict[Tuple[Any, str], str]:
    """Answers of fresh serial engines, one per table state, each asked
    every query of *keys* (``(state, sql)`` pairs) from cleared caches.
    An engine registers only the tables its queries read."""
    needed: Dict[Any, set] = {}
    for state, sql in keys:
        needed.setdefault(_referenced(state, sql), set()).add(sql)
    answers: Dict[Tuple[Any, str], str] = {}
    for state, sqls in needed.items():
        engine = _fresh_engine(workload, state)
        for sql in sorted(sqls):
            engine.clear_caches()
            answers[(state, sql)] = canonical(engine.execute(sql).rows)
        engine.close()
    return answers


def replay(workload, initial_state, log: Sequence[Optional[str]]) -> List[Tuple[Any, str, str]]:
    """(table state, sql, answer) of every SELECT a fresh serial engine
    gives when it executes *log* in order (``None`` is ``clear_caches()``)."""
    from repro.sql import ast
    from repro.sql.parser import parse

    engine = _fresh_engine(workload, initial_state)
    counts = dict(initial_state)
    answers: List[Tuple[Any, str, str]] = []
    for sql in log:
        if sql is None:
            engine.clear_caches()
            continue
        result = engine.execute(sql)
        statement = parse(sql)
        if isinstance(statement, ast.InsertStatement):
            counts[statement.table] = counts[statement.table] + len(statement.rows)
            continue
        answers.append((tuple(sorted(counts.items())), sql, canonical(result.rows)))
    engine.close()
    return answers


def check_answers(workload, harness, passes: Sequence[PassResult], inject_wrong: bool,
                  count_fresh: bool) -> Tuple[int, Optional[int]]:
    """Gate every answer; returns (wrong answers, fresh mismatches).

    *Fresh mismatches* are answers that differ from a fresh serial engine
    registered with the same table state and asked only that query (the
    repository's live ≡ fresh contract).  On ``sp-cold`` and ``spj-cold``
    every answer, and on ``progressive-ingest`` the first range and every
    refresh after an insert (``Statement.fresh_gate``), must equal the
    fresh one, so an error in the insert path, the Link Index or the
    matcher that repeats on every run still fails.

    Under the default meta-blocking (ALL) an answer given from Link-Index
    links resolved for another query's range depends on that history,
    and live ≡ fresh was measured not to hold for it: the later ranges
    and warm replays of ``progressive-ingest``, and ``served``.  Those
    answers must equal a fresh serial engine replaying the same history:
    the serial statement list, or the executions in the order the
    service's engine gate admitted them (a cache hit is checked against
    the execution that filled its entry).  Fresh mismatches are counted
    in every serial run and in traced ``served`` runs (*count_fresh*).
    """
    samples = [(p, s) for p in passes for s in p.samples if s.answer is not None]

    def fresh_gated(sample: Sample) -> bool:
        return not workload.served and workload.statement_at(sample.index).fresh_gate

    fresh: Dict[Tuple[Any, str], str] = {}
    if not workload.served or count_fresh:
        fresh = fresh_answers(workload, {(s.state, s.sql) for _, s in samples})

    def fresh_of(sample: Sample) -> str:
        return fresh[(_referenced(sample.state, sample.sql), sample.sql)]

    initial = harness.initial_state()
    replayed: Dict[Any, str] = {}
    if workload.served:
        # Keyed by pass and (state, sql).
        for result in passes:
            for state, sql, answer in replay(workload, initial, result.log):
                replayed[(id(result), state, sql)] = answer
    elif not all(fresh_gated(s) for _, s in samples):
        # Every serial pass runs the same history: keyed by statement index.
        log: List[Optional[str]] = []
        selects: List[int] = []
        for index, statement in enumerate(workload.clients[0]):
            if statement.kind == "cold" and workload.clears_caches:
                log.append(None)
            log.append(statement.sql)
            if statement.kind != "insert":
                selects.append(index)
        answers = replay(workload, initial, log)
        replayed = {index: answer for index, (_, _, answer) in zip(selects, answers)}

    wrong = 0
    for position, (result, sample) in enumerate(samples):
        if fresh_gated(sample):
            expected = fresh_of(sample)
        elif workload.served:
            expected = replayed.get((id(result), sample.state, sample.sql))
        else:
            expected = replayed[sample.index]
        answer = sample.answer
        if inject_wrong and position == 0:
            answer = "corrupted " + answer  # test hook: one wrong answer
        if answer != expected:
            wrong += 1
    if not fresh:
        return wrong, None
    return wrong, sum(1 for _, s in samples if s.answer != fresh_of(s))


# -- metrics ------------------------------------------------------------------
def end_to_end(record: RunRecord, passes: Sequence[PassResult]) -> Dict[str, float]:
    """Medians over the passes of one run (set-up: over every set-up)."""
    peak_kb = record.peak_rss_kb + record.child_rss_kb
    return {
        "setup_s": statistics.median(record.setups),
        "pass_s": statistics.median(p.seconds for p in passes),
        "qps": statistics.median(len(p.samples) / p.seconds for p in passes),
        "comparisons": statistics.median(
            sum(s.comparisons for s in p.samples) for p in passes
        ),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def latency_summary(passes: Sequence[PassResult]) -> Dict[str, Any]:
    """Median latency per statement kind and over all statements, with p90
    and sample counts (printed and written out, not gated)."""
    samples = [s for p in passes for s in p.samples if s.failed is None]
    out: Dict[str, Any] = {}
    for kind in ("cold", "warm", "insert", "refresh"):
        values = [s.latency for s in samples if s.kind == kind]
        if kind == "refresh":  # counted from sending the insert
            values = [r for p in passes for r in p.refreshes]
        if not values:
            continue
        out[f"{kind}_p50_ms"] = round(1000.0 * percentile(values, 50), 3)
        out[f"{kind}_samples"] = len(values)
    values = [s.latency for s in samples]
    p90 = percentile(values, 90)
    out.update({
        "p50_ms": round(1000.0 * percentile(values, 50), 3),
        "p90_ms": round(1000.0 * p90, 3),
        "samples": len(values),
        "beyond_p90": sum(1 for v in values if v > p90),
    })
    return out


def per_layer(tracer, traced: Sequence[PassResult], untraced: Sequence[PassResult],
              degradations: int) -> Dict[str, Tuple[float, str]]:
    n = len(traced)
    counters = tracer.counters
    leaves = tracer.leaves
    layers = tracer.layers()

    def per_pass(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def span_ms(name: str) -> float:
        return per_pass(1000.0 * tracer.span_seconds(name)[1])

    def extra(key: str) -> float:
        return sum(p.extra.get(key, 0) for p in traced)

    pass_seconds = sum(p.seconds for p in traced)
    metrics: Dict[str, Tuple[float, str]] = {}
    for stage in ("block-join", "meta-blocking", "resolution", "group", "other"):
        metrics[f"core.stage.{stage}.s"] = (per_pass(counters.get(f"core.stage.{stage}.s", 0.0)), "s")
    match_calls, match_s, _ = leaves.get("er.match", (0, 0.0, 0.0))
    cascade_pairs = extra("cascade.pairs")
    metrics.update({
        "er.match.ms": (per_pass(1000.0 * match_s), "ms"),
        "er.match.pairs": (per_pass(match_calls), "count"),
        "er.match.accept_ratio": (ratio(counters.get("er.match.accepted", 0), match_calls), "ratio"),
        "er.cascade.jaccard_accept_share": (ratio(extra("cascade.jaccard_accepts"), cascade_pairs), "ratio"),
        "er.cascade.bound_reject_share": (ratio(extra("cascade.bound_rejects"), cascade_pairs), "ratio"),
        "er.cascade.exact_share": (ratio(extra("cascade.exact_fallbacks"), cascade_pairs), "ratio"),
        "er.derive.ms": (span_ms("er.derive"), "ms"),
        "er.block_purging.ms": (span_ms("er.block_purging"), "ms"),
        "er.block_filtering.ms": (span_ms("er.block_filtering"), "ms"),
        "er.edge_pruning.ms": (span_ms("er.edge_pruning"), "ms"),
        "er.meta_blocking.keep_ratio": (ratio(counters.get("er.meta_blocking.after", 0),
                                              counters.get("er.meta_blocking.before", 0)), "ratio"),
    })
    merge_calls = leaves.get("core.group.merge", (0, 0.0, 0.0))[0]
    cluster_calls, cluster_s, _ = leaves.get("er.linkset.cluster_of", (0, 0.0, 0.0))
    dedup_calls, dedup_s = tracer.span_seconds("core.dedup")
    metrics.update({
        "core.group.values_in": (per_pass(counters.get("core.group.values_in", 0)), "count"),
        "core.group.yield": (ratio(merge_calls, counters.get("core.group.values_in", 0)), "ratio"),
        "er.linkset.cluster_of.calls": (per_pass(cluster_calls), "count"),
        "er.linkset.cluster_of.ms": (per_pass(1000.0 * cluster_s), "ms"),
        "core.dedup.ms": (per_pass(1000.0 * dedup_s), "ms"),
        "core.dedup.calls": (per_pass(dedup_calls), "count"),
        "core.link_index.hit_ratio": (ratio(counters.get("core.link_index.returned", 0),
                                            counters.get("core.link_index.asked", 0)), "ratio"),
        "incremental.append.ms": (span_ms("incremental.append"), "ms"),
        "core.indices.add_records.ms": (span_ms("core.indices.add_records"), "ms"),
        "incremental.unresolved_entities": (per_pass(counters.get("incremental.unresolved_entities", 0)), "count"),
        "sql.parse.ms": (span_ms("sql.parse"), "ms"),
        "optimizer.plan.ms": (span_ms("optimizer.plan"), "ms"),
        "optimizer.plan_cache.hit_ratio": (ratio(extra("plan_cache_hits"), extra("plan_cache_lookups")), "ratio"),
    })
    match_pairs_calls, match_pairs_s = tracer.span_seconds("parallel.match_pairs")
    span_graph_calls, span_graph_s = tracer.span_seconds("parallel.span_graph")
    served_latency = sum(s.latency for p in traced for s in p.samples)
    execute_s = tracer.span_seconds("core.execute")[1]
    served = any(p.extra.get("cache_lookups") for p in traced)
    metrics.update({
        "parallel.match_pairs.calls": (per_pass(match_pairs_calls), "count"),
        "parallel.match_pairs.share": (ratio(match_pairs_s, pass_seconds), "ratio"),
        "parallel.span_graph.calls": (per_pass(span_graph_calls), "count"),
        "parallel.span_graph.share": (ratio(span_graph_s, pass_seconds), "ratio"),
        "parallel.shard.tasks": (per_pass(extra("shard_tasks")), "count"),
        "parallel.shard.delta_lag": (per_pass(extra("shard_delta_lag")), "count"),
        "parallel.shard.respawns": (per_pass(extra("shard_respawns")), "count"),
        "serving.cache.hit_ratio": (ratio(extra("cache_hit"), extra("cache_lookups")), "ratio"),
        "serving.coalesced": (per_pass(extra("coalesced")), "count"),
        "serving.refused": (per_pass(extra("refused")), "count"),
        "serving.gate_wait.share": (
            ratio(served_latency - execute_s, served_latency) if served else 0.0, "ratio"),
        "resilience.degradations": (float(degradations), "count"),
    })
    for layer in ("sql", "optimizer", "core", "er", "incremental"):
        seconds = layers.get(layer, {}).get("self_s", 0.0)
        metrics[f"self.{layer}.ms"] = (per_pass(1000.0 * seconds), "ms")
    traced_pass = statistics.median(p.seconds for p in traced)
    untraced_pass = statistics.median(p.seconds for p in untraced)
    metrics["trace.overhead"] = (traced_pass / untraced_pass, "ratio")
    return metrics


def stage_split(workload, tracer, passes: int) -> Dict[str, Dict[str, float]]:
    """Core stage seconds per traced pass of each workload query
    (``Statement.label``), with each stage's share of that query's
    stage time."""
    totals: Dict[str, Dict[str, float]] = {}
    for statement, stages in tracer.statement_stages.items():
        label = workload.statement_at(statement).label if statement is not None else "other"
        into = totals.setdefault(label, {})
        for stage, seconds in stages.items():
            into[stage] = into.get(stage, 0.0) + seconds
    out: Dict[str, Dict[str, float]] = {}
    for label, stages in sorted(totals.items()):
        total = sum(stages.values())
        out[label] = {"s": round(total / passes, 4)}
        out[label].update({stage: round(seconds / total, 3) if total else 0.0
                           for stage, seconds in sorted(stages.items())})
    return out


# -- main ---------------------------------------------------------------------
def run_context(workload, harness: Harness) -> Dict[str, Any]:
    import numpy

    from repro.parallel.config import usable_cores

    return {
        "workload": workload.name,
        "seed": workload.seed,
        "table_rows": workload.sizes(),
        "insert_rows": {n: len(t.rows) - t.registered for n, t in workload.tables.items()},
        "statements": workload.statement_counts(),
        "clients": len(workload.clients),
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "cgroup_cpu_max": cgroup_cpu_max(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": harness.config.resolved_workers(),
        "shards": harness.config.resolved_workers() if harness.config.resolved_shards() else 0,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="table-size multiplier (the benchmark's own tests use < 1)")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt one answer before the check (tests the gate)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from repro.resilience import DEGRADATION
    from workloads import build
    from tracing import Tracer

    workload = build(args.workload, args.seed, args.scale)
    tracer = Tracer() if args.trace else None
    harness = Harness(workload)
    context = run_context(workload, harness)
    degraded_before = sum(DEGRADATION.layer_counts().values())

    record = measure(harness, args.seconds, bool(args.trace), tracer)
    degradations = sum(DEGRADATION.layer_counts().values()) - degraded_before

    checked = record.passes + record.traced_passes
    wrong, fresh_mismatches = check_answers(workload, harness, checked,
                                            args.inject_wrong_answer, bool(args.trace))
    attempted = sum(len(p.samples) for p in checked)
    failures = [s for p in checked for s in p.samples if s.failed is not None]
    traced_equal = True
    if args.trace and not workload.served:
        # Every serial pass runs the same history, so the traced answers
        # must equal the untraced ones position by position.  Served
        # passes interleave differently; each is gated by its replay.
        untraced = [s.answer for s in record.passes[0].samples]
        traced_equal = all(
            [s.answer for s in p.samples] == untraced for p in record.traced_passes
        )
    context.update({
        "passes": len(record.passes),
        "traced_passes": len(record.traced_passes),
        "setups": len(record.setups),
        "wrong_answers": wrong,
        "failed_ratio": len(failures) / attempted,
        "select_samples": sum(1 for p in checked for s in p.samples if s.answer is not None),
        "latency": latency_summary(record.passes),
    })
    if fresh_mismatches is not None:
        context["fresh_mismatches"] = fresh_mismatches
    if args.trace:
        metrics = per_layer(tracer, record.traced_passes, record.passes, degradations)
        context["traced_answers_equal_untraced"] = traced_equal
        context["stage_split"] = stage_split(workload, tracer, len(record.traced_passes))
    else:
        values = end_to_end(record, record.passes)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        context["timing"] = {"pass_s": values["pass_s"], "qps": values["qps"]}

    OUT.mkdir(exist_ok=True)
    stem = f"{'trace' if args.trace else 'run'}-{args.workload}-{args.seed}"
    report = {"context": context, "metrics": {k: v for k, (v, _) in metrics.items()}}
    if args.trace:
        report["trace"] = tracer.export()
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))

    for key, value in context.items():
        print(f"# {key}: {value}")
    for failure in failures[:5]:
        print(f"# failed: {failure.kind} {failure.sql[:80]!r}: {failure.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = wrong == 0 and not failures and traced_equal
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures) + wrong,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
