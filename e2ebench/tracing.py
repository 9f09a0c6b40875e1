"""Span recording around the engine's public layer functions.

The traced run installs wrappers from this file only; no module of the
program changes.  Each wrapper replaces a name *where it is looked up*:
a function imported into another module is patched in that module, a
method on its class.

Two kinds of wrapper:

* **span** — one record (id, name, start, end, parent id, statement id)
  per call, kept in memory and written out when the run ends.  Used for
  calls made a few times per statement.
* **leaf** — per-name call count and seconds only.  Used for calls made
  once per candidate pair or per cluster (matching, ``cluster_of``,
  ``merge_values``), where a record per call would dominate the run.

A layer is the first component of a name (``er.match`` → ``er``).  A
span's self time is its duration minus the time of the spans and leaf
calls nested in it.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.dedup_operator as dedup_operator_module
import repro.core.engine as engine_module
import repro.core.planner as planner_module
import repro.er.packed_blocking as packed_module
import repro.serving.service as service_module
from repro.core.dedup_operator import DeduplicateOperator
from repro.core.engine import QueryEREngine
from repro.core.indices import LinkIndex, TableIndex
from repro.er.edge_pruning import BlockingGraph
from repro.er.linkset import LinkSet
from repro.er.matching import ProfileMatcher
from repro.incremental.maintainer import IndexMaintainer
from repro.optimizer.optimizer import QueryOptimizer
from repro.parallel.executor import ParallelComparisonExecutor

_clock = time.perf_counter


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory spans, leaf aggregates and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: statement id -> stage -> seconds (``QueryResult.stage_times``)
        self.statement_stages: Dict[Any, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # name -> [calls, seconds, seconds not nested in the same layer]
        self.leaves: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- context ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, statement: Any) -> list:
        """Open a root-level span for one statement of the workload;
        :meth:`end` closes it."""
        self._local.statement = statement
        return self._open(name)

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        # [id, name, start, end, parent id, statement, nested seconds, parent layer]
        entry = [
            next(self._ids), name, _clock(), 0.0,
            parent[0] if parent else None,
            getattr(self._local, "statement", None), 0.0,
            layer_of(parent[1]) if parent else None,
        ]
        stack.append(entry)
        return entry

    def end(self, entry: list) -> None:
        entry[3] = _clock()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][6] += entry[3] - entry[2]
        self.spans.append(entry)

    # -- wrappers --------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[[Any, tuple], None]] = None) -> None:
        function = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            entry = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(entry)
            if after is not None:
                after(result, args)
            return result

        self._patch(owner, attr, wrapper)

    def leaf(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[[Any, tuple], None]] = None) -> None:
        function = getattr(owner, attr)
        tracer = self
        layer = layer_of(name)

        def wrapper(*args, **kwargs):
            start = _clock()
            result = function(*args, **kwargs)
            seconds = _clock() - start
            stack = tracer._stack()
            outer = True
            if stack:
                stack[-1][6] += seconds
                outer = layer_of(stack[-1][1]) != layer
            with tracer._lock:
                totals = tracer.leaves[name]
                totals[0] += 1
                totals[1] += seconds
                if outer:
                    totals[2] += seconds
                if after is not None:
                    after(result, args)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer function the per-layer metrics read."""
        add = self.counters

        def on_execute(result, args):
            statement = getattr(self._local, "statement", None)
            for stage, seconds in getattr(result, "stage_times", {}).items():
                with self._lock:
                    add[f"core.stage.{stage}.s"] += seconds
                    self.statement_stages[statement][stage] += seconds

        def on_derive(result, args):
            with self._lock:
                add["er.meta_blocking.before"] += result.comparisons_before
                add["er.meta_blocking.after"] += result.comparisons_after

        def on_append(result, args):
            with self._lock:
                add["incremental.unresolved_entities"] += result.invalidated

        # Leaf callbacks already run under the tracer lock.
        def on_match(result, args):
            add["er.match.accepted"] += bool(result)

        def on_merge(result, args):
            add["core.group.values_in"] += len(args[0])

        def on_resolved(result, args):
            add["core.link_index.returned"] += len(result)
            asked = args[1]
            add["core.link_index.asked"] += len(asked) if hasattr(asked, "__len__") else 0

        self.span(QueryEREngine, "execute", "core.execute", on_execute)
        self.span(engine_module, "parse", "sql.parse")
        self.span(service_module, "parse", "sql.parse")
        self.span(QueryOptimizer, "optimize_dedup", "optimizer.plan")
        self.span(DeduplicateOperator, "deduplicate", "core.dedup")
        self.span(dedup_operator_module, "derive_candidates", "er.derive", on_derive)
        self.span(packed_module, "purge_threshold_from_sizes", "er.block_purging")
        self.span(packed_module, "retained_assignment_mask", "er.block_filtering")
        self.span(packed_module, "_span_graph", "er.edge_pruning")
        self.span(BlockingGraph, "average_weight", "er.edge_pruning")
        self.span(BlockingGraph, "retained_key_array", "er.edge_pruning")
        self.span(IndexMaintainer, "append", "incremental.append", on_append)
        self.span(TableIndex, "add_records", "core.indices.add_records")
        self.span(ParallelComparisonExecutor, "match_pairs", "parallel.match_pairs")
        self.span(ParallelComparisonExecutor, "build_span_graph", "parallel.span_graph")
        self.leaf(ProfileMatcher, "match_signatures", "er.match", on_match)
        self.leaf(planner_module, "merge_values", "core.group.merge", on_merge)
        self.leaf(LinkSet, "cluster_of", "er.linkset.cluster_of")
        self.leaf(LinkIndex, "resolved_subset", "core.link_index.resolved_subset",
                  on_resolved)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- roll-ups --------------------------------------------------------
    def span_seconds(self, name: str) -> Tuple[int, float]:
        """Calls and seconds of span *name*; a call nested in another
        call of the same name adds to the count only."""
        names = {entry[0]: entry[1] for entry in self.spans}
        calls, seconds = 0, 0.0
        for entry in self.spans:
            if entry[1] == name:
                calls += 1
                if names.get(entry[4]) != name:
                    seconds += entry[3] - entry[2]
        return calls, seconds

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per-layer total and self seconds.

        A layer's total counts a span only when its parent belongs to
        another layer, so nested calls of one layer are not added twice.
        """
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0})
        for entry in self.spans:
            layer = layer_of(entry[1])
            duration = entry[3] - entry[2]
            out[layer]["self_s"] += duration - entry[6]
            if entry[7] != layer:
                out[layer]["total_s"] += duration
        for name, (calls, seconds, outer) in self.leaves.items():
            layer = layer_of(name)
            out[layer]["self_s"] += seconds
            out[layer]["total_s"] += outer
        return {layer: dict(values) for layer, values in out.items()}

    def export(self) -> Dict[str, Any]:
        origin = min((entry[2] for entry in self.spans), default=0.0)
        return {
            "spans": [
                {
                    "id": e[0], "name": e[1], "parent": e[4], "statement": e[5],
                    "start_ms": round(1000 * (e[2] - origin), 4),
                    "end_ms": round(1000 * (e[3] - origin), 4),
                    "self_ms": round(1000 * (e[3] - e[2] - e[6]), 4),
                }
                for e in self.spans
            ],
            "leaves": {
                name: {"calls": int(calls), "seconds": seconds}
                for name, (calls, seconds, _) in self.leaves.items()
            },
            "counters": dict(self.counters),
            "statement_stages": {str(k): dict(v) for k, v in self.statement_stages.items()},
            "layers": self.layers(),
        }
