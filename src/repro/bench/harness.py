"""Measurement harness shared by every benchmark module.

``run_query`` executes one workload query in one execution mode on an
engine and returns a flat :class:`Measurement` carrying the paper's
metrics: total time TT, executed comparisons, result size and the
per-stage time breakdown.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode
from repro.datagen.ground_truth import GroundTruth
from repro.parallel import ExecutionConfig
from repro.storage.table import Table


@dataclass
class Measurement:
    """One (query, mode) execution's metrics."""

    qid: str
    dataset: str
    mode: str
    total_time: float
    comparisons: int
    rows: int
    stage_times: Dict[str, float] = field(default_factory=dict)
    pair_completeness: Optional[float] = None

    def breakdown_percentages(self) -> Dict[str, float]:
        total = sum(self.stage_times.values())
        if total <= 0:
            return {}
        return {k: 100.0 * v / total for k, v in self.stage_times.items()}


def fresh_engine(
    tables: Iterable[Union[Table, Tuple[Table, GroundTruth]]],
    **engine_kwargs,
) -> QueryEREngine:
    """A new engine with *tables* registered.

    ``sample_stats`` defaults to False in benchmarks — load-time
    statistics are measured separately so per-query numbers stay clean.
    ``execution`` defaults to strictly serial: the paper-reproduction
    benchmarks assert stage shares and relative timings of the serial
    pipeline, which worker-pool scheduling overhead would distort
    (parallel scaling has its own harness,
    :mod:`repro.bench.parallel_scaling`); results are bit-identical
    either way.
    """
    engine_kwargs.setdefault("sample_stats", False)
    engine_kwargs.setdefault("execution", ExecutionConfig.serial())
    engine = QueryEREngine(**engine_kwargs)
    for item in tables:
        table = item[0] if isinstance(item, tuple) else item
        engine.register(table)
    return engine


def run_query(
    engine: QueryEREngine,
    qid: str,
    dataset: str,
    sql: str,
    mode: Union[ExecutionMode, str] = ExecutionMode.AES,
    reset_link_index: bool = True,
) -> Measurement:
    """Execute one query and package the paper's metrics.

    ``reset_link_index`` keeps runs independent (the default): it clears
    the Link Indexes *and* the matcher memo caches so no measurement
    inherits warm state.  The Fig 11 study passes False to measure
    progressive cleaning.
    """
    if reset_link_index:
        engine.clear_caches()
    # Engines of earlier measurements die as reference cycles; collect
    # them before the clock starts, so a full collection of their garbage
    # cannot land inside (and be billed to) one stage of this query.
    gc.collect()
    start = time.perf_counter()
    result = engine.execute(sql, mode)
    elapsed = time.perf_counter() - start
    mode_name = mode.value if isinstance(mode, ExecutionMode) else str(mode)
    return Measurement(
        qid=qid,
        dataset=dataset,
        mode=mode_name,
        total_time=elapsed,
        comparisons=result.comparisons,
        rows=len(result),
        stage_times=dict(result.stage_times),
    )


def run_series(
    engine: QueryEREngine,
    dataset: str,
    queries: Sequence,
    modes: Sequence[Union[ExecutionMode, str]],
    reset_link_index: bool = True,
) -> List[Measurement]:
    """Cartesian (query × mode) sweep returning flat measurements."""
    out: List[Measurement] = []
    for query in queries:
        for mode in modes:
            out.append(
                run_query(
                    engine,
                    query.qid,
                    dataset,
                    query.sql,
                    mode,
                    reset_link_index=reset_link_index,
                )
            )
    return out
