"""The Batch Approach (BA) baseline (paper §5).

BA deduplicates an *entire* collection offline — blocking over the whole
table, meta-blocking, exhaustive comparison execution — and only then
answers queries over the grouped result.  QueryER's problem statement is
defined against it: a Dedupe Query must return the same grouped entities
(DQ Correctness) in less time than full-ER-plus-query (DQ Performance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.dedup_operator import matched_pairs
from repro.core.indices import TableIndex
from repro.core.result import DedupResult
from repro.er.linkset import LinkSet
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.packed_blocking import derive_candidates
from repro.sql.physical import ExecutionContext

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.parallel.executor import ParallelComparisonExecutor


def batch_deduplicate(
    index: TableIndex,
    matcher: Optional[ProfileMatcher] = None,
    meta_blocking: Optional[MetaBlockingConfig] = None,
    context: Optional[ExecutionContext] = None,
    executor: Optional["ParallelComparisonExecutor"] = None,
) -> DedupResult:
    """Full offline ER over the whole collection behind *index*.

    The candidate pairs are the Deduplicate operator's, derived with the
    whole table as frontier; every one is compared once and counted in
    *context*, so BA's cost is measured with the same meter as
    QueryER's.  Returns a DR_E whose QE is the entire table.  With
    *executor*, graph construction and matching shard onto its worker
    pool — BA over a whole table is the subsystem's ideal workload —
    while the deterministic merge keeps the linkset bit-identical to a
    serial run.
    """
    context = context or ExecutionContext()
    matcher = matcher or ProfileMatcher(exclude=(index.table.schema.id_column,))
    meta_blocking = meta_blocking or MetaBlockingConfig.all()

    pairs = derive_candidates(
        index.postings,
        set(index.table.ids),
        meta_blocking,
        timed=context.timed,
        executor=executor,
    ).pairs

    links = LinkSet()
    with context.timed("resolution"):
        context.comparisons += len(pairs)
        for left, right in matched_pairs(index, matcher, pairs, executor):
            links.add(left, right)

    return DedupResult(index.table, index.table.ids, links=links)
