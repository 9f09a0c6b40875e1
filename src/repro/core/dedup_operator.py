"""The Deduplicate operator (paper §6.1).

Encapsulates the strict ER pipeline — Query Blocking → Block-Join →
Meta-Blocking → Comparison-Execution — as a single relational operator:
input a set of evaluated entities QE ⊆ E, output its super-set DR_E
(QE ∪ duplicates, plus the linkset).

Two refinements beyond the pseudocode, both paper-faithful:

* Entities already *resolved* in the Link Index are skipped entirely;
  their duplicates come straight from LI (§6.1: LI "is crucial to the
  efficiency of our approach").
* When ``transitive`` is on (default), newly discovered duplicates are
  fed back as a new frontier until a fixpoint, so the clusters DR_E
  carries equal the Batch Approach's clusters — the DQ-Correctness
  guarantee of §5/§6.1 made operational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Set, Tuple

from repro.core.indices import TableIndex
from repro.core.result import DedupResult
from repro.er.linkset import LinkSet
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.packed_blocking import PackedCandidates, derive_candidates
from repro.sql.physical import ExecutionContext

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.parallel.executor import ParallelComparisonExecutor


@dataclass
class DedupStats:
    """Instrumentation of one Deduplicate invocation."""

    frontier_size: int = 0
    skipped_resolved: int = 0
    qbi_blocks: int = 0
    eqbi_blocks: int = 0
    eqbi_comparisons_before: int = 0
    eqbi_comparisons_after: int = 0
    executed_comparisons: int = 0
    matches_found: int = 0
    rounds: int = 0
    candidate_pairs: List[Tuple[Any, Any]] = field(default_factory=list)

    def record(self, derived: PackedCandidates) -> None:
        """Fold one frontier's candidate derivation into the stats."""
        self.qbi_blocks = max(self.qbi_blocks, derived.qbi_blocks)
        self.eqbi_blocks = max(self.eqbi_blocks, derived.eqbi_blocks)
        self.eqbi_comparisons_before += derived.comparisons_before
        self.eqbi_comparisons_after += derived.comparisons_after


def matched_pairs(
    index: TableIndex,
    matcher: ProfileMatcher,
    pairs: List[Tuple[Any, Any]],
    executor: Optional["ParallelComparisonExecutor"] = None,
) -> List[Tuple[Any, Any]]:
    """The pairs of *pairs* that *matcher* accepts, in list order.

    Above the executor's threshold the list is sharded across its worker
    pool; each decision is a pure function of the two signatures, so the
    merged result equals the serial one.
    """
    if executor is not None and executor.should_parallelize_pairs(len(pairs)):
        return [pairs[position] for position in executor.match_pairs(index, matcher, pairs)]
    signature_of = index.signature_of
    match = matcher.match_signatures
    return [
        (left, right) for left, right in pairs
        if match(signature_of(left), signature_of(right))
    ]


class DeduplicateOperator:
    """Finds, within E, the duplicates of a query-evaluated subset QE.

    Parameters
    ----------
    index:
        The per-table :class:`~repro.core.indices.TableIndex` (TBI/ITBI/LI).
    matcher:
        Schema-agnostic profile matcher used by Comparison-Execution.
    meta_blocking:
        Which meta-blocking stages run (Table 8's ALL / BP+BF / BP+EP).
    use_link_index:
        When False the LI is neither consulted nor amended (the paper's
        "Without LI" configuration, Fig 11).
    transitive:
        Feed newly found duplicates back as a new frontier (see module
        docstring).
    executor:
        Optional :class:`~repro.parallel.executor.ParallelComparisonExecutor`:
        blocking-graph construction and pair matching above its
        configured thresholds run partitioned on its worker pool, with a
        deterministic merge keeping results bit-identical to serial.  It
        also serves/stores cached candidate plans for repeated frontiers.
    """

    def __init__(
        self,
        index: TableIndex,
        matcher: Optional[ProfileMatcher] = None,
        meta_blocking: Optional[MetaBlockingConfig] = None,
        use_link_index: bool = True,
        transitive: bool = True,
        collect_candidates: bool = False,
        executor: Optional["ParallelComparisonExecutor"] = None,
    ):
        self.index = index
        self.matcher = matcher or ProfileMatcher(exclude=(index.table.schema.id_column,))
        self.meta_blocking = meta_blocking or MetaBlockingConfig.all()
        self.use_link_index = use_link_index
        self.transitive = transitive
        self.collect_candidates = collect_candidates
        self.executor = executor

    # -- public API ------------------------------------------------------
    def deduplicate(
        self,
        query_ids: Iterable[Any],
        context: Optional[ExecutionContext] = None,
        stats: Optional[DedupStats] = None,
    ) -> DedupResult:
        """Run the full operator pipeline for the evaluated set *query_ids*.

        The Link Index is amended once, after the last round: a query
        that fails part-way leaves it exactly as it found it.
        """
        context = context or ExecutionContext()
        stats = stats or DedupStats()
        query_set: Set[Any] = set(query_ids)
        links = LinkSet()
        link_index = self.index.link_index

        # Entities a previous query resolved: read their links from LI.
        if self.use_link_index:
            resolved = link_index.resolved_subset(query_set)
            stats.skipped_resolved = len(resolved)
            for entity_id in resolved:
                for dup in link_index.cluster_of(entity_id):
                    if dup != entity_id:
                        links.add(entity_id, dup)
        else:
            resolved = set()

        frontier = query_set - resolved
        stats.frontier_size = len(frontier)
        compared: Set[Tuple[Any, Any]] = set()
        processed: Set[Any] = set(resolved)

        while frontier:
            stats.rounds += 1
            newly_found = self._resolve_frontier(frontier, links, compared, context, stats)
            processed.update(frontier)
            if not self.transitive:
                break
            # Newly discovered duplicates become the next frontier —
            # except those already processed or resolved in LI (whose
            # clusters we already pulled in).
            next_frontier = set()
            for entity_id in newly_found:
                if entity_id in processed:
                    continue
                if self.use_link_index and link_index.is_resolved(entity_id):
                    for dup in link_index.cluster_of(entity_id):
                        if dup != entity_id:
                            links.add(entity_id, dup)
                    processed.add(entity_id)
                    continue
                next_frontier.add(entity_id)
            frontier = next_frontier

        if self.use_link_index:
            link_index.mark_resolved(processed)
            link_index.add_links(links)

        duplicate_ids = (links.entities() | self._closure(links, query_set)) - query_set
        return DedupResult(self.index.table, query_set, duplicate_ids, links)

    # -- pipeline stages ------------------------------------------------------
    def _resolve_frontier(
        self,
        frontier: Set[Any],
        links: LinkSet,
        compared: Set[Tuple[Any, Any]],
        context: ExecutionContext,
        stats: DedupStats,
    ) -> Set[Any]:
        """One pipeline pass over *frontier*; returns newly linked ids."""
        pairs = self._candidate_pairs(frontier, compared, context, stats)

        # (iv) Comparison-Execution — QE-side pairs only, each pair once.
        # Pairs are compared through cached profile signatures (interned
        # token arrays + normalized strings) so the matcher's cascade can
        # short-circuit; decisions stay bit-identical to the raw
        # attribute path.
        newly_found: Set[Any] = set()
        with context.timed("resolution"):
            if self.collect_candidates:
                stats.candidate_pairs.extend(pairs)
            context.comparisons += len(pairs)
            stats.executed_comparisons += len(pairs)
            for left, right in matched_pairs(self.index, self.matcher, pairs, self.executor):
                links.add(left, right)
                stats.matches_found += 1
                newly_found.add(left)
                newly_found.add(right)
        return newly_found

    def _candidate_pairs(
        self,
        frontier: Set[Any],
        compared: Set[Tuple[Any, Any]],
        context: ExecutionContext,
        stats: DedupStats,
    ) -> List[Tuple[Any, Any]]:
        """The frontier's canonical candidate-pair list, not yet compared.

        Stages (i)–(iii) of the pipeline, derived from the table's CSR
        token postings.  The pre-``compared`` plan — a pure function of
        (table version, frontier, meta-blocking configuration) — is
        served from the executor's candidate-plan cache when the same
        frontier repeats; the engine invalidates that cache on every
        append, so a plan can never miss pairs involving freshly
        ingested rows.  On a cache hit the block-join and meta-blocking
        stages are skipped entirely (their stats counters then record
        only the plan-building pass).
        """
        executor = self.executor
        table_name = self.index.table.name
        raw: Optional[List[Tuple[Any, Any]]] = None
        if executor is not None:
            raw = executor.cached_candidates(table_name, frontier, self.meta_blocking)
        if raw is None:
            derived = derive_candidates(
                self.index.postings,
                frontier,
                self.meta_blocking,
                timed=context.timed,
                executor=executor,
            )
            stats.record(derived)
            raw = derived.pairs
            if executor is not None:
                executor.store_candidates(table_name, frontier, self.meta_blocking, raw)

        with context.timed("resolution"):
            if compared:
                pairs = [pair for pair in raw if pair not in compared]
            else:
                pairs = list(raw)  # never alias the cached plan
            compared.update(pairs)
        return pairs

    @staticmethod
    def _closure(links: LinkSet, query_set: Set[Any]) -> Set[Any]:
        """All entities reachable from QE through L_E."""
        reached: Set[Any] = set()
        for entity_id in query_set:
            reached |= links.cluster_of(entity_id)
        return reached
