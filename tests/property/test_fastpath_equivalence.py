"""Fast-path equivalence: DEDUP as shipped ≡ DEDUP on the exact references.

The Comparison-Execution fast path (packed blocking graph, interned-token
signatures, similarity short-circuit cascade) promises *exact* results —
not approximate ones.  These properties run the full Deduplicate operator
twice on randomized tables, once as shipped and once on the references
(the dict pipeline of :mod:`repro.er.reference` for candidate pairs,
``ProfileMatcher.matches`` for every decision), and require identical
matches, clusters and linksets.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_oracles import ExactMatcher, ReferenceOperator

from repro.core.dedup_operator import DeduplicateOperator
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.storage.schema import Schema
from repro.storage.table import Table


def dedup(table, query_ids, fast: bool, meta_all: bool = True):
    index = TableIndex(table)
    exclude = (table.schema.id_column,)
    matcher = ProfileMatcher(exclude=exclude) if fast else ExactMatcher(exclude=exclude)
    config = MetaBlockingConfig() if meta_all else MetaBlockingConfig.none()
    operator_class = DeduplicateOperator if fast else ReferenceOperator
    operator = operator_class(index, matcher=matcher, meta_blocking=config)
    return operator.deduplicate(query_ids)


def assert_identical(fast_result, slow_result):
    assert fast_result.query_ids == slow_result.query_ids
    assert fast_result.duplicate_ids == slow_result.duplicate_ids
    assert fast_result.links == slow_result.links
    fast_clusters = sorted(sorted(map(repr, c)) for c in fast_result.clusters())
    slow_clusters = sorted(sorted(map(repr, c)) for c in slow_result.clusters())
    assert fast_clusters == slow_clusters


class TestGeneratedPeople:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=30, max_value=120),
        modulus=st.integers(min_value=2, max_value=5),
    )
    def test_dedup_identical_on_dirty_people(self, seed, size, modulus):
        table, _ = generate_people(size, seed=seed)
        query_ids = [row.id for row in table if row.id % modulus == 0]
        assert_identical(dedup(table, query_ids, True), dedup(table, query_ids, False))

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_dedup_identical_without_edge_pruning(self, seed):
        """Meta-blocking off exercises the raw-block comparison path."""
        table, _ = generate_people(60, seed=seed)
        query_ids = [row.id for row in table if row.id % 3 == 0]
        assert_identical(
            dedup(table, query_ids, True, meta_all=False),
            dedup(table, query_ids, False, meta_all=False),
        )


# Fully random tables: arbitrary text (shared small alphabet so blocks
# and near-matches form), NULLs, numeric attributes, duplicated values.
_words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "acme corp", "acme", "smith", "smiht", "42"]
)
_value = st.one_of(
    st.none(),
    _words,
    st.tuples(_words, _words).map(lambda pair: " ".join(pair)),
    st.integers(min_value=0, max_value=99),
    st.text(alphabet="abcde ", max_size=12),
)
_rows = st.lists(st.tuples(_value, _value, _value), min_size=2, max_size=40)


class TestRandomTables:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=_rows, modulus=st.integers(min_value=1, max_value=4))
    def test_dedup_identical_on_random_tables(self, rows, modulus):
        table = Table(
            "R",
            Schema.of("id", "a", "b", "c"),
            [(i, *row) for i, row in enumerate(rows)],
        )
        query_ids = [row.id for position, row in enumerate(table) if position % modulus == 0]
        assert_identical(dedup(table, query_ids, True), dedup(table, query_ids, False))

