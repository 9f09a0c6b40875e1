"""Property-based tests for blocking and meta-blocking invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.er.block_filtering import block_filtering
from repro.er.block_purging import block_purging, purge_threshold
from repro.er.blocking import BlockCollection, TokenBlocking
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.reference import apply_meta_blocking

# Random block collections: key index → subset of a small entity universe.
assignments = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=25)),
    max_size=80,
)


def build(pairs) -> BlockCollection:
    collection = BlockCollection()
    for key, entity in pairs:
        collection.add(f"k{key}", f"e{entity}")
    return collection


class TestPurgingProperties:
    @given(assignments)
    def test_never_increases_comparisons(self, pairs):
        collection = build(pairs)
        assert block_purging(collection).cardinality <= collection.cardinality

    @given(assignments)
    def test_surviving_blocks_respect_threshold(self, pairs):
        collection = build(pairs)
        threshold = purge_threshold(collection)
        for block in block_purging(collection):
            assert 0 < block.cardinality <= threshold

    @given(assignments)
    def test_retained_pairs_subset_of_original(self, pairs):
        collection = build(pairs)
        assert block_purging(collection).comparison_pairs() <= collection.comparison_pairs()


class TestFilteringProperties:
    @given(assignments, st.floats(min_value=0.2, max_value=1.0))
    def test_never_increases_comparisons(self, pairs, ratio):
        collection = build(pairs)
        assert block_filtering(collection, ratio=ratio).cardinality <= collection.cardinality

    @given(assignments)
    def test_retained_pairs_subset(self, pairs):
        collection = build(pairs)
        assert block_filtering(collection).comparison_pairs() <= collection.comparison_pairs()


class TestPipelineProperties:
    @settings(max_examples=40)
    @given(assignments)
    def test_every_config_retains_subset_of_pairs(self, pairs):
        collection = build(pairs)
        original = collection.comparison_pairs()
        for config in (
            MetaBlockingConfig.all(),
            MetaBlockingConfig.bp_bf(),
            MetaBlockingConfig.bp_ep(),
            MetaBlockingConfig.none(),
        ):
            refined = apply_meta_blocking(collection, config)
            assert refined.comparison_pairs() <= original

    @given(assignments)
    def test_deterministic(self, pairs):
        collection = build(pairs)
        first = apply_meta_blocking(collection, MetaBlockingConfig.all()).comparison_pairs()
        second = apply_meta_blocking(collection, MetaBlockingConfig.all()).comparison_pairs()
        assert first == second


class TestTokenBlockingProperties:
    profiles = st.lists(st.text(alphabet="abc xyz", max_size=20), max_size=20)

    @given(profiles)
    def test_co_occurrence_requires_shared_token(self, texts):
        blocking = TokenBlocking()
        collection = blocking.build(
            (f"e{i}", {"v": text}) for i, text in enumerate(texts)
        )
        token_sets = {
            f"e{i}": blocking.keys_for({"v": text}) for i, text in enumerate(texts)
        }
        for a, b in collection.comparison_pairs():
            assert token_sets[a] & token_sets[b]

    @given(profiles)
    def test_deterministic(self, texts):
        blocking = TokenBlocking()
        first = blocking.build((f"e{i}", {"v": t}) for i, t in enumerate(texts))
        second = blocking.build((f"e{i}", {"v": t}) for i, t in enumerate(texts))
        assert {b.key: b.entities for b in first} == {b.key: b.entities for b in second}
