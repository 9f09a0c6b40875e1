"""Unit tests for the Comparison-Execution fast path.

Covers the shared ER utilities (LRU cache, canonical ordering), token
interning, profile signatures, the similarity bounds and the matcher's
short-circuit cascade.
"""

import pytest

from repro.core.indices import TableIndex
from repro.er.matching import ProfileMatcher, build_signature
from repro.er.similarity import (
    jaccard,
    jaccard_sorted_ids,
    jaro,
    jaro_fast,
    jaro_winkler,
    jaro_winkler_bound,
    jaro_winkler_char_bound,
)
from repro.er.tokenizer import TokenVocabulary
from repro.er.util import LRUCache, ordered_pair, safe_sorted
from repro.storage.schema import Schema
from repro.storage.table import Table


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache["b"] = 2
        assert cache.get("a") == 1
        assert cache.get("b") == 2
        assert cache.get("missing", "fallback") == "fallback"

    def test_capacity_is_enforced(self):
        cache = LRUCache(3)
        for i in range(50):
            cache.put(i, i)
        assert len(cache) == 3

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a → b is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_overwrite_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.get("a") == 10
        assert cache.get("b") == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0


class TestSharedHelpers:
    def test_safe_sorted_homogeneous_and_mixed(self):
        assert safe_sorted([3, 1, 2]) == [1, 2, 3]
        assert safe_sorted(["b", 1]) == sorted(["b", 1], key=repr)

    def test_ordered_pair(self):
        assert ordered_pair(2, 1) == (1, 2)
        assert ordered_pair("a", "b") == ("a", "b")


class TestTokenVocabulary:
    def test_intern_is_idempotent(self):
        vocabulary = TokenVocabulary()
        first = vocabulary.intern("alpha")
        assert vocabulary.intern("alpha") == first
        assert len(vocabulary) == 1

    def test_roundtrip(self):
        vocabulary = TokenVocabulary()
        token_id = vocabulary.intern("beta")
        assert vocabulary.token_of(token_id) == "beta"
        assert vocabulary.id_of("beta") == token_id
        assert "beta" in vocabulary

    def test_intern_all_sorted_and_deduplicated(self):
        vocabulary = TokenVocabulary()
        ids = vocabulary.intern_all(["b", "a", "b", "c"])
        assert ids == tuple(sorted(ids))
        assert len(ids) == 3


class TestSimilarityBoundsAndFastJaro:
    sample_pairs = [
        ("martha", "marhta"),
        ("dixon", "dicksonx"),
        ("acme corporation", "acme corp"),
        ("", ""),
        ("", "abc"),
        ("abc", "abc"),
        ("completely", "different"),
        ("a" * 60 + "xyz", "a" * 60 + "zyx"),
    ]

    def test_jaccard_sorted_ids_matches_set_jaccard(self):
        cases = [([], []), ([1, 2, 3], []), ([1, 2], [2, 3]), ([5], [5]), ([1, 4, 9], [2, 4, 8, 9])]
        for a, b in cases:
            assert jaccard_sorted_ids(a, b) == jaccard(a, b)

    def test_length_bound_dominates_jaro_winkler(self):
        for a, b in self.sample_pairs:
            assert jaro_winkler(a, b) <= jaro_winkler_bound(a, b) + 1e-9

    def test_char_bound_dominates_jaro_winkler(self):
        from collections import Counter

        for a, b in self.sample_pairs:
            bound = jaro_winkler_char_bound(a, b, Counter(a), Counter(b))
            assert jaro_winkler(a, b) <= bound + 1e-9

    def test_char_bound_zero_when_no_common_characters(self):
        from collections import Counter

        assert jaro_winkler_char_bound("abc", "xyz", Counter("abc"), Counter("xyz")) == 0.0

    def test_jaro_fast_bit_identical(self):
        for a, b in self.sample_pairs:
            assert jaro_fast(a, b) == jaro(a, b)


def people_table():
    return Table(
        "P",
        Schema.of("id", "name", "city"),
        [
            ("p1", "john smith", "melbourne"),
            ("p2", "jon smith", "melbourne"),
            ("p3", "alice jones", None),
            ("p4", None, None),
        ],
    )


class TestProfileSignatures:
    def test_signature_tokens_match_matcher_tokens(self):
        vocabulary = TokenVocabulary()
        attributes = {"name": "john smith", "city": "melbourne"}
        signature = build_signature("e1", attributes, vocabulary)
        tokens = {vocabulary.token_of(token_id) for token_id in signature.token_ids}
        assert tokens == {"john", "smith", "melbourne"}

    def test_signature_respects_exclude_and_nulls(self):
        vocabulary = TokenVocabulary()
        attributes = {"name": "john", "secret": "classified", "empty": None}
        signature = build_signature(
            "e1", attributes, vocabulary, exclude=frozenset({"secret"})
        )
        assert set(signature.norms) == {"name"}
        assert {vocabulary.token_of(t) for t in signature.token_ids} == {"john"}

    def test_table_index_builds_signatures_lazily(self):
        index = TableIndex(people_table())
        assert index.signature_count == 0
        signature = index.signature_of("p1")
        assert index.signature_count == 1
        assert index.signature_of("p1") is signature  # memoized

    def test_add_records_prebuilds_signatures_and_interns(self):
        index = TableIndex(people_table())
        index.signature_of("p1")
        vocabulary_before = len(index.vocabulary)
        index.table.append_rows([("p5", "zanzibar quux", "hobart")])
        index.add_records(["p5"])
        assert index.signature_count == 2  # id 1 (lazy) + id 5 (eager)
        assert len(index.vocabulary) > vocabulary_before


class TestMatchSignatureCascade:
    def decisions(self, matcher, index, ids):
        out = []
        for a in ids:
            for b in ids:
                if a < b:
                    out.append(
                        matcher.match_signatures(index.signature_of(a), index.signature_of(b))
                    )
        return out

    def test_cascade_decisions_equal_slow_path(self):
        table = people_table()
        index = TableIndex(table)
        fast = ProfileMatcher(exclude=("id",))
        slow = ProfileMatcher(exclude=("id",))
        ids = ["p1", "p2", "p3", "p4"]
        fast_decisions = self.decisions(fast, index, ids)
        slow_decisions = [
            slow.matches(index.entities.attributes(a), index.entities.attributes(b))
            for a in ids
            for b in ids
            if a < b
        ]
        assert fast_decisions == slow_decisions
        assert fast.cascade_stats["pairs"] == len(fast_decisions)

    def test_incompatible_exclude_falls_back(self):
        index = TableIndex(people_table())
        matcher = ProfileMatcher(exclude=("id", "city"))
        matcher.match_signatures(index.signature_of("p1"), index.signature_of("p2"))
        assert matcher.cascade_stats["incompatible"] == 1
        assert matcher.cascade_stats["pairs"] == 0

    def test_custom_similarity_disables_cascade(self):
        index = TableIndex(people_table())
        matcher = ProfileMatcher(similarity=lambda a, b: 1.0, exclude=("id",))
        assert not matcher.uses_cascade
        # "p1"/"p3" share a comparable attribute, which the constant-1
        # custom similarity scores as a certain match via the slow path.
        assert matcher.match_signatures(index.signature_of("p1"), index.signature_of("p3")) is True
        assert matcher.cascade_stats["incompatible"] == 1

    def test_caches_stay_bounded(self):
        matcher = ProfileMatcher(exclude=("id",), cache_capacity=8)
        for i in range(100):
            left = {"name": f"value number {i}", "city": f"city {i}"}
            right = {"name": f"value number {i + 1}", "city": f"city {i + 1}"}
            matcher.matches(left, right)
        assert len(matcher._token_cache) <= 8
        assert len(matcher._pair_cache) <= 8

    def test_clear_cache_and_stats(self):
        index = TableIndex(people_table())
        matcher = ProfileMatcher(exclude=("id",))
        matcher.match_signatures(index.signature_of("p1"), index.signature_of("p2"))
        matcher.clear_cache()
        assert len(matcher._pair_cache) == 0
        matcher.reset_cascade_stats()
        assert all(count == 0 for count in matcher.cascade_stats.values())
