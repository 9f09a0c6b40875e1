"""Schema-agnostic entity matching (Comparison-Execution's inner loop).

Paper §6.1(iv): "we compare the values of all corresponding attributes
between entity pairs" with a string similarity (Jaro-Winkler by default);
no per-attribute configuration is required.  The profile similarity is
the *maximum* of two schema-agnostic signals:

* mean Jaro-Winkler over attributes non-null on both sides, and
* token-set Jaccard over the whole profiles,

so both aligned typo-level variation and cross-attribute value shuffling
(e.g. a venue name appearing under ``title`` on one source and
``description`` on another) are caught.  A pair matches when that
similarity reaches the threshold.

The matcher additionally understands precomputed
:class:`ProfileSignature` objects (built per table by
:class:`~repro.core.indices.TableIndex`) and runs a cheap-to-expensive
cascade over them:

1. interned-token Jaccard (one merge over two sorted int arrays) — can
   *accept* on its own, since the profile similarity is a max;
2. per-attribute Jaro-Winkler upper bounds from precomputed character
   counts, lengths and prefixes — can *reject* on its own when even the
   bounded mean cannot reach the threshold;
3. the exact aligned mean, attribute by attribute, stopping as soon as
   the partial mean already proves the decision either way.

The cascade is exact, not approximate: every accept is backed by a
monotonicity argument (adding non-negative attribute scores never
lowers a partial mean below the threshold it already reached), every
reject by a sound upper bound kept ``BOUND_SLACK`` clear of the
threshold so float rounding cannot flip a borderline pair, and undecided
pairs complete the identical slow-path computation.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.er.similarity import (
    jaccard,
    jaccard_sorted_ids,
    jaro_winkler,
    jaro_winkler_char_bound,
    jaro_winkler_fast,
)
from repro.er.tokenizer import TokenVocabulary, tokenize_value
from repro.er.util import LRUCache

#: Default match-decision threshold on the mean attribute similarity.
DEFAULT_THRESHOLD = 0.75

#: Default entry bound of each matcher memo (token sets and pair scores).
#: Sized for sustained traffic: large enough that one query's working set
#: fits comfortably, bounded so a year of queries cannot grow it further.
DEFAULT_CACHE_CAPACITY = 1 << 18

#: Slack used when an upper bound argues a pair *cannot* reach the
#: threshold: rejection requires ``bound < threshold - BOUND_SLACK`` so
#: float rounding in the bound arithmetic can never flip a borderline
#: decision away from the exact path.
BOUND_SLACK = 1e-9

SimilarityFn = Callable[[str, str], float]


class ProfileSignature:
    """Precomputed per-entity comparison state for the fast cascade.

    * ``token_ids`` — sorted array of interned whole-profile token ids
      (the exact token set :meth:`ProfileMatcher._token_similarity` would
      derive, one integer per distinct token).
    * ``norms`` — attribute name → lowercase string of each non-null,
      non-excluded value (what the aligned signal compares), in the
      attribute mapping's iteration order so partial sums accumulate in
      the same order as the slow path's.
    * ``char_counts`` — attribute name → character→count map of the
      normalized value, feeding the per-pair Jaro-Winkler upper bound.
    * ``attributes`` — the original attribute mapping, kept so
      incompatible matchers can fall back to the raw slow path.
    * ``exclude`` — the lowered attribute names excluded when the
      signature was built; a matcher only trusts a signature whose
      exclusions equal its own.
    """

    __slots__ = ("entity_id", "attributes", "norms", "char_counts", "token_ids", "exclude")

    def __init__(
        self,
        entity_id: Any,
        attributes: Mapping[str, Any],
        norms: Mapping[str, str],
        char_counts: Mapping[str, Mapping[str, int]],
        token_ids: Tuple[int, ...],
        exclude: FrozenSet[str],
    ):
        self.entity_id = entity_id
        self.attributes = attributes
        self.norms = norms
        self.char_counts = char_counts
        self.token_ids = token_ids
        self.exclude = exclude

    def __repr__(self) -> str:
        return (
            f"ProfileSignature({self.entity_id!r}, "
            f"{len(self.norms)} attrs, {len(self.token_ids)} tokens)"
        )


def build_signature(
    entity_id: Any,
    attributes: Mapping[str, Any],
    vocabulary: TokenVocabulary,
    exclude: FrozenSet[str] = frozenset(),
) -> ProfileSignature:
    """Intern *attributes* into a :class:`ProfileSignature`.

    Uses the matcher's tokenization (``tokenize_value`` at its default
    minimum length) so the signature's Jaccard is bit-identical to the
    slow path's, regardless of what blocking function the table uses.
    """
    norms: Dict[str, str] = {}
    char_counts: Dict[str, Counter] = {}
    tokens = []
    for name, value in attributes.items():
        if value is None or name.lower() in exclude:
            continue
        norm = str(value).lower()
        norms[name] = norm
        char_counts[name] = Counter(norm)
        tokens.extend(tokenize_value(value))
    return ProfileSignature(
        entity_id, attributes, norms, char_counts, vocabulary.intern_all(tokens), exclude
    )


class ProfileMatcher:
    """Compares two entity profiles attribute-by-attribute.

    Parameters
    ----------
    similarity:
        Pairwise string similarity in [0, 1]; Jaro-Winkler by default.
    threshold:
        Minimum mean similarity for :meth:`matches` to return True.
    exclude:
        Attribute names ignored during comparison (the identifier column
        must not vote — its values differ between duplicates by design).
    cache_capacity:
        Entry bound of each internal memo (token sets, pair scores).
        Both are LRU caches so sustained query traffic cannot grow them
        without limit.
    """

    def __init__(
        self,
        similarity: SimilarityFn = jaro_winkler,
        threshold: float = DEFAULT_THRESHOLD,
        exclude: Iterable[str] = (),
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    ):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self.similarity = similarity
        self.threshold = threshold
        self.exclude = frozenset(name.lower() for name in exclude)
        # Value → token-set memo: attribute values repeat heavily across
        # comparisons (categoricals, shared org names), and tokenization
        # is the slow path's hottest step.
        self._token_cache = LRUCache(cache_capacity)
        # (value, value) → similarity memo: categorical attributes make
        # the same string pair recur across thousands of comparisons.
        self._pair_cache = LRUCache(cache_capacity)
        # The cascade's upper bound is only valid for the default
        # Jaro-Winkler (its prefix parameters are baked into the bound);
        # any other similarity takes the exact path of :meth:`matches`.
        self.uses_cascade = similarity is jaro_winkler
        # Undecided cascade pairs use the long-string-optimized (but
        # bit-identical) Jaro-Winkler; :meth:`matches` keeps the
        # original, so it stays the exact reference.
        self._exact_similarity = (
            jaro_winkler_fast if similarity is jaro_winkler else similarity
        )
        self.cascade_stats = {
            "pairs": 0,
            "jaccard_accepts": 0,
            "bound_rejects": 0,
            "exact_fallbacks": 0,
            "early_exits": 0,
            "incompatible": 0,
        }

    def profile_similarity(
        self, left: Mapping[str, Any], right: Mapping[str, Any]
    ) -> float:
        """max(aligned-attribute mean, whole-profile token Jaccard).

        An attribute is comparable when present and non-null on both
        sides; with no comparable attribute the aligned signal is 0 (we
        refuse to call two entirely-unknown entities duplicates on that
        signal alone).
        """
        return max(
            self._aligned_similarity(left, right),
            self._token_similarity(left, right),
        )

    def _aligned_similarity(
        self, left: Mapping[str, Any], right: Mapping[str, Any]
    ) -> float:
        # Only attributes present in *both* mappings can be comparable,
        # so iterating the left mapping covers every candidate; its
        # (insertion-ordered) iteration also fixes the float accumulation
        # order the signature cascade reproduces exactly.
        cache = self._pair_cache
        similarity = self.similarity
        right_get = right.get
        total = 0.0
        counted = 0
        for name, lv in left.items():
            if name.lower() in self.exclude:
                continue
            if lv is None:
                continue
            rv = right_get(name)
            if rv is None:
                continue
            score = cache.get((lv, rv))
            if score is None:
                score = similarity(str(lv).lower(), str(rv).lower())
                # Store both orientations: similarity is symmetric and
                # skipping the ordering step is cheaper than one repr().
                cache[(lv, rv)] = score
                cache[(rv, lv)] = score
            total += score
            counted += 1
        if counted == 0:
            return 0.0
        return total / counted

    def _token_similarity(
        self, left: Mapping[str, Any], right: Mapping[str, Any]
    ) -> float:
        cache = self._token_cache

        def tokens(profile: Mapping[str, Any]) -> set:
            collected: set = set()
            for name, value in profile.items():
                if name.lower() in self.exclude or value is None:
                    continue
                cached = cache.get(value)
                if cached is None:
                    cached = frozenset(tokenize_value(value))
                    cache[value] = cached
                collected.update(cached)
            return collected

        left_tokens = tokens(left)
        right_tokens = tokens(right)
        if not left_tokens or not right_tokens:
            return 0.0
        return jaccard(left_tokens, right_tokens)

    # -- signature fast path ------------------------------------------------
    def match_signatures(self, left: ProfileSignature, right: ProfileSignature) -> bool:
        """Match decision over precomputed signatures, via the cascade.

        Decision-identical to ``matches(left.attributes,
        right.attributes)``: the cascade only short-circuits on proofs
        (see module docstring) and otherwise completes the same exact
        computation.  Signatures built under different exclusions than
        this matcher's — or a matcher with a non-default similarity —
        fall back entirely.
        """
        if (
            not self.uses_cascade
            or left.exclude != self.exclude
            or right.exclude != self.exclude
        ):
            self.cascade_stats["incompatible"] += 1
            return self.matches(left.attributes, right.attributes)
        stats = self.cascade_stats
        stats["pairs"] += 1
        ids_a = left.token_ids
        ids_b = right.token_ids
        # The slow path scores token-less sides 0, not the two-empty-sets
        # Jaccard of 1 — replicate exactly.
        token_sim = jaccard_sorted_ids(ids_a, ids_b) if ids_a and ids_b else 0.0
        threshold = self.threshold
        if token_sim >= threshold:
            stats["jaccard_accepts"] += 1
            return True

        # Stage 2: per-attribute upper bounds over the comparable
        # attributes, visited in the same order the exact path uses.
        right_norms = right.norms
        right_counts = right.char_counts
        left_counts = left.char_counts
        values = []
        bounds = []
        total_bound = 0.0
        for name, lv in left.norms.items():
            rv = right_norms.get(name)
            if rv is None:
                continue
            if lv == rv:
                bound = 1.0
            else:
                bound = jaro_winkler_char_bound(
                    lv, rv, left_counts[name], right_counts[name]
                )
            values.append((lv, rv))
            bounds.append(bound)
            total_bound += bound
        counted = len(values)
        if counted == 0:
            # The aligned signal is exactly 0.0 and the token signal
            # already failed the threshold (a zero threshold accepts at
            # the Jaccard step above) — provably no match.
            stats["bound_rejects"] += 1
            return False
        reject_below = threshold - BOUND_SLACK
        if total_bound / counted < reject_below:
            stats["bound_rejects"] += 1
            return False

        # Stage 3: exact aligned mean with early exit.  Scores are
        # non-negative, so a partial mean at/above the threshold stays
        # there (accept); a partial sum plus the remaining bounds that
        # cannot reach it never will (reject).
        stats["exact_fallbacks"] += 1
        cache = self._pair_cache
        similarity = self._exact_similarity
        total = 0.0
        remaining = total_bound
        for i in range(counted):
            lv, rv = values[i]
            remaining -= bounds[i]
            if lv == rv:
                score = 1.0
            else:
                score = cache.get((lv, rv))
                if score is None:
                    score = similarity(lv, rv)
                    cache[(lv, rv)] = score
                    cache[(rv, lv)] = score
            total += score
            if (total + remaining) / counted < reject_below:
                stats["early_exits"] += 1
                return False
            if total / counted >= threshold:
                stats["early_exits"] += 1
                return True
        return max(total / counted, token_sim) >= threshold

    def match_pair_indices(
        self,
        pairs: "Sequence[Tuple[Any, Any]]",
        signatures: Mapping[Any, ProfileSignature],
        start: int = 0,
        stop: Optional[int] = None,
    ) -> "List[int]":
        """Positions in ``pairs[start:stop]`` whose signatures match.

        The partition-aware entry point of Comparison-Execution: the
        parallel execution subsystem hands each worker one contiguous
        span of the canonical candidate-pair list plus the (read-only)
        signature mapping, and every worker runs this exact loop.  Each
        decision is a pure function of the two signatures, so the union
        of per-span results equals the serial full-range result
        regardless of how the spans are partitioned.
        """
        stop = len(pairs) if stop is None else stop
        match = self.match_signatures
        signature_of = signatures.__getitem__
        matched: List[int] = []
        for position in range(start, stop):
            left, right = pairs[position]
            if match(signature_of(left), signature_of(right)):
                matched.append(position)
        return matched

    def partition_view(self) -> "ProfileMatcher":
        """A shallow copy for one parallel invocation's workers.

        The view *shares* the token/pair memos (lock-guarded, so the
        threaded pool may hit them concurrently; forked workers see them
        copy-on-write) but owns zeroed cascade counters, letting the
        deterministic merger fold per-partition counter deltas back into
        this matcher without double counting.

        Counter exactness is backend-dependent by design: forked workers
        mutate private copies and their deltas merge exactly, while the
        threaded pool increments this one view's counters without a lock
        — ``+= 1`` read-modify-writes may interleave, so thread-backend
        cascade statistics are best-effort instrumentation (match
        decisions are never affected).  Locking every increment would
        tax the cascade's hot loop for serial callers too.
        """
        view = ProfileMatcher.__new__(ProfileMatcher)
        view.__dict__.update(self.__dict__)
        view.cascade_stats = {key: 0 for key in self.cascade_stats}
        return view

    def reset_cascade_stats(self) -> None:
        """Zero the cascade counters (the perf harness reads them)."""
        for key in self.cascade_stats:
            self.cascade_stats[key] = 0

    def clear_cache(self) -> None:
        """Drop the token and pair-similarity memos.

        Benchmarks call this (via ``QueryEREngine.clear_caches``) between
        measurements so no run inherits a warm similarity cache.
        """
        self._token_cache.clear()
        self._pair_cache.clear()

    def matches(self, left: Mapping[str, Any], right: Mapping[str, Any]) -> bool:
        """Whether the two profiles are duplicates under the threshold."""
        return self.profile_similarity(left, right) >= self.threshold
