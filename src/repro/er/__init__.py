"""Entity-Resolution toolkit: blocking, meta-blocking, matching, metrics.

Implements the batch-ER machinery the paper builds on (Papadakis et al.'s
schema-agnostic Token Blocking and Meta-Blocking) plus the string
similarity functions and match clustering used by Comparison-Execution.
"""

from repro.er.tokenizer import TokenVocabulary, tokenize_value, tokenize_entity
from repro.er.util import LRUCache, ordered_pair, safe_sorted
from repro.er.blocking import Block, BlockCollection, NGramBlocking, TokenBlocking
from repro.er.block_purging import block_purging, purge_threshold
from repro.er.block_filtering import block_filtering
from repro.er.edge_pruning import BlockingGraph, WeightingScheme
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.packed_blocking import derive_candidates
from repro.er.similarity import (
    dice,
    jaccard,
    jaccard_sorted_ids,
    jaro,
    jaro_fast,
    jaro_winkler,
    jaro_winkler_char_bound,
    jaro_winkler_fast,
    levenshtein,
    monge_elkan,
    normalized_levenshtein,
    overlap_coefficient,
    token_jaccard,
)
from repro.er.matching import ProfileMatcher, ProfileSignature, build_signature
from repro.er.clustering import UnionFind, connected_components
from repro.er.linkset import LinkSet
from repro.er.evaluation import pair_completeness, pairs_quality, f_measure

__all__ = [
    "TokenVocabulary",
    "tokenize_value",
    "tokenize_entity",
    "LRUCache",
    "ordered_pair",
    "safe_sorted",
    "Block",
    "BlockCollection",
    "NGramBlocking",
    "TokenBlocking",
    "block_purging",
    "purge_threshold",
    "block_filtering",
    "BlockingGraph",
    "WeightingScheme",
    "MetaBlockingConfig",
    "derive_candidates",
    "dice",
    "jaccard",
    "jaccard_sorted_ids",
    "jaro",
    "jaro_fast",
    "jaro_winkler",
    "jaro_winkler_char_bound",
    "jaro_winkler_fast",
    "levenshtein",
    "monge_elkan",
    "normalized_levenshtein",
    "overlap_coefficient",
    "token_jaccard",
    "ProfileMatcher",
    "ProfileSignature",
    "build_signature",
    "UnionFind",
    "connected_components",
    "LinkSet",
    "pair_completeness",
    "pairs_quality",
    "f_measure",
]
