"""Unit tests for Block Purging, Block Filtering and Edge Pruning.

The graph and pipeline cases run the paper-literal reference of
:mod:`repro.er.reference`; the property suites hold the production
pipeline to it.
"""

import pytest

from repro.er.block_filtering import block_filtering, retained_keys
from repro.er.block_purging import block_purging, purge_threshold
from repro.er.blocking import Block, BlockCollection
from repro.er.edge_pruning import WeightingScheme
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.reference import (
    UnpackedBlockingGraph,
    apply_meta_blocking,
    edge_pruning,
    pairs_to_blocks,
)


def collection_with_stopword_block():
    """Many small discriminative blocks plus one huge stop-word block."""
    bc = BlockCollection()
    for i in range(20):
        bc.add(f"pair{i}", f"a{i}")
        bc.add(f"pair{i}", f"b{i}")
    for i in range(20):
        bc.add("the", f"a{i}")
        bc.add("the", f"b{i}")
    return bc


class TestBlockPurging:
    def test_purges_the_oversized_block(self):
        bc = collection_with_stopword_block()
        purged = block_purging(bc)
        assert purged.get("the") is None
        assert all(purged.get(f"pair{i}") is not None for i in range(20))

    def test_threshold_on_uniform_collection_keeps_everything(self):
        bc = BlockCollection()
        for i in range(5):
            bc.add(f"k{i}", f"a{i}")
            bc.add(f"k{i}", f"b{i}")
        assert purge_threshold(bc) == 1
        assert len(block_purging(bc)) == 5

    def test_empty_collection(self):
        assert purge_threshold(BlockCollection()) == 0
        assert len(block_purging(BlockCollection())) == 0

    def test_singletons_always_dropped(self):
        bc = BlockCollection()
        bc.add("solo", "a")
        bc.add("pair", "a")
        bc.add("pair", "b")
        purged = block_purging(bc)
        assert purged.get("solo") is None

    def test_never_increases_comparisons(self):
        bc = collection_with_stopword_block()
        assert block_purging(bc).cardinality <= bc.cardinality


class TestBlockFiltering:
    def test_keeps_smallest_blocks_per_entity(self):
        bc = BlockCollection()
        for e in ("a", "b", "c", "d"):
            bc.add("big", e)
        bc.add("small", "a")
        bc.add("small", "b")
        kept = retained_keys(bc, ratio=0.5)
        assert kept["a"] == ["small"]

    def test_ratio_one_keeps_everything(self):
        bc = BlockCollection()
        bc.add("x", "a")
        bc.add("x", "b")
        bc.add("y", "a")
        bc.add("y", "b")
        assert block_filtering(bc, ratio=1.0).cardinality == bc.cardinality

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            block_filtering(BlockCollection(), ratio=0.0)

    def test_never_increases_comparisons(self):
        bc = collection_with_stopword_block()
        assert block_filtering(bc).cardinality <= bc.cardinality

    def test_result_has_no_singleton_blocks(self):
        bc = BlockCollection()
        for e in ("a", "b", "c"):
            bc.add("big", e)
        bc.add("tiny", "a")
        filtered = block_filtering(bc, ratio=0.5)
        assert all(b.size >= 2 for b in filtered)


class TestEdgePruning:
    def test_graph_edge_count(self):
        bc = BlockCollection()
        bc.add("k", "a")
        bc.add("k", "b")
        bc.add("k", "c")
        graph = UnpackedBlockingGraph(bc)
        assert len(graph) == 3  # ab, ac, bc

    def test_cbs_weight_counts_shared_blocks(self):
        bc = BlockCollection()
        for key in ("k1", "k2"):
            bc.add(key, "a")
            bc.add(key, "b")
        graph = UnpackedBlockingGraph(bc, scheme=WeightingScheme.CBS)
        assert graph.weight("a", "b") == 2.0

    def test_js_weight(self):
        bc = BlockCollection()
        bc.add("k1", "a"); bc.add("k1", "b")
        bc.add("k2", "a")
        graph = UnpackedBlockingGraph(bc, scheme=WeightingScheme.JS)
        # a in 2 blocks, b in 1, shared 1 → 1 / (2 + 1 - 1)
        assert graph.weight("a", "b") == pytest.approx(0.5)

    def test_arcs_favours_small_blocks(self):
        bc = BlockCollection()
        bc.add("small", "a"); bc.add("small", "b")
        for e in ("a", "c", "d", "e"):
            bc.add("large", e)
        graph = UnpackedBlockingGraph(bc, scheme=WeightingScheme.ARCS)
        assert graph.weight("a", "b") > graph.weight("a", "c")

    def test_pruning_keeps_heavy_edges(self):
        bc = BlockCollection()
        for key in ("k1", "k2", "k3"):
            bc.add(key, "a")
            bc.add(key, "b")
        bc.add("k4", "a")
        bc.add("k4", "c")
        kept = edge_pruning(bc, scheme=WeightingScheme.CBS)
        assert ("a", "b") in kept
        assert ("a", "c") not in kept

    def test_pairs_to_blocks_roundtrip(self):
        blocks = pairs_to_blocks({("a", "b"), ("c", "d")})
        assert blocks.cardinality == 2
        assert blocks.comparison_pairs() == {("a", "b"), ("c", "d")}

    def test_average_weight_of_empty_graph(self):
        assert UnpackedBlockingGraph(BlockCollection()).average_weight() == 0.0


class TestMetaBlockingPipeline:
    def test_all_label(self):
        assert MetaBlockingConfig.all().label == "ALL"
        assert MetaBlockingConfig.bp_bf().label == "BP + BF"
        assert MetaBlockingConfig.bp_ep().label == "BP + EP"
        assert MetaBlockingConfig.none().label == "NONE"

    def test_none_config_preserves_pairs(self):
        bc = collection_with_stopword_block()
        out = apply_meta_blocking(bc, MetaBlockingConfig.none())
        assert out.comparison_pairs() == bc.comparison_pairs()

    def test_pipeline_never_increases_comparisons(self):
        bc = collection_with_stopword_block()
        for config in (
            MetaBlockingConfig.all(),
            MetaBlockingConfig.bp_bf(),
            MetaBlockingConfig.bp_ep(),
        ):
            out = apply_meta_blocking(bc, config)
            assert len(out.comparison_pairs()) <= len(bc.comparison_pairs())

    def test_all_is_most_aggressive(self):
        bc = collection_with_stopword_block()
        all_pairs = apply_meta_blocking(bc, MetaBlockingConfig.all()).comparison_pairs()
        bpbf_pairs = apply_meta_blocking(bc, MetaBlockingConfig.bp_bf()).comparison_pairs()
        assert len(all_pairs) <= len(bpbf_pairs)
