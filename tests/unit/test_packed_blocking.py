"""Unit tests for the columnar blocking fast path and its satellites:
CSR token postings, vectorized purge/filter, the packed candidate
pipeline, the tokenizer's optional numeric filter, cheap block copies
and the CLI ``--profile`` breakdown."""

import io

import numpy as np
import pytest

from repro.cli import run
from repro.core.indices import TableIndex
from repro.datagen import generate_dsd
from repro.er.block_purging import block_purging, purge_threshold
from repro.er.blocking import Block, BlockCollection, NGramBlocking, TokenBlocking, TokenPostings
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.packed_blocking import derive_candidates
from repro.er.tokenizer import TokenVocabulary, tokenize_entity, tokenize_value
from repro.parallel.planner import PartitionPlanner
from repro.storage.csv_io import write_csv
from repro.storage.schema import Schema
from repro.storage.table import Table


def small_table():
    return Table(
        "T",
        Schema.of("id", "title"),
        [
            ("e1", "alpha beta"),
            ("e2", "beta gamma"),
            ("e3", "gamma delta"),
            ("e4", "omega"),
        ],
    )


class TestTokenizerNumericFilter:
    def test_default_keeps_short_numeric_tokens(self):
        """No numeric-specific rule by default (the documented behavior)."""
        assert tokenize_value("page 42 of 2024") == ["page", "42", "of", "2024"]

    def test_numeric_min_length_drops_short_numbers_only(self):
        tokens = tokenize_value("suite 42 on road 66a, est 1999", numeric_min_length=4)
        assert "42" not in tokens and "66" not in tokens
        assert "1999" in tokens  # long enough
        assert "66a" in tokens  # not purely numeric
        assert "suite" in tokens and "road" in tokens

    def test_min_length_still_applies_to_numerics(self):
        # numeric_min_length below min_length cannot resurrect tokens.
        assert tokenize_value("a 7 bb", min_length=2, numeric_min_length=1) == ["bb"]

    def test_entity_and_blocking_pass_through(self):
        attributes = {"name": "unit 9", "year": 1987}
        default = tokenize_entity(attributes)
        filtered = tokenize_entity(attributes, numeric_min_length=3)
        assert default == {"unit", "1987"}
        assert filtered == {"unit", "1987"}
        blocking = TokenBlocking(numeric_min_length=5)
        assert blocking.keys_for(attributes) == {"unit"}
        ngram = NGramBlocking(n=3, numeric_min_length=5)
        assert "198" not in ngram.keys_for(attributes)


class TestBlockCopy:
    def test_copy_shares_no_mutable_state(self):
        block = Block("k", ("a", "b"))
        clone = block.copy()
        clone.add("c")
        assert block.entities == {"a", "b"}
        assert clone.entities == {"a", "b", "c"}

    def test_purging_result_does_not_alias_input(self):
        """Satellite regression: mutating the purged copy (or the input)
        never leaks through to the other collection."""
        collection = BlockCollection()
        for key, entity in [("x", 1), ("x", 2), ("y", 2), ("y", 3)]:
            collection.add(key, entity)
        purged = block_purging(collection)
        assert len(purged) > 0
        for block in purged:
            block.add(999)
        for block in collection:
            assert 999 not in block.entities
        collection.get("x").add(777)
        assert 777 not in purged.get("x").entities


class TestTokenPostings:
    def build(self, table):
        index = TableIndex(table)
        return index, index.postings

    def test_postings_mirror_tbi(self):
        index, postings = self.build(small_table())
        assert postings.entity_count == 4
        assert postings.assignment_count == index.tbi.total_assignments
        for key in index.tbi.keys():
            token_id = index.vocabulary.id_of(key)
            _, members = postings.members_of(np.array([token_id]))
            ids = set(postings.entity_ids_of(members))
            assert ids == index.tbi.get(key).entities
            assert int(postings.sizes_of(np.array([token_id]))[0]) == len(ids)

    def test_dense_frontier_skips_unknown_ids(self):
        _, postings = self.build(small_table())
        dense = postings.dense_frontier(["e2", "missing", "e1"])
        assert postings.entity_ids_of(dense) == ["e1", "e2"]

    def test_tokens_of_entities_union(self):
        index, postings = self.build(small_table())
        dense = postings.dense_frontier(["e1", "e2"])
        tokens = {index.vocabulary.token_of(t) for t in postings.tokens_of_entities(dense).tolist()}
        assert tokens == {"alpha", "beta", "gamma"}

    def test_pending_delta_then_compaction(self):
        """Appends stay pending (no rebuild), reads see them, compaction
        folds them in without changing any observable."""
        _, postings = self.build(small_table())
        postings.add_entity("e5", {"beta", "zeta"})
        assert postings._pending_count == 2  # delta recorded, base untouched
        beta = postings.vocabulary.id_of("beta")
        zeta = postings.vocabulary.id_of("zeta")
        _, members = postings.members_of(np.array([beta, zeta]))
        before = set(postings.entity_ids_of(members))
        assert before == {"e1", "e2", "e5"}
        postings.compact()
        assert postings._pending_count == 0
        _, members = postings.members_of(np.array([beta, zeta]))
        assert set(postings.entity_ids_of(members)) == before

    def test_duplicate_entity_rejected(self):
        _, postings = self.build(small_table())
        with pytest.raises(ValueError):
            postings.add_entity("e1", {"alpha"})

    def test_build_standalone(self):
        postings = TokenPostings.build(
            [("a", {"t1", "t2"}), ("b", {"t2"}), ("c", ())], TokenVocabulary()
        )
        assert postings.entity_count == 3
        assert postings.assignment_count == 3
        t2 = postings.vocabulary.id_of("t2")
        _, members = postings.members_of(np.array([t2]))
        assert set(postings.entity_ids_of(members)) == {"a", "b"}


class TestPackedPipeline:
    def test_derive_matches_dict_stats(self):
        table, _ = generate_dsd(150, seed=3)
        index = TableIndex(table)
        frontier = {row.id for row in table if row.id % 5 == 0}
        derived = derive_candidates(
            index.postings, frontier, MetaBlockingConfig.all()
        )
        qbi = index.query_block_index(frontier)
        eqbi = index.block_join(qbi)
        assert derived.qbi_blocks == len(qbi)
        assert derived.eqbi_blocks == len(eqbi)
        assert derived.comparisons_before == eqbi.cardinality
        assert derived.comparisons_after == len(derived.pairs)
        assert all(left != right for left, right in derived.pairs)

    def test_empty_frontier(self):
        table, _ = generate_dsd(60, seed=5)
        index = TableIndex(table)
        derived = derive_candidates(index.postings, set(), MetaBlockingConfig.all())
        assert derived.pairs == []
        assert derived.qbi_blocks == 0

    def test_purge_threshold_reported_for_eqbi(self):
        table, _ = generate_dsd(150, seed=3)
        index = TableIndex(table)
        frontier = {row.id for row in table if row.id % 5 == 0}
        eqbi = index.block_join(index.query_block_index(frontier)).non_singleton()
        from repro.er.block_purging import purge_threshold_from_sizes

        sizes = np.array([b.size for b in eqbi], dtype=np.int64)
        assert purge_threshold_from_sizes(sizes) == purge_threshold(eqbi)


class TestPartitionCosts:
    def test_empty_costs(self):
        assert PartitionPlanner(workers=2).partition_costs([]) == []


class TestCliProfile:
    @pytest.fixture
    def csv_path(self, tmp_path):
        table, _ = generate_dsd(80, seed=21)
        path = tmp_path / "papers.csv"
        write_csv(table, path)
        return path

    def test_profile_prints_stage_breakdown(self, csv_path):
        out = io.StringIO()
        code = run(
            [
                "SELECT DEDUP id, venue FROM papers WHERE venue = 'edbt'",
                "--csv",
                str(csv_path),
                "--profile",
            ],
            output=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "Per-stage breakdown" in text
        assert "resolution" in text
        assert "%" in text and "total" in text

    def test_profile_on_plain_query_shows_scan_time(self, csv_path):
        out = io.StringIO()
        code = run(
            ["SELECT id FROM papers LIMIT 2", "--csv", str(csv_path), "--profile"],
            output=out,
        )
        assert code == 0
        # Relational queries only record scan/materialization time.
        assert "Per-stage breakdown" in out.getvalue()
        assert "other" in out.getvalue()
