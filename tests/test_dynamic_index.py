"""Tests for the dynamic (appendable) search index over online lists."""

import numpy as np
import pytest

from repro.compression.css import CSSList
from repro.search import JaccardSearcher, InvertedIndex, brute_similarity_search
from repro.search.dynamic import DynamicInvertedIndex
from repro.search.edsearch import EditDistanceSearcher


class TestIngestion:
    def test_ids_ascend(self):
        index = DynamicInvertedIndex()
        assert index.add("a b") == 0
        assert index.add("b c") == 1
        assert index.num_records == 2

    def test_lists_grow(self):
        index = DynamicInvertedIndex()
        index.add_many(["x y", "y z", "y"])
        token = index.collection.dictionary.id_of("y")
        assert index.lists[token].to_array().tolist() == [0, 1, 2]

    def test_new_tokens_registered(self):
        index = DynamicInvertedIndex()
        index.add("alpha")
        index.add("beta alpha")
        assert "beta" in index.collection.dictionary

    def test_qgram_mode(self):
        index = DynamicInvertedIndex(mode="qgram", q=2)
        index.add("abc")
        assert index.collection.records[0].size == 2

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            DynamicInvertedIndex(mode="sentencepiece")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            DynamicInvertedIndex(scheme="gzip")


class TestSearchOverDynamicIndex:
    @pytest.mark.parametrize("scheme", ["uncomp", "fix", "vari", "adapt"])
    def test_matches_offline_answers(self, word_strings, scheme):
        dynamic = DynamicInvertedIndex(scheme=scheme)
        dynamic.add_many(word_strings)
        searcher = JaccardSearcher(dynamic, algorithm="mergeskip")
        for qid in (0, 40, 100):
            query = word_strings[qid]
            for tau in (0.6, 0.9):
                assert searcher.search(query, tau) == brute_similarity_search(
                    dynamic.collection, query, tau
                )

    def test_queries_interleave_with_ingestion(self, word_strings):
        dynamic = DynamicInvertedIndex(scheme="adapt")
        dynamic.add_many(word_strings[:50])
        searcher = JaccardSearcher(dynamic)
        before = searcher.search(word_strings[0], 1.0)
        dynamic.add(word_strings[0])  # ingest an exact duplicate
        after = searcher.search(word_strings[0], 1.0)
        assert set(after) == set(before) | {50}

    def test_engine_refuses_a_growing_index(self):
        # an engine's decode cache would keep serving a list's decode from
        # before index.add() appended to it; the searcher reads live lists
        from repro.engine import SimilarityEngine

        dynamic = DynamicInvertedIndex()
        dynamic.add_many(["a b c", "a b d", "x y"])
        with pytest.raises(ValueError, match=r"JaccardSearcher\(index\)"):
            SimilarityEngine(index=dynamic)
        searcher = JaccardSearcher(dynamic)
        assert searcher.search("a b c", 1.0) == [0]
        dynamic.add("a b c")
        assert searcher.search("a b c", 1.0) == [0, 3]
        assert brute_similarity_search(
            dynamic.collection, "a b c", 1.0
        ) == [0, 3]

    def test_edit_distance_searcher_tracks_growth(self):
        from repro.search import brute_edit_distance_search

        dynamic = DynamicInvertedIndex(mode="qgram", q=2, scheme="adapt")
        dynamic.add_many(["hello", "world"])
        searcher = EditDistanceSearcher(dynamic)
        assert searcher.search("hallo", 1) == [0]
        dynamic.add("hallo")
        # both paths (count filter and the length-directory fallback) must
        # see the new record
        assert searcher.search("hallo", 1) == [0, 2]
        assert searcher.search("ha", 3) == brute_edit_distance_search(
            dynamic.collection, "ha", 3
        )

    def test_scancount_algorithm(self, word_strings):
        dynamic = DynamicInvertedIndex(scheme="adapt")
        dynamic.add_many(word_strings)
        searcher = JaccardSearcher(dynamic, algorithm="scancount")
        query = word_strings[7]
        assert searcher.search(query, 0.8) == brute_similarity_search(
            dynamic.collection, query, 0.8
        )


class TestSizeAccounting:
    def test_compresses_vs_uncomp_scheme(self, word_strings):
        compressed = DynamicInvertedIndex(scheme="adapt")
        compressed.add_many(word_strings * 4)  # densify the lists
        compressed.compact()
        plain = DynamicInvertedIndex(scheme="uncomp")
        plain.add_many(word_strings * 4)
        assert compressed.size_bits() < plain.size_bits()
        assert compressed.compression_ratio() > 1

    def test_size_close_to_offline_index(self, word_collection, word_strings):
        """The online index pays only the offline-vs-online gap."""
        dynamic = DynamicInvertedIndex(scheme="vari")
        dynamic.add_many(word_strings)
        dynamic.compact()
        offline = InvertedIndex(word_collection, scheme="css")
        assert dynamic.size_bits() <= 1.5 * offline.size_bits()

    def test_empty_index(self):
        index = DynamicInvertedIndex()
        assert index.size_bits() == 0
        assert index.compression_ratio() == 1.0
        assert index.num_postings() == 0


def _index(word_strings, scheme="adapt", count=100):
    index = DynamicInvertedIndex(mode="word", scheme=scheme)
    index.add_many(word_strings[:count])
    return index


def _answers(index, word_strings):
    searcher = JaccardSearcher(index, algorithm="mergeskip")
    return [
        searcher.search(word_strings[qid], tau)
        for qid in (0, 17, 40)
        for tau in (0.6, 0.9)
    ]


class TestCompaction:
    """``compact()`` seals every online list into offline CSS blocks in
    memory: the ids and answers stay, the layout becomes the DP optimum."""

    @pytest.mark.parametrize("scheme", ["fix", "vari", "adapt"])
    def test_compacted_index_is_bit_identical(self, word_strings, scheme):
        index = _index(word_strings, scheme=scheme)
        before = {
            token: lst.to_array().copy() for token, lst in index.lists.items()
        }
        lists = dict(index.lists)
        answers = _answers(index, word_strings)
        assert index.compact() is None
        assert index.lists == lists  # same list objects, new stores
        for token, expected in before.items():
            lst = index.lists[token]
            assert np.array_equal(lst.to_array(), expected)
            assert len(lst.store) == len(lst)  # the buffer folded in
        assert _answers(index, word_strings) == answers

    def test_compaction_matches_the_offline_partitioner(self, word_strings):
        """After compaction the block layout is the DP optimum — the same
        blocks ``CSSList`` and a from-scratch offline CSS build produce."""
        index = _index(word_strings, scheme="adapt")
        index.compact()
        offline = InvertedIndex(index.collection, scheme="css")
        for token, lst in index.lists.items():
            blocks = lst.store.block_sizes()
            assert blocks == CSSList(lst.to_array()).store.block_sizes()
            assert blocks == offline.lists[token].store.block_sizes()

    def test_uncomp_lists_are_skipped(self, word_strings):
        index = _index(word_strings, scheme="uncomp", count=60)
        bits = index.size_bits()
        index.compact()
        assert index.size_bits() == bits
        for lst in index.lists.values():
            assert len(lst.store) == 0 and len(lst) > 0

    def test_index_stays_appendable_after_compaction(self, word_strings):
        index = _index(word_strings, count=60)
        index.compact()
        index.add_many(word_strings[60:80])
        assert index.num_records == 80
        searcher = JaccardSearcher(index)
        query = word_strings[70]
        assert searcher.search(query, 0.6) == brute_similarity_search(
            index.collection, query, 0.6
        )
