"""Tests for edit-distance search over q-gram indexes."""

import pytest

from repro.search import (
    EditDistanceSearcher,
    InvertedIndex,
    brute_edit_distance_search,
)
from repro.similarity import tokenize_collection


@pytest.mark.parametrize(
    "scheme,algorithm",
    [
        ("uncomp", "mergeskip"),
        ("milc", "mergeskip"),
        ("css", "mergeskip"),
        ("pfordelta", "scancount"),
        ("uncomp", "scancount"),
        ("css", "divideskip"),
    ],
)
class TestEditDistanceSearchCorrectness:
    def test_self_queries_match_brute_force(
        self, scheme, algorithm, qgram_collection
    ):
        index = InvertedIndex(qgram_collection, scheme=scheme)
        searcher = EditDistanceSearcher(index, algorithm=algorithm)
        for delta in (0, 1, 2, 3):
            for qid in (0, 33, 99):
                query = qgram_collection.strings[qid]
                assert searcher.search(query, delta) == (
                    brute_edit_distance_search(qgram_collection, query, delta)
                ), (delta, qid)

    def test_novel_query(self, scheme, algorithm, qgram_collection):
        index = InvertedIndex(qgram_collection, scheme=scheme)
        searcher = EditDistanceSearcher(index, algorithm=algorithm)
        for query in ("abcz", "zzzz", "a"):
            for delta in (1, 2):
                assert searcher.search(query, delta) == (
                    brute_edit_distance_search(qgram_collection, query, delta)
                ), (query, delta)


class TestEditDistanceSearcherBehaviour:
    def test_requires_qgram_collection(self, word_collection):
        index = InvertedIndex(word_collection, scheme="css")
        with pytest.raises(ValueError, match="q-gram"):
            EditDistanceSearcher(index)

    def test_negative_delta_rejected(self, qgram_collection):
        searcher = EditDistanceSearcher(
            InvertedIndex(qgram_collection, scheme="css")
        )
        with pytest.raises(ValueError):
            searcher.search("abc", -1)

    def test_mergeskip_rejected_on_pfordelta(self, qgram_collection):
        index = InvertedIndex(qgram_collection, scheme="pfordelta")
        with pytest.raises(ValueError, match="sequential"):
            EditDistanceSearcher(index, algorithm="mergeskip")

    def test_length_fallback_used_for_short_queries(self, qgram_collection):
        """A 2-char query with delta=2 degenerates the count bound (T <= 0):
        the searcher must fall back to the length directory, not miss answers."""
        searcher = EditDistanceSearcher(
            InvertedIndex(qgram_collection, scheme="css")
        )
        query = "ab"
        assert searcher.search(query, 2) == brute_edit_distance_search(
            qgram_collection, query, 2
        )

    def test_empty_query(self, qgram_collection):
        searcher = EditDistanceSearcher(
            InvertedIndex(qgram_collection, scheme="css")
        )
        assert searcher.search("", 1) == brute_edit_distance_search(
            qgram_collection, "", 1
        )

    def test_exact_match_delta_zero(self, qgram_collection):
        searcher = EditDistanceSearcher(
            InvertedIndex(qgram_collection, scheme="css")
        )
        text = qgram_collection.strings[5]
        results = searcher.search(text, 0)
        assert all(qgram_collection.strings[i] == text for i in results)
        assert 5 in results

    def test_search_many(self, qgram_collection):
        searcher = EditDistanceSearcher(
            InvertedIndex(qgram_collection, scheme="css")
        )
        queries = qgram_collection.strings[:4]
        serial = [searcher.search(q, 1) for q in queries]
        assert searcher.search_many_batched(queries, 1) == serial
