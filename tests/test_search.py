"""Tests for similarity search: index construction and Jaccard queries."""

import numpy as np
import pytest

from repro.search import (
    InvertedIndex,
    JaccardSearcher,
    brute_similarity_search,
)


class TestInvertedIndex:
    def test_one_list_per_distinct_token(self, word_collection):
        index = InvertedIndex(word_collection, scheme="uncomp")
        assert len(index) == word_collection.num_tokens

    def test_postings_count_matches_records(self, word_collection):
        index = InvertedIndex(word_collection, scheme="uncomp")
        assert index.num_postings() == sum(
            r.size for r in word_collection.records
        )

    def test_lists_contain_correct_ids(self, word_collection):
        index = InvertedIndex(word_collection, scheme="css")
        token = int(word_collection.records[0][0])
        expected = [
            rid
            for rid, rec in enumerate(word_collection.records)
            if token in rec.tolist()
        ]
        assert index.lists[token].to_array().tolist() == expected

    def test_size_ordering_uncomp_largest(self, word_collection):
        sizes = {
            scheme: InvertedIndex(word_collection, scheme=scheme).size_bits()
            for scheme in ("uncomp", "milc", "css")
        }
        assert sizes["css"] <= sizes["milc"] < sizes["uncomp"]

    def test_compression_ratio_above_one(self, word_collection):
        assert InvertedIndex(word_collection, scheme="css").compression_ratio() > 1

    def test_random_access_flag(self, word_collection):
        assert InvertedIndex(word_collection, scheme="css").supports_random_access
        assert not InvertedIndex(
            word_collection, scheme="pfordelta"
        ).supports_random_access

    def test_build_time_recorded(self, word_collection):
        assert InvertedIndex(word_collection, scheme="milc").build_seconds >= 0

    def test_unknown_scheme(self, word_collection):
        with pytest.raises(ValueError):
            InvertedIndex(word_collection, scheme="gzip")


@pytest.mark.parametrize(
    "scheme,algorithm",
    [
        ("uncomp", "scancount"),
        ("uncomp", "mergeskip"),
        ("pfordelta", "scancount"),
        ("milc", "mergeskip"),
        ("css", "mergeskip"),
        ("css", "divideskip"),
        ("eliasfano", "mergeskip"),
    ],
)
class TestJaccardSearchCorrectness:
    def test_self_queries_match_brute_force(
        self, scheme, algorithm, word_collection
    ):
        index = InvertedIndex(word_collection, scheme=scheme)
        searcher = JaccardSearcher(index, algorithm=algorithm)
        for threshold in (0.4, 0.6, 0.8, 1.0):
            for qid in (0, 17, 50, 101):
                query = word_collection.strings[qid]
                assert searcher.search(query, threshold) == (
                    brute_similarity_search(word_collection, query, threshold)
                ), (threshold, qid)

    def test_novel_query_with_unknown_tokens(
        self, scheme, algorithm, word_collection
    ):
        index = InvertedIndex(word_collection, scheme=scheme)
        searcher = JaccardSearcher(index, algorithm=algorithm)
        query = "tok1 tok2 zzz_never_seen"
        assert searcher.search(query, 0.4) == brute_similarity_search(
            word_collection, query, 0.4
        )


class TestJaccardSearcherBehaviour:
    def test_self_query_finds_itself(self, word_collection):
        index = InvertedIndex(word_collection, scheme="css")
        searcher = JaccardSearcher(index)
        assert 3 in searcher.search(word_collection.strings[3], 1.0)

    def test_mergeskip_rejected_on_pfordelta(self, word_collection):
        index = InvertedIndex(word_collection, scheme="pfordelta")
        with pytest.raises(ValueError, match="sequential"):
            JaccardSearcher(index, algorithm="mergeskip")

    def test_invalid_algorithm(self, word_collection):
        index = InvertedIndex(word_collection, scheme="uncomp")
        with pytest.raises(ValueError):
            JaccardSearcher(index, algorithm="linear")

    def test_invalid_threshold(self, word_collection):
        searcher = JaccardSearcher(InvertedIndex(word_collection, scheme="uncomp"))
        with pytest.raises(ValueError):
            searcher.search("tok1", 0.0)
        with pytest.raises(ValueError):
            searcher.search("tok1", 1.5)

    def test_empty_query(self, word_collection):
        searcher = JaccardSearcher(InvertedIndex(word_collection, scheme="css"))
        assert searcher.search("", 0.5) == []

    def test_search_many(self, word_collection):
        searcher = JaccardSearcher(InvertedIndex(word_collection, scheme="css"))
        queries = word_collection.strings[:5]
        serial = [searcher.search(q, 0.7) for q in queries]
        assert searcher.search_many_batched(queries, 0.7) == serial

    def test_cosine_metric(self, word_collection):
        index = InvertedIndex(word_collection, scheme="css")
        searcher = JaccardSearcher(index, metric="cosine")
        query = word_collection.strings[10]
        assert searcher.search(query, 0.7) == brute_similarity_search(
            word_collection, query, 0.7, metric="cosine"
        )

    def test_dice_metric(self, word_collection):
        index = InvertedIndex(word_collection, scheme="css")
        searcher = JaccardSearcher(index, metric="dice")
        query = word_collection.strings[20]
        assert searcher.search(query, 0.7) == brute_similarity_search(
            word_collection, query, 0.7, metric="dice"
        )

    def test_results_sorted_ascending(self, word_collection):
        searcher = JaccardSearcher(InvertedIndex(word_collection, scheme="css"))
        results = searcher.search(word_collection.strings[0], 0.3)
        assert results == sorted(results)
