"""Tests for the search-side filter-and-verification counters."""

import pytest

from repro.search import (
    EditDistanceSearcher,
    InvertedIndex,
    JaccardSearcher,
)
from repro.search.brute import (
    brute_edit_distance_search,
    brute_similarity_search,
)
from repro.search.searcher import SearchStats
from repro.similarity.measures import length_bounds, required_overlap


class TestJaccardSearchStats:
    @pytest.fixture(scope="class")
    def searcher(self, word_collection):
        return JaccardSearcher(InvertedIndex(word_collection, scheme="css"))

    def test_stats_populated(self, searcher, word_collection):
        query = word_collection.strings[0]
        results = searcher.search(query, 0.6)
        stats = results.stats
        assert stats.results == len(results)
        assert stats.candidates >= stats.results
        assert stats.verifications <= stats.candidates
        assert stats.verifications >= stats.results
        assert stats.lists_probed > 0
        assert stats.postings_available >= stats.candidates
        assert stats.count_threshold >= 1

    def test_stats_are_per_result(self, searcher, word_collection):
        first = searcher.search(word_collection.strings[0], 0.5)
        second = searcher.search("zzz_unknown_token", 0.5)
        assert second.stats is not first.stats
        assert second.stats.results == 0

    def test_filtering_power_grows_with_threshold(
        self, searcher, word_collection
    ):
        query = word_collection.strings[10]
        loose = searcher.search(query, 0.4).stats.candidates
        tight = searcher.search(query, 0.9).stats.candidates
        assert tight <= loose

    def test_candidates_far_below_collection(self, searcher, word_collection):
        """The point of the filter phase: candidates << collection size."""
        result = searcher.search(word_collection.strings[3], 0.8)
        assert result.stats.candidates < len(word_collection) / 2


class TestEditDistanceSearchStats:
    @pytest.fixture(scope="class")
    def searcher(self, qgram_collection):
        return EditDistanceSearcher(
            InvertedIndex(qgram_collection, scheme="css")
        )

    def test_stats_populated(self, searcher, qgram_collection):
        query = qgram_collection.strings[10]
        results = searcher.search(query, 1)
        stats = results.stats
        assert stats.results == len(results)
        assert stats.verifications >= stats.results
        assert stats.count_threshold == (
            qgram_collection.signature_size(query) - searcher.q
        )

    def test_length_fallback_counts_candidates(self, searcher):
        result = searcher.search("ab", 2)  # degenerate bound -> length scan
        assert result.stats.count_threshold <= 0
        assert result.stats.lists_probed == 0
        assert result.stats.candidates > 0

    def test_every_result_carries_stats(self, qgram_collection):
        fresh = EditDistanceSearcher(
            InvertedIndex(qgram_collection, scheme="uncomp")
        )
        result = fresh.search(qgram_collection.strings[0], 1)
        assert isinstance(result.stats, SearchStats)
        assert result.stats.results == len(result)

    def test_fractional_delta_rejected(self, searcher, qgram_collection):
        with pytest.raises(ValueError, match="must be integral"):
            searcher.search(qgram_collection.strings[0], 1.5)

    def test_integral_float_delta_accepted(self, searcher, qgram_collection):
        query = qgram_collection.strings[10]
        assert searcher.search(query, 1.0) == searcher.search(query, 1)


class TestUnseenQueryTokens:
    """A query is tokenized once per plan; the tokens the collection has
    never seen drop out of the probed ids but still count toward the
    signature size, so the count threshold and the answers are the full
    query's."""

    @staticmethod
    def _counting_tokenize(collection, monkeypatch):
        calls = []
        tokenize = collection.tokenize

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(collection, "tokenize", counting)
        return calls

    @pytest.mark.parametrize("threshold", [0.5, 0.8])
    def test_jaccard(self, word_collection, monkeypatch, threshold):
        searcher = JaccardSearcher(InvertedIndex(word_collection, scheme="css"))
        queries = [
            word_collection.strings[3] + " zzq_unseen_a zzq_unseen_b",
            word_collection.strings[40] + " zzq_unseen_c",
        ]
        sizes = [word_collection.signature_size(q) for q in queries]
        expected = [
            brute_similarity_search(word_collection, q, threshold)
            for q in queries
        ]
        calls = self._counting_tokenize(word_collection, monkeypatch)
        for query, size, ids in zip(queries, sizes, expected):
            calls.clear()
            result = searcher.search(query, threshold)
            assert calls == [query]
            low, _ = length_bounds(size, threshold)
            assert result.stats.count_threshold == required_overlap(
                size, low, threshold
            )
            assert list(result.ids) == list(ids)
        batched = searcher.search_many_batched(queries, threshold)
        assert [list(r.ids) for r in batched] == [list(i) for i in expected]

    def test_edit_distance(self, qgram_collection, monkeypatch):
        searcher = EditDistanceSearcher(
            InvertedIndex(qgram_collection, scheme="css")
        )
        # "#" appears in no record: its grams are unseen
        queries = [
            qgram_collection.strings[10] + "#",
            "#" + qgram_collection.strings[20],
        ]
        sizes = [qgram_collection.signature_size(q) for q in queries]
        expected = [
            brute_edit_distance_search(qgram_collection, q, 1)
            for q in queries
        ]
        calls = self._counting_tokenize(qgram_collection, monkeypatch)
        for query, size, ids in zip(queries, sizes, expected):
            calls.clear()
            result = searcher.search(query, 1)
            assert calls == [query]
            assert result.stats.count_threshold == size - searcher.q
            assert list(result.ids) == list(ids)
        batched = searcher.search_many_batched(queries, 1)
        assert [list(r.ids) for r in batched] == [list(i) for i in expected]
