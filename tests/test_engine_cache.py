"""Tests for the shared posting-decode cache (`repro.engine.cache`)."""

import numpy as np
import pytest

from repro.compression import CSSList, UncompressedList
from repro.datasets import tweet_like
from repro.engine import CachedListView, DecodeCache, SimilarityEngine
from repro.obs import enabled_metrics
from repro.similarity import tokenize_collection


def make_list(start=0, count=50, step=3, cls=CSSList):
    return cls(np.arange(start, start + count * step, step, dtype=np.int64))


class TestFetchAccounting:
    def test_miss_then_hit(self):
        cache = DecodeCache()
        lst = make_list()
        first = cache.fetch(lst)
        second = cache.fetch(lst)
        assert first is second
        assert np.array_equal(first, lst.to_array())
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["insertions"] == 1
        assert cache.stats()["bytes"] == first.nbytes

    def test_fetch_many_one_lookup_per_distinct_list(self):
        cache = DecodeCache()
        a, b, c = make_list(0), make_list(1000), make_list(2000)
        cache.fetch(a)
        calls = []

        def decode_many(lists):
            calls.append(list(lists))
            return [lst.to_array() for lst in lists]

        out = cache.fetch_many([b, a, b, c, a], decode_many)
        assert out[0] is out[2] and out[1] is out[4]
        assert [o.tolist() for o in out] == [
            lst.to_array().tolist() for lst in (b, a, b, c, a)
        ]
        assert len(calls) == 1 and [id(x) for x in calls[0]] == [id(b), id(c)]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["insertions"]) == (1, 3, 3)
        cache.fetch_many([a, b, c], decode_many)  # all hits: no decode call
        assert len(calls) == 1

    def test_distinct_lists_distinct_entries(self):
        cache = DecodeCache()
        a, b = make_list(0), make_list(1000)
        cache.fetch(a)
        cache.fetch(b)
        assert len(cache) == 2
        assert cache.stats()["bytes"] == a.to_array().nbytes + b.to_array().nbytes

    def test_cached_array_is_readonly(self):
        cache = DecodeCache()
        array = cache.fetch(make_list())
        with pytest.raises(ValueError):
            array[0] = 99

    def test_hit_rate(self):
        cache = DecodeCache()
        lst = make_list()
        assert cache.hit_rate == 0.0
        cache.fetch(lst)
        cache.fetch(lst)
        cache.fetch(lst)
        assert cache.hit_rate == pytest.approx(2 / 3)


class TestAdmission:
    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            DecodeCache(max_entries=-1)
        with pytest.raises(ValueError):
            DecodeCache(max_bytes=-1)


class TestEviction:
    def test_lru_eviction_under_entry_bound(self):
        cache = DecodeCache(max_entries=2)
        lists = [make_list(i * 1000) for i in range(3)]
        for lst in lists:
            cache.fetch(lst)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # the oldest entry went; re-fetching it is a miss, the newest a hit
        before = cache.stats()["misses"]
        cache.fetch(lists[0])
        assert cache.stats()["misses"] == before + 1
        hits = cache.stats()["hits"]
        cache.fetch(lists[2])
        assert cache.stats()["hits"] == hits + 1

    def test_touch_refreshes_lru_position(self):
        cache = DecodeCache(max_entries=2)
        a, b, c = (make_list(i * 1000) for i in range(3))
        cache.fetch(a)
        cache.fetch(b)
        cache.fetch(a)  # a becomes most-recent
        cache.fetch(c)  # evicts b, not a
        misses = cache.stats()["misses"]
        cache.fetch(a)
        assert cache.stats()["misses"] == misses  # still cached

    def test_byte_bound_evicts(self):
        one_entry_bytes = make_list().to_array().nbytes
        cache = DecodeCache(max_entries=None, max_bytes=one_entry_bytes)
        cache.fetch(make_list(0))
        cache.fetch(make_list(1000))
        assert len(cache) == 1
        assert cache.current_bytes <= one_entry_bytes
        assert cache.stats()["evictions"] == 1


class TestCachedListView:
    @pytest.mark.parametrize("cls", [UncompressedList, CSSList])
    def test_view_matches_inner_in_both_states(self, cls):
        """A view made on a miss (decoded and cached on that first touch)
        and one made on the hit that follows hold the same array."""
        cache = DecodeCache()
        lst = make_list(cls=cls)
        reference = lst.to_array()
        missed = cache.wrap(lst)
        assert (cache.stats()["misses"], cache.stats()["insertions"]) == (1, 1)
        hit = cache.wrap(lst)
        assert cache.stats()["hits"] == 1
        assert hit.to_array() is missed.to_array()
        for view in (missed, hit):
            assert len(view) == len(lst)
            assert np.array_equal(view.to_array(), reference)
            assert [view[i] for i in range(len(view))] == reference.tolist()
            for key in (-1, 0, int(reference[3]), int(reference[3]) + 1, 10**9):
                assert view.lower_bound(key) == lst.lower_bound(key)
                assert view.contains(key) == lst.contains(key)
            assert view.size_bits() == lst.size_bits()
            assert view.scheme_name == lst.scheme_name

    def test_wrap_is_idempotent(self):
        cache = DecodeCache()
        view = cache.wrap(make_list())
        assert isinstance(view, CachedListView)
        assert cache.wrap(view) is view

    def test_cursor_runs_on_view(self):
        cache = DecodeCache()
        lst = make_list()
        cache.fetch(lst)
        view = cache.wrap(lst)
        cursor = view.cursor()
        seen = []
        while not cursor.exhausted:
            seen.append(cursor.value())
            cursor.advance()
        assert seen == lst.to_array().tolist()


class TestEngineAccounting:
    """What a hit and a miss count on each engine path: a batch looks each
    distinct probed list up once; a single query wraps each of its lists
    once.  Either way a list is decoded and cached on its first touch, so
    every miss is an insertion."""

    @pytest.fixture(scope="class")
    def corpus(self):
        strings = tweet_like(1500, 7)
        return tokenize_collection(strings), strings[:64]

    def test_batch_reads_the_cache_once_per_distinct_list(self, corpus):
        collection, queries = corpus
        engine = SimilarityEngine(collection, cache_entries=100000)
        probed = self._distinct_lists(engine, queries)
        assert engine.cache_stats()["misses"] == 0  # planning reads no cache
        engine.search_batch(queries, 0.8)
        first = engine.cache_stats()
        assert first["misses"] == first["insertions"] == len(probed) == 306
        assert first["hits"] == 0
        engine.search_batch(queries, 0.8)
        second = engine.cache_stats()
        assert second["hits"] == len(probed)
        assert second["misses"] == first["misses"]

    @staticmethod
    def _distinct_lists(engine, queries):
        distinct = {}
        for query in queries:
            for lst in engine.searcher._plan(query, 0.8).lists:
                distinct[id(lst)] = lst
        return list(distinct.values())

    @pytest.mark.parametrize("cache_entries", [0, 100000])
    def test_cold_batch_decode_counters(self, corpus, cache_entries):
        """One pass over the batch's misses counts what one ``to_array``
        per distinct list counts."""
        collection, queries = corpus
        engine = SimilarityEngine(collection, cache_entries=cache_entries)
        distinct = self._distinct_lists(engine, queries)
        with enabled_metrics() as registry:
            engine.search_batch(queries, 0.8)
        assert registry.counter("twolayer.blocks_decoded") == sum(
            lst.num_blocks for lst in distinct
        )
        assert registry.counter("twolayer.elements_decoded") == sum(
            len(lst) for lst in distinct
        )

    def test_cache_entries_own_their_memory(self, corpus):
        collection, queries = corpus
        engine = SimilarityEngine(collection, cache_entries=100000)
        engine.search_batch(queries, 0.8)
        arrays = [engine.cache.get(lst) for lst in self._distinct_lists(
            engine, queries
        )]
        assert all(array is not None and array.base is None for array in arrays)
        assert engine.cache.current_bytes == sum(array.nbytes for array in arrays)

    def test_mixed_batch_decodes_only_the_misses(self, corpus):
        collection, queries = corpus
        engine = SimilarityEngine(collection, cache_entries=100000)
        distinct = self._distinct_lists(engine, queries)
        for lst in distinct[::2]:
            engine.cache.fetch(lst)
        before = engine.cache_stats()
        results = engine.search_batch(queries, 0.8)
        after = engine.cache_stats()
        reference = SimilarityEngine(collection, cache_entries=0)
        assert [r.ids for r in results] == [
            reference.search(query, 0.8).ids for query in queries
        ]
        misses = after["misses"] - before["misses"]
        assert misses == after["insertions"] - before["insertions"]
        assert misses == len(distinct) - len(distinct[::2])
        assert after["hits"] - before["hits"] == len(distinct[::2])

    def test_single_query_path_caches_on_first_touch(self, corpus):
        collection, queries = corpus
        index = SimilarityEngine(collection, cache_entries=0).index
        for query in queries[:8]:
            engine = SimilarityEngine(index=index, cache_entries=100000)
            probed = self._distinct_lists(engine, [query])
            engine.search(query, 0.8)
            first = engine.cache_stats()
            assert first["misses"] == first["insertions"] == len(probed)
            assert first["hits"] == 0
            engine.search(query, 0.8)
            second = engine.cache_stats()
            assert second["hits"] == len(probed)
            assert second["misses"] == first["misses"]
        engine = SimilarityEngine(index=index, cache_entries=100000)
        for query in queries:
            engine.search(query, 0.8)
        stats = engine.cache_stats()
        # MergeSkip decodes every probed list: the parent's numbers too
        assert (stats["hits"], stats["misses"], stats["insertions"]) == (
            641,
            306,
            306,
        )

    @pytest.mark.parametrize("algorithm", ["scancount", "divideskip"])
    def test_single_divided_count_queries_decode_short_lists(
        self, corpus, algorithm
    ):
        """A single query is a batch of one, so a ScanCount or DivideSkip
        query reads only the short lists of its divided count."""
        collection, queries = corpus
        engine = SimilarityEngine(
            collection, cache_entries=100000, algorithm=algorithm
        )
        for query in queries:
            engine.search(query, 0.8)
        stats = engine.cache_stats()
        # the parent decoded every probed list here: (641, 306, 306)
        assert (stats["hits"], stats["misses"], stats["insertions"]) == (
            34,
            231,
            231,
        )

    def test_interleaved_paths_insert_every_miss(self, corpus):
        collection, queries = corpus
        engine = SimilarityEngine(collection, cache_entries=100000)
        for start in range(0, len(queries), 16):
            for query in queries[start : start + 4]:
                engine.search(query, 0.8)
            engine.search_batch(queries[start + 4 : start + 16], 0.8)
            stats = engine.cache_stats()
            assert stats["misses"] == stats["insertions"]
        assert stats["misses"] == len(self._distinct_lists(engine, queries))
