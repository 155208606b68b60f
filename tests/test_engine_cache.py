"""Tests for the shared posting-decode cache (`repro.engine.cache`)."""

import numpy as np
import pytest

from repro.compression import CSSList, UncompressedList
from repro.engine import CachedListView, DecodeCache
from repro.obs import enabled_metrics


def make_list(start=0, count=50, step=3, cls=CSSList):
    return cls(np.arange(start, start + count * step, step, dtype=np.int64))


class TestFetchAccounting:
    def test_miss_then_hit(self):
        cache = DecodeCache()
        lst = make_list()
        with enabled_metrics() as registry:
            first = cache.fetch(lst)
            second = cache.fetch(lst)
        assert first is second
        assert np.array_equal(first, lst.to_array())
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["insertions"] == 1
        assert registry.counter("engine.cache.misses") == 1
        assert registry.counter("engine.cache.hits") == 1
        assert registry.counter("engine.cache.bytes_added") == first.nbytes

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
    def test_admit_after_two_touches(self):
        cache = DecodeCache(admit_after=2)
        lst = make_list()
        assert cache.admit(lst) is None  # touch 1: stays compressed
        assert len(cache) == 0
        assert cache.admit(lst) is not None  # touch 2: decoded + cached
        assert len(cache) == 1
        assert cache.stats()["hits"] == 0
        assert cache.admit(lst) is not None  # touch 3: served from cache
        assert cache.stats()["hits"] == 1

    def test_admit_after_one_caches_immediately(self):
        cache = DecodeCache(admit_after=1)
        assert cache.admit(make_list()) is not None

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            DecodeCache(admit_after=0)
        with pytest.raises(ValueError):
            DecodeCache(max_entries=-1)
        with pytest.raises(ValueError):
            DecodeCache(max_bytes=-1)


class TestEviction:
    def test_lru_eviction_under_entry_bound(self):
        cache = DecodeCache(max_entries=2, admit_after=1)
        lists = [make_list(i * 1000) for i in range(3)]
        with enabled_metrics() as registry:
            for lst in lists:
                cache.fetch(lst)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert registry.counter("engine.cache.evictions") == 1
        # the oldest entry went; re-fetching it is a miss, the newest a hit
        before = cache.stats()["misses"]
        cache.fetch(lists[0])
        assert cache.stats()["misses"] == before + 1
        hits = cache.stats()["hits"]
        cache.fetch(lists[2])
        assert cache.stats()["hits"] == hits + 1

    def test_touch_refreshes_lru_position(self):
        cache = DecodeCache(max_entries=2, admit_after=1)
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
        cache = DecodeCache(
            max_entries=None, max_bytes=one_entry_bytes, admit_after=1
        )
        cache.fetch(make_list(0))
        cache.fetch(make_list(1000))
        assert len(cache) == 1
        assert cache.current_bytes <= one_entry_bytes
        assert cache.stats()["evictions"] == 1


class TestInvalidation:
    def test_invalidate_drops_entry(self):
        cache = DecodeCache(admit_after=1)
        lst = make_list()
        cache.fetch(lst)
        assert cache.invalidate(lst)
        assert len(cache) == 0
        assert not cache.invalidate(lst)  # already gone
        misses = cache.stats()["misses"]
        cache.fetch(lst)
        assert cache.stats()["misses"] == misses + 1

    def test_clear(self):
        cache = DecodeCache(admit_after=1)
        for i in range(4):
            cache.fetch(make_list(i * 1000))
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.stats()["invalidations"] == 4


class TestCachedListView:
    @pytest.mark.parametrize("cls", [UncompressedList, CSSList])
    def test_view_matches_inner_in_both_states(self, cls):
        cache = DecodeCache(admit_after=2)
        lst = make_list(cls=cls)
        reference = lst.to_array()
        cold = cache.wrap(lst)  # not yet admitted: delegates to compressed
        assert not cold.cached
        hot = cache.wrap(lst)  # second touch: served from the cached array
        assert hot.cached
        for view in (cold, hot):
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
        cache = DecodeCache(admit_after=1)
        lst = make_list()
        view = cache.wrap(lst)
        cursor = view.cursor()
        seen = []
        while not cursor.exhausted:
            seen.append(cursor.value())
            cursor.advance()
        assert seen == lst.to_array().tolist()
