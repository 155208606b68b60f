"""Tests for the batch-native T-occurrence kernels (search.batchkernels)."""

from collections import Counter

import numpy as np
import pytest

from repro.compression import CSSList, UncompressedList
from repro.search.batchkernels import (
    batch_candidates,
    batch_scan_count,
    decode_postings,
)
from repro.search.toccurrence import merge_skip, scan_count


def _random_batch(rng, batch=12, universe=3000):
    """(per_query_arrays, thresholds): mixed sizes, some degenerate rows."""
    per_query, thresholds = [], []
    for row in range(batch):
        count = int(rng.integers(0, 9))
        arrays = [
            np.unique(rng.integers(0, universe, size=int(rng.integers(0, 400))))
            for _ in range(count)
        ]
        per_query.append(arrays)
        thresholds.append(int(rng.integers(1, max(2, count + 2))))
    return per_query, thresholds


def _expected(arrays, threshold):
    counts = Counter()
    for array in arrays:
        counts.update(array.tolist())
    if len(arrays) < threshold:
        return []
    return sorted(x for x, c in counts.items() if c >= threshold)


class TestBatchScanCount:
    def test_matches_serial_scan_count(self, rng):
        per_query, thresholds = _random_batch(rng)
        got = batch_scan_count(per_query, thresholds, universe=3000)
        for arrays, threshold, answer in zip(per_query, thresholds, got):
            lists = [UncompressedList(a) for a in arrays]
            assert answer.tolist() == scan_count(lists, threshold, 3000).tolist()

    def test_chunking_is_invisible(self, rng, monkeypatch):
        """A tiny cell budget forces many chunks; answers are unchanged."""
        import repro.search.batchkernels as bk

        per_query, thresholds = _random_batch(rng, batch=20)
        whole = batch_scan_count(per_query, thresholds, universe=3000)
        monkeypatch.setattr(bk, "SCANCOUNT_CELL_BUDGET", 3000)
        chunked = batch_scan_count(per_query, thresholds, universe=3000)
        for a, b in zip(whole, chunked):
            assert a.tolist() == b.tolist()

    def test_ids_beyond_universe(self):
        """Same growth fix as serial scan_count: ids past ``universe``."""
        per_query = [[np.asarray([2, 90]), np.asarray([90])]]
        got = batch_scan_count(per_query, [2], universe=10)
        assert got[0].tolist() == [90]

    def test_empty_batch(self):
        assert batch_scan_count([], [], universe=10) == []

    def test_all_rows_degenerate(self):
        per_query = [[], [np.empty(0, np.int64)]]
        got = batch_scan_count(per_query, [1, 1], universe=10)
        assert [a.size for a in got] == [0, 0]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            batch_scan_count([[np.asarray([1])]], [0], universe=10)
        with pytest.raises(ValueError):
            batch_scan_count([[np.asarray([1])]], [1, 2], universe=10)


def _merge_skip_batch(per_query_arrays, thresholds):
    return batch_candidates("mergeskip", per_query_arrays, thresholds, 0)


class TestBatchMergeSkip:
    """A MergeSkip batch is ``toccurrence.merge_skip`` run once per row
    over cursors on the row's decoded ids."""

    def test_matches_serial_merge_skip(self, rng):
        per_query, thresholds = _random_batch(rng)
        got = _merge_skip_batch(per_query, thresholds)
        for arrays, threshold, answer in zip(per_query, thresholds, got):
            lists = [CSSList(a) for a in arrays if a.size]
            assert answer.tolist() == merge_skip(lists, threshold).tolist()
            assert answer.tolist() == _expected(arrays, threshold)

    def test_skewed_rows_and_thresholds(self, rng):
        """Rows of very different lengths and thresholds in one batch."""
        per_query = [
            [np.arange(0, 50_000, 3), np.arange(0, 50_000, 5)],
            [np.asarray([1, 2]), np.asarray([2, 3]), np.asarray([2])],
            [np.asarray([7])],
        ]
        thresholds = [2, 3, 1]
        got = _merge_skip_batch(per_query, thresholds)
        for arrays, threshold, answer in zip(per_query, thresholds, got):
            assert answer.tolist() == _expected(arrays, threshold)

    def test_duplicate_heavy_lists(self, rng):
        """Many cursors parked on the same value: the emit/advance path;
        a row may share one decoded array with another."""
        shared = np.arange(100)
        per_query = [[shared, shared.copy(), shared.copy()], [shared, shared]]
        got = _merge_skip_batch(per_query, [3, 2])
        assert got[0].tolist() == got[1].tolist() == shared.tolist()

    def test_empty_batch_and_degenerate_rows(self):
        assert _merge_skip_batch([], []) == []
        got = _merge_skip_batch([[], [np.empty(0, np.int64)]], [1, 1])
        assert [a.size for a in got] == [0, 0]
        # fewer populated lists than T: no answers
        got = _merge_skip_batch([[np.asarray([4]), np.empty(0, np.int64)]], [2])
        assert got[0].size == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            _merge_skip_batch([[np.asarray([1])]], [0])
        with pytest.raises(ValueError):
            _merge_skip_batch([[np.asarray([1])]], [1, 2])


class TestBatchDispatch:
    def test_dispatch_matches_kernels(self, rng):
        per_query, thresholds = _random_batch(rng, batch=6)
        for name in ("scancount", "divideskip"):
            by_name = batch_candidates(name, per_query, thresholds, 3000)
            direct = batch_scan_count(per_query, thresholds, 3000)
            assert [a.tolist() for a in by_name] == [
                b.tolist() for b in direct
            ]
        by_name = batch_candidates("mergeskip", per_query, thresholds, 3000)
        serial = [
            merge_skip([UncompressedList(a) for a in arrays], threshold)
            for arrays, threshold in zip(per_query, thresholds)
        ]
        assert [a.tolist() for a in by_name] == [b.tolist() for b in serial]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            batch_candidates("heapmerge", [], [], 10)


class TestDecodePostings:
    def test_memo_decodes_each_list_once(self):
        class CountingList:
            def __init__(self, ids):
                self.ids = np.asarray(ids, dtype=np.int64)
                self.decodes = 0

            def to_array(self):
                self.decodes += 1
                return self.ids

        shared = CountingList([1, 2, 3])
        other = CountingList([4])
        memo = {}
        first = decode_postings([shared, other], memo=memo)
        second = decode_postings([shared], memo=memo)
        assert shared.decodes == 1
        assert other.decodes == 1
        assert first[0] is second[0]

    def test_cache_route(self):
        from repro.engine.cache import DecodeCache

        cache = DecodeCache(max_entries=8)
        lst = CSSList(np.asarray([3, 9, 27], dtype=np.int64))
        out = decode_postings([lst], cache=cache)
        assert out[0].tolist() == [3, 9, 27]
        assert cache.stats()["insertions"] == 1

    def test_cached_view_unwrapped_to_shared_memo_key(self):
        from repro.engine.cache import DecodeCache

        cache = DecodeCache(max_entries=8)
        lst = CSSList(np.asarray([5, 6], dtype=np.int64))
        cache.fetch(lst)
        view = cache.wrap(lst)
        memo = {}
        a = decode_postings([view], cache=cache, memo=memo)
        b = decode_postings([lst], cache=cache, memo=memo)
        assert len(memo) == 1
        assert a[0].tolist() == b[0].tolist() == [5, 6]

    def test_mixed_schemes_match_to_array(self, rng):
        """Two-layer stores (offline lists, online compressed regions with
        their buffered tails) decode together; other schemes decode alone."""
        from repro.core import offline_factory, online_factory

        lists = []
        for scheme in ("css", "milc", "uncomp", "pfordelta"):
            for _ in range(3):
                size = int(rng.integers(1, 700))
                ids = np.unique(rng.integers(0, 50_000, size=size))
                lists.append(offline_factory(scheme)(ids))
        for scheme in ("adapt", "fix", "uncomp"):
            for size in (0, 5, 300):
                lst = online_factory(scheme)()
                lst.extend(np.cumsum(rng.integers(1, 60, size=size)).tolist())
                lists.append(lst)
        # some online list holds both regions
        assert any(lst.num_blocks and lst.buffer_length for lst in lists[12:])
        got = decode_postings(lists)
        for lst, array in zip(lists, got):
            assert array.tolist() == lst.to_array().tolist()

    def test_overridden_to_array_is_kept(self):
        """A list class that decodes its own way is not routed through its
        store, even when it has one."""
        from repro.compression.online.adapt import AdaptList

        class ShiftedAdapt(AdaptList):
            def to_array(self):
                return super().to_array() + 1

        class ShiftedCSS(CSSList):
            def to_array(self):
                return super().to_array() + 1

        online = ShiftedAdapt()
        online.extend(range(0, 3000, 7))
        assert online.num_blocks and online.buffer_length
        ids = np.arange(0, 900, 3, dtype=np.int64)
        offline, plain = ShiftedCSS(ids), CSSList(ids)
        got = decode_postings([online, offline, plain])
        assert got[0].tolist() == online.to_array().tolist()
        assert got[1].tolist() == offline.to_array().tolist()
        assert got[2].tolist() == plain.to_array().tolist()
