"""Tests for the SIMD-style k-ary search (§6.2.2)."""

import bisect

import numpy as np
import pytest

from repro.compression.simdsearch import KarySearcher


class TestKarySearcher:
    def test_empty(self):
        assert KarySearcher([]).lower_bound(5) == 0

    def test_matches_bisect_randomized(self, rng, random_ids):
        searcher = KarySearcher(random_ids, k=16)
        sorted_list = random_ids.tolist()
        probes = np.concatenate(
            [random_ids[::11], random_ids[::13] + 1, [0, 10**9]]
        )
        for key in probes.tolist():
            assert searcher.lower_bound(key) == bisect.bisect_left(
                sorted_list, key
            ), key

    def test_duplicates(self):
        searcher = KarySearcher([2, 2, 2, 5, 5, 9])
        assert searcher.lower_bound(2) == 0
        assert searcher.lower_bound(5) == 3
        assert searcher.lower_bound(6) == 5

    @pytest.mark.parametrize("k", [2, 4, 16, 64])
    def test_various_fanouts(self, k, random_ids):
        searcher = KarySearcher(random_ids, k=k)
        for key in random_ids[::31].tolist():
            assert searcher.lower_bound(key) == int(
                np.searchsorted(random_ids, key)
            )

    def test_step_count_is_log_k(self, random_ids):
        searcher = KarySearcher(random_ids, k=16)
        searcher.steps = 0
        searcher.lower_bound(int(random_ids[7]))
        assert searcher.steps <= searcher.expected_depth() + 1

    def test_higher_fanout_fewer_steps(self, random_ids):
        narrow = KarySearcher(random_ids, k=2)
        wide = KarySearcher(random_ids, k=64)
        key = int(random_ids[len(random_ids) // 3])
        narrow.lower_bound(key)
        wide.lower_bound(key)
        assert wide.steps < narrow.steps

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KarySearcher([1], k=1)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            KarySearcher([3, 1])

    def test_exhaustive_small(self):
        values = [0, 4, 4, 9, 15, 15, 15, 22]
        searcher = KarySearcher(values, k=3)
        for key in range(-1, 25):
            assert searcher.lower_bound(key) == bisect.bisect_left(
                values, key
            ), key
