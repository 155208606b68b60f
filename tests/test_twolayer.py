"""Unit tests for the two-layer store, block cost model, and cursors."""

import numpy as np
import pytest

from repro.compression.base import MAX_ELEMENT, METADATA_BITS
from repro.compression.twolayer import (
    TwoLayerCursor,
    TwoLayerList,
    TwoLayerStore,
    block_cost_bits,
    block_saving_bits,
)

from conftest import FIGURE_2_2_LIST


class TestBlockCostModel:
    def test_single_element_block_costs_metadata_only(self):
        assert block_cost_bits(1, 0) == METADATA_BITS

    def test_cost_matches_example_1(self):
        # Example 1: B1 holds 8 elements, max delta 987 -> 69 + 7 * 10
        assert block_cost_bits(8, 987) == 69 + 70

    def test_saving_is_uncompressed_minus_cost(self):
        assert block_saving_bits(8, 987) == 32 * 8 - (69 + 70)

    def test_saving_negative_for_single_element(self):
        # one element: 32 uncompressed vs 69 metadata -> saves -37 (= -rho)
        assert block_saving_bits(1, 0) == -37

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            block_cost_bits(0, 0)


class TestTwoLayerStore:
    def test_append_and_decode_single_block(self):
        store = TwoLayerStore()
        store.append_block(np.array([10, 20, 30]))
        assert len(store) == 3
        assert store.to_array().tolist() == [10, 20, 30]
        assert store.block_sizes() == [3]

    def test_blocks_must_ascend(self):
        store = TwoLayerStore()
        store.append_block(np.array([10, 20]))
        with pytest.raises(ValueError):
            store.append_block(np.array([15, 25]))

    def test_empty_block_rejected(self):
        store = TwoLayerStore()
        with pytest.raises(ValueError):
            store.append_block(np.empty(0, dtype=np.int64))

    def test_unsorted_block_rejected(self):
        store = TwoLayerStore()
        with pytest.raises(ValueError):
            store.append_block(np.array([5, 3]))

    def test_duplicate_ids_rejected(self):
        store = TwoLayerStore()
        with pytest.raises(ValueError):
            store.append_block(np.array([3, 3]))

    def test_last_value(self):
        store = TwoLayerStore()
        store.append_block(np.array([1, 5, 9]))
        assert store.last_value() == 9
        store.append_block(np.array([12]))
        assert store.last_value() == 12

    def test_last_value_empty_raises(self):
        with pytest.raises(IndexError):
            TwoLayerStore().last_value()

    def test_get_across_blocks(self, random_ids):
        store = TwoLayerStore()
        for start in range(0, random_ids.size, 50):
            store.append_block(random_ids[start : start + 50])
        for i in (0, 1, 49, 50, 51, random_ids.size - 1):
            assert store.get(i) == random_ids[i]

    def test_get_out_of_range(self):
        store = TwoLayerStore()
        store.append_block(np.array([1]))
        with pytest.raises(IndexError):
            store.get(1)
        with pytest.raises(IndexError):
            store.get(-1)

    def test_size_bits_accounting(self):
        store = TwoLayerStore()
        store.append_block(np.array([100, 101, 102, 103]))  # width 2, 3 deltas
        assert store.size_bits() == METADATA_BITS + 3 * 2

    def test_lower_bound_exhaustive(self, clustered_ids):
        store = TwoLayerStore()
        for start in range(0, clustered_ids.size, 17):
            store.append_block(clustered_ids[start : start + 17])
        values = clustered_ids.tolist()
        probes = (
            [0, values[0] - 1, values[0], values[-1], values[-1] + 1]
            + values[::7]
            + [v + 1 for v in values[::11]]
        )
        for key in probes:
            expected = int(np.searchsorted(clustered_ids, key, side="left"))
            assert store.lower_bound(key) == expected, key


class TestListBlocks:
    """A block handed in as a Python list is packed in integer arithmetic;
    it must leave exactly the arrays a numpy block leaves, and refuse
    exactly what the numpy path refuses, with the same message."""

    @staticmethod
    def _twins(blocks):
        as_list, as_array = TwoLayerStore(), TwoLayerStore()
        for block in blocks:
            as_list.append_block(list(block))
            as_array.append_block(np.asarray(block, dtype=np.int64))
        return as_list, as_array

    def test_arrays_identical(self, clustered_ids, random_ids):
        for ids, step in ((clustered_ids, 17), (random_ids, 33), (random_ids, 1)):
            values = ids.tolist()
            blocks = [values[i : i + step] for i in range(0, len(values), step)]
            as_list, as_array = self._twins(blocks)
            got, want = as_list.to_arrays(), as_array.to_arrays()
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].dtype == want[key].dtype, key
                assert np.array_equal(got[key], want[key]), key
            assert as_list.to_array().tolist() == values

    def test_widest_block(self):
        as_list, as_array = self._twins([[0, 1], [2, MAX_ELEMENT]])
        for key, array in as_array.to_arrays().items():
            assert np.array_equal(as_list.to_arrays()[key], array), key
        assert as_list.to_array().tolist() == [0, 1, 2, MAX_ELEMENT]

    @pytest.mark.parametrize(
        "block",
        [
            [],
            [5, 3],
            [3, 3],
            [7, 9, 8, 12],
            [-1, 4],
            [4, MAX_ELEMENT + 1],
            [-1, MAX_ELEMENT + 1],
            [50],  # below the tail
            [100, 160],  # starts at the tail
        ],
    )
    def test_same_errors(self, block):
        as_list, as_array = self._twins([[10, 100]])
        with pytest.raises(ValueError) as list_error:
            as_list.append_block(list(block))
        with pytest.raises(ValueError) as array_error:
            as_array.append_block(np.asarray(block, dtype=np.int64))
        assert str(list_error.value) == str(array_error.value)
        # a refused block leaves the store as it was
        assert as_list.to_array().tolist() == [10, 100]

    def test_frozen_store_same_error(self):
        as_list, _ = self._twins([[10, 100]])
        frozen = TwoLayerStore.from_arrays(as_list.to_arrays(), copy=False)
        with pytest.raises(ValueError) as list_error:
            frozen.append_block([200])
        with pytest.raises(ValueError) as array_error:
            frozen.append_block(np.asarray([200]))
        assert str(list_error.value) == str(array_error.value)


class TestTwoLayerList:
    def test_explicit_boundaries(self):
        lst = TwoLayerList([1, 2, 3, 100, 101], [0, 3])
        assert lst.block_sizes() == [3, 2]
        assert lst.to_array().tolist() == [1, 2, 3, 100, 101]

    def test_boundaries_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TwoLayerList([1, 2, 3], [1])

    def test_invalid_boundary_order(self):
        with pytest.raises(ValueError):
            TwoLayerList([1, 2, 3], [0, 2, 2])

    def test_empty_list(self):
        lst = TwoLayerList([], [])
        assert len(lst) == 0
        assert lst.to_array().size == 0
        assert lst.lower_bound(5) == 0
        assert not lst.contains(5)

    def test_contains(self):
        lst = TwoLayerList(FIGURE_2_2_LIST, [0, 8, 16])
        for value in FIGURE_2_2_LIST:
            assert lst.contains(value)
        assert not lst.contains(4)
        assert not lst.contains(9000)

    def test_compression_ratio_example_1(self):
        # MILC partition of the running example: ratio 672 / 404
        lst = TwoLayerList(FIGURE_2_2_LIST, [0, 8, 16])
        assert lst.size_bits() == 404
        assert lst.compression_ratio() == pytest.approx(672 / 404)


class TestTwoLayerCursor:
    def _store(self, values, block=13):
        store = TwoLayerStore()
        for start in range(0, len(values), block):
            store.append_block(np.asarray(values[start : start + block]))
        return store

    def test_full_iteration(self, random_ids):
        store = self._store(random_ids)
        cursor = TwoLayerCursor(store)
        seen = []
        while not cursor.exhausted:
            seen.append(cursor.value())
            cursor.advance()
        assert seen == random_ids.tolist()

    def test_value_after_exhaustion_raises(self):
        cursor = TwoLayerCursor(self._store([1, 2]))
        cursor.advance()
        cursor.advance()
        assert cursor.exhausted
        with pytest.raises(IndexError):
            cursor.value()

    def test_seek_forward_only(self, clustered_ids):
        store = self._store(clustered_ids, block=9)
        cursor = TwoLayerCursor(store)
        cursor.seek(int(clustered_ids[40]))
        assert cursor.value() == clustered_ids[40]
        # seeking backwards must not move the cursor
        cursor.seek(int(clustered_ids[2]))
        assert cursor.value() == clustered_ids[40]

    def test_seek_between_blocks(self):
        store = self._store([1, 2, 3, 100, 200, 300], block=3)
        cursor = TwoLayerCursor(store)
        cursor.seek(50)
        assert cursor.value() == 100

    def test_seek_past_end_exhausts(self):
        store = self._store([1, 2, 3])
        cursor = TwoLayerCursor(store)
        cursor.seek(10)
        assert cursor.exhausted

    def test_seek_matches_searchsorted(self, rng, clustered_ids):
        store = self._store(clustered_ids, block=11)
        keys = np.sort(rng.integers(0, int(clustered_ids[-1]) + 10, size=300))
        cursor = TwoLayerCursor(store)
        for key in keys.tolist():
            cursor.seek(key)
            expected = int(np.searchsorted(clustered_ids, key, side="left"))
            if expected == clustered_ids.size:
                assert cursor.exhausted
            else:
                assert cursor.value() == clustered_ids[expected], key

    def test_position_and_remaining(self):
        store = self._store([1, 2, 3, 4, 5], block=2)
        cursor = TwoLayerCursor(store)
        assert cursor.position == 0
        assert cursor.remaining() == 5
        cursor.advance()
        cursor.advance()
        cursor.advance()
        assert cursor.position == 3
        assert cursor.remaining() == 2
