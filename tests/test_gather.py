"""Tests for the heterogeneous-width vectorized gather (whole-list decode)."""

import numpy as np
import pytest

import repro.compression.twolayer as twolayer
from repro.compression.bitpack import BitBuffer
from repro.compression.constants import MAX_DELTA_WIDTH, MAX_ELEMENT
from repro.compression.twolayer import TwoLayerStore, decode_stores
from repro.obs import enabled_metrics


class TestGather:
    def test_matches_read_one(self, rng):
        buf = BitBuffer()
        fields = []  # (offset, width, value)
        for _ in range(50):
            width = int(rng.integers(1, 33))
            values = rng.integers(0, 2**width, size=int(rng.integers(1, 20)))
            offset = buf.append(values.astype(np.uint64), width)
            for i, value in enumerate(values.tolist()):
                fields.append((offset + width * i, width, value))
        positions = np.asarray([f[0] for f in fields], dtype=np.int64)
        widths = np.asarray([f[1] for f in fields], dtype=np.int64)
        out = buf.gather(positions, widths)
        assert out.tolist() == [f[2] for f in fields]

    def test_empty(self):
        buf = BitBuffer()
        out = buf.gather(np.empty(0, np.int64), np.empty(0, np.int64))
        assert out.size == 0

    def test_unordered_positions(self):
        buf = BitBuffer()
        buf.append(np.asarray([5, 9, 2], dtype=np.uint64), 4)
        out = buf.gather(
            np.asarray([8, 0, 4], dtype=np.int64),
            np.asarray([4, 4, 4], dtype=np.int64),
        )
        assert out.tolist() == [2, 5, 9]

    def test_word_straddling_widths(self):
        buf = BitBuffer()
        values = np.arange(20, dtype=np.uint64) + 2**25
        buf.append(values, 27)  # fields straddle 64-bit word boundaries
        positions = 27 * np.arange(20, dtype=np.int64)
        widths = np.full(20, 27, dtype=np.int64)
        assert np.array_equal(buf.gather(positions, widths), values)


class TestGatherBounds:
    """Corrupted extents must raise, not read garbage bits (bugfix)."""

    def _buffer_with_bits(self, num_fields=10, width=8):
        buf = BitBuffer()
        buf.append(np.arange(num_fields, dtype=np.uint64), width)
        return buf

    def test_position_past_end_rejected(self):
        buf = self._buffer_with_bits()
        with pytest.raises(IndexError, match="past end"):
            buf.gather(
                np.asarray([buf.num_bits], dtype=np.int64),
                np.asarray([8], dtype=np.int64),
            )

    def test_field_straddling_end_rejected(self):
        buf = self._buffer_with_bits()  # num_bits = 80
        with pytest.raises(IndexError, match="past end"):
            buf.gather(
                np.asarray([buf.num_bits - 4], dtype=np.int64),
                np.asarray([8], dtype=np.int64),
            )

    def test_last_valid_field_still_readable(self):
        buf = self._buffer_with_bits()
        out = buf.gather(
            np.asarray([buf.num_bits - 8], dtype=np.int64),
            np.asarray([8], dtype=np.int64),
        )
        assert out.tolist() == [9]

    def test_width_zero_rejected(self):
        buf = self._buffer_with_bits()
        with pytest.raises(IndexError, match="width"):
            buf.gather(
                np.asarray([0], dtype=np.int64),
                np.asarray([0], dtype=np.int64),
            )

    def test_width_above_64_rejected(self):
        buf = self._buffer_with_bits()
        with pytest.raises(IndexError, match="width"):
            buf.gather(
                np.asarray([0], dtype=np.int64),
                np.asarray([65], dtype=np.int64),
            )

    def test_huge_position_rejected(self):
        buf = self._buffer_with_bits()
        with pytest.raises(IndexError):
            buf.gather(
                np.asarray([2**62], dtype=np.int64),
                np.asarray([8], dtype=np.int64),
            )


class TestVectorizedStoreDecode:
    def test_matches_per_block_decode(self, rng):
        """to_array (one gather) equals concatenated per-block decodes."""
        store = TwoLayerStore()
        base = 0
        for _ in range(40):
            base += int(rng.integers(1, 10**6))
            run = base + np.cumsum(
                rng.integers(1, 1000, size=int(rng.integers(1, 30)))
            )
            store.append_block(run)
            base = int(run[-1])
        per_block = np.concatenate(
            [store.decode_block(b) for b in range(store.num_blocks)]
        )
        assert np.array_equal(store.to_array(), per_block)

    def test_single_element_blocks(self):
        store = TwoLayerStore()
        for value in (5, 100, 10**6):
            store.append_block(np.asarray([value]))
        assert store.to_array().tolist() == [5, 100, 10**6]


class TestGatherRuns:
    def test_matches_per_field_gather(self, rng):
        buf = BitBuffer()
        offsets, widths, counts, expected = [], [], [], []
        for _ in range(30):
            width = int(rng.integers(1, 33))
            values = rng.integers(0, 2**width, size=int(rng.integers(1, 25)))
            offset = buf.append(values.astype(np.uint64), width)
            offsets.append(offset)
            widths.append(width)
            counts.append(values.size)
            expected.extend(values.tolist())
        out = buf.gather_runs(
            np.asarray(offsets), np.asarray(widths), np.asarray(counts)
        )
        assert out.tolist() == expected

    def test_zero_length_runs_skipped(self):
        buf = BitBuffer()
        offset = buf.append(np.asarray([7, 8], dtype=np.uint64), 4)
        out = buf.gather_runs(
            np.asarray([offset, offset]),
            np.asarray([4, 4]),
            np.asarray([2, 0]),
        )
        assert out.tolist() == [7, 8]

    def test_empty(self):
        buf = BitBuffer()
        out = buf.gather_runs(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert out.size == 0

    def test_misaligned_inputs_rejected(self):
        buf = BitBuffer()
        with pytest.raises(ValueError):
            buf.gather_runs(
                np.asarray([0]), np.asarray([4, 4]), np.asarray([1])
            )

    def test_negative_count_rejected(self):
        buf = BitBuffer()
        buf.append(np.asarray([1], dtype=np.uint64), 4)
        with pytest.raises(ValueError):
            buf.gather_runs(np.asarray([0]), np.asarray([4]), np.asarray([-1]))


def _random_store(rng, blocks):
    """``blocks`` random blocks of 1-39 ids each."""
    store = TwoLayerStore()
    base = 0
    for _ in range(blocks):
        base += int(rng.integers(1, 10**4))
        run = base + np.cumsum(
            rng.integers(1, 500, size=int(rng.integers(1, 40)))
        )
        store.append_block(run)
        base = int(run[-1])
    return store


class TestDecodeBlocks:
    def test_max_width_bits(self, rng):
        store = _random_store(rng, 20)
        # repro: noqa RA08 -- asserting the public accessor against the raw
        assert store.max_width_bits() == max(store._widths)
        assert TwoLayerStore().max_width_bits() == 0


def _assert_matches_to_array(stores):
    got = decode_stores(stores)
    assert len(got) == len(stores)
    for store, array in zip(stores, got):
        assert array.dtype == np.int64
        assert np.array_equal(array, store.to_array())


@pytest.fixture(params=["gather", "scalar"])
def decode_pass(request, monkeypatch):
    """Every chunk through the numpy gather, or through the scalar loop."""
    threshold = 0 if request.param == "gather" else 1 << 40
    monkeypatch.setattr(twolayer, "SCALAR_DECODE_ELEMENTS", threshold)


@pytest.mark.usefixtures("decode_pass")
class TestDecodeStores:
    """``decode_stores`` equals a per-store ``to_array``, chunked or not."""

    def test_random_stores(self, rng):
        stores = [
            _random_store(rng, int(rng.integers(0, 25))) for _ in range(60)
        ]
        _assert_matches_to_array(stores)

    def test_empty_input(self):
        assert decode_stores([]) == []

    def test_empty_stores_among_others(self, rng):
        stores = [TwoLayerStore(), _random_store(rng, 4), TwoLayerStore()]
        got = decode_stores(stores)
        assert [array.size for array in got] == [0, len(stores[1]), 0]
        _assert_matches_to_array(stores)

    def test_single_element_blocks(self):
        stores = []
        for start in range(5):
            store = TwoLayerStore()
            for value in (start, 100 + start, 10**6 + start):
                store.append_block(np.asarray([value]))
            stores.append(store)
        stores.append(_random_store(np.random.default_rng(3), 6))
        _assert_matches_to_array(stores)

    def test_full_width_deltas(self):
        stores = []
        for shift in range(4):
            store = TwoLayerStore()
            store.append_block(
                np.asarray([shift, 2**31 + shift, MAX_ELEMENT - 3 + shift])
            )
            assert store.max_width_bits() == MAX_DELTA_WIDTH
            stores.append(store)
        _assert_matches_to_array(stores)

    def test_word_straddling_fields(self):
        stores = []
        for start in range(3):
            store = TwoLayerStore()
            # 27-bit deltas: fields cross 64-bit word boundaries, and every
            # store ends mid-word, so its neighbour's words start a new word
            store.append_block(start + np.arange(21) * 2**22)
            store.append_block(2**27 + start + np.arange(9) * 2**21)
            stores.append(store)
        _assert_matches_to_array(stores)

    def test_frozen_zero_copy_stores(self, rng):
        stores = [
            TwoLayerStore.from_arrays(
                _random_store(rng, int(rng.integers(1, 12))).to_arrays(),
                copy=False,
            )
            for _ in range(10)
        ]
        _assert_matches_to_array(stores)

    @pytest.mark.parametrize("budget", [1, 7, 64, 300])
    def test_chunk_edges_mid_batch(self, rng, monkeypatch, budget):
        """Stores larger than the budget, and chunk edges between stores
        in the middle of the batch, change nothing."""
        stores = [
            _random_store(rng, int(rng.integers(0, 15))) for _ in range(40)
        ]
        assert max(len(store) for store in stores) > budget
        monkeypatch.setattr(twolayer, "DECODE_CHUNK_ELEMENTS", budget)
        _assert_matches_to_array(stores)

    def test_counters_sum_over_stores(self, rng):
        stores = [_random_store(rng, int(rng.integers(1, 9))) for _ in range(20)]
        with enabled_metrics() as registry:
            decode_stores(stores)
        assert registry.counter("twolayer.blocks_decoded") == sum(
            store.num_blocks for store in stores
        )
        assert registry.counter("twolayer.elements_decoded") == sum(
            len(store) for store in stores
        )

    def test_block_past_its_own_bits_rejected(self, rng):
        """A store whose metadata points past its own ``num_bits`` raises,
        instead of reading the next store's words."""
        broken, neighbour = _random_store(rng, 6), _random_store(rng, 6)
        broken.append_block(10**7 + np.arange(0, 3000, 100))  # 12-bit deltas
        # the last block's deltas now end past the store's data: in the
        # concatenated buffer they would run into the neighbour's words
        broken._data._num_bits -= 70
        with pytest.raises(IndexError):
            broken.to_array()
        with pytest.raises(IndexError, match="num_bits"):
            decode_stores([broken, neighbour])
