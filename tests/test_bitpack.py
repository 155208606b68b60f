"""Unit tests for the bit-packing substrate."""

import numpy as np
import pytest

from repro.compression.bitpack import BitBuffer, width_for
from repro.compression.constants import MAX_DELTA_WIDTH


class TestWidthFor:
    def test_zero_needs_one_bit(self):
        assert width_for(0) == 1

    def test_one_needs_one_bit(self):
        assert width_for(1) == 1

    def test_powers_of_two_boundaries(self):
        for k in range(1, 32):
            assert width_for(2**k - 1) == k
            assert width_for(2**k) == k + 1

    def test_paper_example_widths(self):
        # Example 1: ceil(log2(987 + 1)) = 10, ceil(log2(7248 + 1)) = 13
        assert width_for(987) == 10
        assert width_for(7248) == 13
        assert width_for(305) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            width_for(-1)


class TestBitBufferAppend:
    def test_empty_buffer(self):
        buf = BitBuffer()
        assert buf.num_bits == 0
        assert len(buf) == 0

    def test_append_returns_start_offset(self):
        buf = BitBuffer()
        assert buf.append(np.array([1, 2, 3]), 4) == 0
        assert buf.append(np.array([5]), 7) == 12

    def test_append_empty_is_noop(self):
        buf = BitBuffer()
        buf.append(np.array([3]), 5)
        assert buf.append(np.empty(0, dtype=np.uint64), 9) == 5
        assert buf.num_bits == 5

    def test_value_too_wide_rejected(self):
        buf = BitBuffer()
        with pytest.raises(ValueError):
            buf.append(np.array([16]), 4)

    def test_width_bounds(self):
        buf = BitBuffer()
        with pytest.raises(ValueError):
            buf.append(np.array([0]), 0)
        with pytest.raises(ValueError):
            buf.append(np.array([0]), 33)

    def test_max_32bit_value(self):
        buf = BitBuffer()
        buf.append(np.array([2**32 - 1]), 32)
        assert buf.read_one(0, 32, 0) == 2**32 - 1

    def test_growth_across_many_words(self):
        buf = BitBuffer(initial_words=2)
        values = np.arange(1000) % 128
        buf.append(values, 7)
        assert buf.num_bits == 7000
        assert np.array_equal(buf.read(0, 7, 1000), values.astype(np.uint64))


class TestBitBufferAppendOne:
    """The integer writer ``append_ints`` is ``append`` of a list of Python
    ints: same offsets, same words, same ``num_bits``, same errors, one
    field or a run at a time."""

    @staticmethod
    def _pair(runs):
        ints, vector = BitBuffer(initial_words=2), BitBuffer(initial_words=2)
        for values, width in runs:
            assert ints.append_ints(values, width) == vector.append(
                np.array(values, dtype=np.int64), width
            )
        return ints, vector

    def _assert_same(self, runs):
        ints, vector = self._pair(runs)
        assert ints.num_bits == vector.num_bits
        assert np.array_equal(ints._words, vector._words)

    def test_random_field_sequences_match_append(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            runs = []
            for _ in range(int(rng.integers(1, 40))):
                width = int(rng.integers(1, MAX_DELTA_WIDTH + 1))
                count = int(rng.integers(0, 20))
                values = rng.integers(0, 2**width, size=count).tolist()
                runs.append((values, width))
            self._assert_same(runs)

    def test_word_straddling_field(self):
        # 11-bit fields: the sixth spans bits 55..65, across the word edge
        self._assert_same([([1000 + i], 11) for i in range(12)])
        # ... and a run starting mid-word that crosses three word edges
        self._assert_same([([5], 7), ([2000 + i for i in range(20)], 11)])

    def test_widest_field_all_ones(self):
        top = 2**MAX_DELTA_WIDTH - 1
        widest = ([top], MAX_DELTA_WIDTH)
        self._assert_same([widest] * 5 + [([1], 3), widest, widest])
        self._assert_same([([1], 3), ([top] * 9, MAX_DELTA_WIDTH)])
        ints, _ = self._pair([([5], 7), ([top], MAX_DELTA_WIDTH)])
        assert ints.read_one(7, MAX_DELTA_WIDTH, 0) == top

    def test_empty_run_writes_nothing(self):
        ints, vector = self._pair([([3], 5), ([], 9), ([4], 5)])
        assert ints.num_bits == vector.num_bits == 10
        assert np.array_equal(ints._words, vector._words)

    @pytest.mark.parametrize(
        "value, width",
        [
            (-1, 4),
            (16, 4),
            (2**MAX_DELTA_WIDTH, MAX_DELTA_WIDTH),
            (0, 0),
            (0, MAX_DELTA_WIDTH + 1),
        ],
    )
    def test_same_errors_as_append(self, value, width):
        for values in ([value], [1, value, 2]):
            ints = BitBuffer()
            ints.append_ints([1], 1)
            with pytest.raises(ValueError) as ints_error:
                ints.append_ints(values, width)
            with pytest.raises(ValueError) as vector_error:
                BitBuffer().append(np.array(values), width)
            assert str(ints_error.value) == str(vector_error.value)
            # a refused run leaves the stream as it was
            assert ints.num_bits == 1 and ints._words.tolist()[:2] == [1, 0]


class TestBitBufferRead:
    def test_roundtrip_all_widths(self):
        rng = np.random.default_rng(0)
        for width in range(1, 33):
            buf = BitBuffer()
            values = rng.integers(0, 2**width, size=200, dtype=np.uint64)
            buf.append(values, width)
            assert np.array_equal(buf.read(0, width, 200), values), width

    def test_read_one_matches_bulk(self):
        rng = np.random.default_rng(1)
        buf = BitBuffer()
        values = rng.integers(0, 2**13, size=500, dtype=np.uint64)
        offset = buf.append(np.array([7]), 3)  # misalign the stream
        offset = buf.append(values, 13)
        for i in (0, 1, 63, 64, 255, 499):
            assert buf.read_one(offset, 13, i) == values[i]

    def test_word_boundary_straddling(self):
        buf = BitBuffer()
        # 11-bit fields: field 5 spans bits 55..66, crossing the word edge
        values = np.arange(12, dtype=np.uint64) + 1000
        buf.append(values, 11)
        for i in range(12):
            assert buf.read_one(0, 11, i) == values[i]

    def test_read_past_end_raises(self):
        buf = BitBuffer()
        buf.append(np.array([1, 2]), 8)
        with pytest.raises(IndexError):
            buf.read(0, 8, 3)
        with pytest.raises(IndexError):
            buf.read_one(0, 8, 2)

    def test_read_zero_count(self):
        buf = BitBuffer()
        assert buf.read(0, 8, 0).size == 0

    def test_interleaved_widths(self):
        buf = BitBuffer()
        first = buf.append(np.array([5, 9, 2]), 5)
        second = buf.append(np.array([100, 200]), 9)
        third = buf.append(np.array([1]), 1)
        assert buf.read(first, 5, 3).tolist() == [5, 9, 2]
        assert buf.read(second, 9, 2).tolist() == [100, 200]
        assert buf.read_one(third, 1, 0) == 1

    def test_nbytes_reports_capacity(self):
        buf = BitBuffer()
        buf.append(np.arange(100, dtype=np.uint64), 32)
        assert buf.nbytes() >= 100 * 32 // 8
