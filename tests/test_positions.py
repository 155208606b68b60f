"""Tests for the fixed-width position side-vector (Section 5.1)."""

import numpy as np
import pytest

from repro.compression.bitpack import BitBuffer
from repro.compression.online.positions import FixedWidthVector


class TestFixedWidthVector:
    def test_empty(self):
        vec = FixedWidthVector()
        assert len(vec) == 0
        assert vec.to_array().size == 0
        assert vec.size_bits() == 0

    def test_append_and_read(self):
        vec = FixedWidthVector()
        vec.extend([0, 3, 1, 7])
        assert vec.to_list() == [0, 3, 1, 7]
        assert vec[2] == 1

    def test_unsorted_values_allowed(self):
        vec = FixedWidthVector()
        vec.extend([9, 0, 5, 0, 9])
        assert vec.to_list() == [9, 0, 5, 0, 9]

    def test_width_tracks_maximum(self):
        vec = FixedWidthVector()
        vec.append(1)
        assert vec.width == 1
        vec.append(255)
        assert vec.width == 8
        vec.append(3)
        assert vec.width == 8  # width never shrinks

    def test_repack_preserves_contents(self):
        vec = FixedWidthVector()
        values = [1, 0, 3, 2, 1]
        vec.extend(values)
        vec.append(10_000)  # forces a repack to 14 bits
        assert vec.to_list() == values + [10_000]
        assert vec.width == 14

    def test_repacked_words_equal_one_pack_at_final_width(self):
        values = [0, 1, 3, 2, 7, 5, 40, 9, 1000, 3, 70_000, 6] * 4
        vec = FixedWidthVector()
        widths = []
        for value in values:
            vec.append(value)
            widths.append(vec.width)
        assert len(set(widths)) >= 5  # grown through several repacks
        # the Python-int words hold BitBuffer's layout: one pack of every
        # value at the final width, word for word, and not a word more
        packed = BitBuffer()
        packed.append(np.array(values), vec.width)
        used = -(-packed.num_bits // 64)
        assert vec.size_bits() == packed.num_bits
        assert vec._words == packed._words[:used].tolist()
        assert not packed._words[used:].any()

    def test_size_accounting(self):
        vec = FixedWidthVector()
        vec.extend([5, 6, 7])  # width 3
        assert vec.size_bits() == 3 * 3
        vec.append(100)  # width 7, repacked
        assert vec.size_bits() == 4 * 7

    def test_negative_rejected(self):
        vec = FixedWidthVector()
        with pytest.raises(ValueError):
            vec.append(-1)

    def test_index_out_of_range(self):
        vec = FixedWidthVector()
        vec.append(0)
        with pytest.raises(IndexError):
            vec[1]

    def test_large_sequence_roundtrip(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 10_000, size=2000).tolist()
        vec = FixedWidthVector()
        vec.extend(values)
        assert vec.to_list() == values
