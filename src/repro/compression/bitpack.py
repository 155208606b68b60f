"""Low-level bit packing primitives.

Everything in the two-layer compression scheme (Chapter 2/4 of the paper)
bottoms out in an append-only stream of fixed-width bit fields: a data block
holding ``count`` deltas of ``n`` bits each is just ``count * n`` consecutive
bits in the stream, and random access to the *t*-th delta reads ``n`` bits at
``offset + n * (t - 1)`` (Example 3).

:class:`BitBuffer` implements that stream on top of a numpy ``uint64`` array.
Appends of numpy arrays (the offline builds) and bulk reads are vectorized;
single-field reads (the in-block binary search) and appends of a short run
of Python ints (:meth:`BitBuffer.append_ints`, an online list sealing its
buffer) are plain integer arithmetic, where numpy's per-call set-up would
cost more than the work.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .constants import MAX_DELTA_WIDTH

__all__ = ["width_for", "BitBuffer"]

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def width_for(max_value: int) -> int:
    """Number of bits needed to store values in ``[0, max_value]``.

    Matches the paper's ``n = ceil(log2(max_delta + 1))`` with a floor of one
    bit (a block whose deltas are all zero cannot occur because elements are
    strictly increasing, but a one-bit floor keeps the arithmetic total).
    """
    if max_value < 0:
        raise ValueError(f"max_value must be non-negative, got {max_value}")
    return max(1, int(max_value).bit_length())


class BitBuffer:
    """Append-only bit stream with random access to fixed-width fields.

    The stream is backed by a numpy ``uint64`` array kept one word longer
    than needed so that two-word reads never index past the end.
    """

    def __init__(self, initial_words: int = 4) -> None:
        self._words = np.zeros(max(2, initial_words), dtype=np.uint64)
        self._num_bits = 0

    def __len__(self) -> int:
        return self._num_bits

    @property
    def num_bits(self) -> int:
        """Total number of bits appended so far."""
        return self._num_bits

    def _ensure_capacity(self, extra_bits: int) -> None:
        needed_words = (self._num_bits + extra_bits) // _WORD_BITS + 2
        if needed_words > len(self._words):
            new_size = max(needed_words, 2 * len(self._words))
            grown = np.zeros(new_size, dtype=np.uint64)
            grown[: len(self._words)] = self._words
            self._words = grown

    def append(self, values: np.ndarray, width: int) -> int:
        """Append each value as a ``width``-bit field; return the start bit offset.

        ``values`` must be non-negative integers strictly below ``2**width``.
        """
        if not 1 <= width <= MAX_DELTA_WIDTH:
            raise ValueError(
                f"width must be in [1, {MAX_DELTA_WIDTH}], got {width}"
            )
        values = np.asarray(values, dtype=np.uint64)
        if values.size and int(values.max()) >> width:
            raise ValueError(
                f"value {int(values.max())} does not fit in {width} bits"
            )
        start = self._num_bits
        if values.size == 0:
            return start
        self._ensure_capacity(width * values.size)

        positions = start + width * np.arange(values.size, dtype=np.uint64)
        word_idx = (positions >> 6).astype(np.int64)
        shifts = positions & np.uint64(63)

        low_parts = values << shifts  # overflow wraps mod 2**64: intended
        high_shift = (np.uint64(64) - shifts) & np.uint64(63)
        high_parts = np.where(shifts > 0, values >> high_shift, np.uint64(0))

        np.bitwise_or.at(self._words, word_idx, low_parts)
        np.bitwise_or.at(self._words, word_idx + 1, high_parts)
        self._num_bits = start + width * values.size
        return start

    def append_ints(self, values: Sequence[int], width: int) -> int:
        """Append each Python int as a ``width``-bit field; return the start
        bit offset.

        The integer twin of :meth:`append` — same checks, same errors, same
        packed words — for callers that hold a short run of Python ints (an
        online list sealing its buffer): the run is packed into one integer
        and lands in the words with a single copy, where :meth:`append`'s
        numpy set-up would cost more than the write.
        """
        if not 1 <= width <= MAX_DELTA_WIDTH:
            raise ValueError(
                f"width must be in [1, {MAX_DELTA_WIDTH}], got {width}"
            )
        start = self._num_bits
        if not values:
            return start
        shift = start & 63
        stream = 0
        position = shift
        for value in values:
            if value >> width:
                # negative values are reported as append's uint64 cast shows them
                top = max(field & _WORD_MASK for field in values)
                raise ValueError(f"value {top} does not fit in {width} bits")
            stream |= value << position
            position += width
        self._ensure_capacity(position - shift)
        first = start >> 6
        count = (position + 63) >> 6
        # the first word's bits below `shift` are earlier fields; every bit
        # from `start` on is still zero
        stream |= int(self._words[first])
        self._words[first : first + count] = np.frombuffer(
            stream.to_bytes(8 * count, "little"), dtype="<u8"
        )
        self._num_bits = start + position - shift
        return start

    def read(self, bit_offset: int, width: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive ``width``-bit fields as a uint64 array."""
        # mmap-backed stores hand in np.int64 scalars; force Python ints so
        # the uint64 position arithmetic below cannot promote to float64
        bit_offset, width, count = int(bit_offset), int(width), int(count)
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        if bit_offset + width * count > self._num_bits:
            raise IndexError("read past end of bit buffer")
        positions = bit_offset + width * np.arange(count, dtype=np.uint64)
        word_idx = (positions >> 6).astype(np.int64)
        shifts = positions & np.uint64(63)

        low = self._words[word_idx] >> shifts
        high_shift = (np.uint64(64) - shifts) & np.uint64(63)
        high = np.where(
            shifts + width > 64,
            self._words[word_idx + 1] << high_shift,
            np.uint64(0),
        )
        mask = np.uint64((1 << width) - 1)
        return (low | high) & mask

    def gather(self, positions: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """Read one field per (bit position, width) pair, vectorized.

        Unlike :meth:`read`, fields may have heterogeneous widths — this is
        what lets a whole two-layer list (whose blocks pack at different
        widths) decode in one numpy pass.
        """
        if positions.size == 0:
            return np.empty(0, dtype=np.uint64)
        positions = positions.astype(np.uint64, copy=False)
        widths = widths.astype(np.uint64, copy=False)
        if int(widths.max()) > 64 or int(widths.min()) < 1:
            raise IndexError("field width outside [1, 64]")
        # positions so large that `positions + widths` wraps mod 2**64 still
        # fail loudly below: their word index overruns the backing array.
        if int((positions + widths).max()) > self._num_bits:
            raise IndexError("gather past end of bit buffer")
        word_idx = (positions >> np.uint64(6)).astype(np.int64)
        shifts = positions & np.uint64(63)
        low = self._words[word_idx] >> shifts
        # the next word's bits land at 64 - shift and up: past the field
        # (and masked off) unless it straddles; two shifts keep every
        # shift count below 64, so shift 0 contributes nothing
        high = (self._words[word_idx + 1] << np.uint64(1)) << (
            np.uint64(63) - shifts
        )
        masks = (np.uint64(1) << widths) - np.uint64(1)
        return (low | high) & masks

    def gather_runs(
        self,
        offsets: np.ndarray,
        widths: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Read ``counts[i]`` consecutive ``widths[i]``-bit fields starting at
        ``offsets[i]`` for every run ``i``, concatenated, in one vector pass.

        This is the multi-block batch decode: each run is one block's packed
        delta region, so a whole set of touched blocks — possibly spanning
        many posting lists that share this buffer — decodes with a single
        :meth:`gather` instead of one :meth:`read` per block.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if not (offsets.size == widths.size == counts.size):
            raise ValueError("offsets, widths and counts must align")
        if counts.size and int(counts.min()) < 0:
            raise ValueError("run counts must be non-negative")
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.uint64)
        per_field_width = np.repeat(widths, counts)
        # field f of run i (global field index g) starts at
        # offsets[i] + widths[i] * (g - run_starts[i])
        run_starts = np.cumsum(counts) - counts
        positions = per_field_width * np.arange(total, dtype=np.int64)
        positions += np.repeat(offsets - widths * run_starts, counts)
        return self.gather(positions, per_field_width)

    def read_one(self, bit_offset: int, width: int, index: int) -> int:
        """Read the ``index``-th ``width``-bit field starting at ``bit_offset``."""
        # np.int64 inputs would make `shift` a np.int64, and a >2**63 word
        # value then overflows numpy's int64 coercion in `int >> shift`
        position = int(bit_offset) + int(width) * int(index)
        width = int(width)
        if position + width > self._num_bits:
            raise IndexError("read past end of bit buffer")
        word = position >> 6
        shift = position & 63
        value = int(self._words[word]) >> shift
        if shift + width > _WORD_BITS:
            value |= int(self._words[word + 1]) << (_WORD_BITS - shift)
        return value & ((1 << width) - 1)

    def nbytes(self) -> int:
        """Actual bytes held by the backing array (capacity, not logical size)."""
        return self._words.nbytes
