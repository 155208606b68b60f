"""Side storage for signature positions (Section 5.1).

The Prefix and Position filters need the *position* of the matched signature
inside each string, alongside the record id.  Positions are not sorted, so
the delta schemes do not apply; the paper stores them in a separate list
"employing the same number of bits as the largest element".

:class:`FixedWidthVector` implements exactly that: an appendable bit-packed
vector whose field width is the bit length of the current maximum, repacked
(amortized) whenever a wider value arrives.  The fields are packed in
:class:`~repro.compression.bitpack.BitBuffer`'s bit layout, but into a list
of Python-int 64-bit words: the vectors are appended to and read one
position at a time and stay short, so every read, write and repack is plain
integer arithmetic, with no numpy scalar boxed or unboxed on the way.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..bitpack import width_for
from ..constants import MAX_DELTA_WIDTH

__all__ = ["FixedWidthVector"]

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


class FixedWidthVector:
    """Appendable vector of non-negative ints at a uniform bit width."""

    def __init__(self) -> None:
        #: field ``i`` sits at bits ``[width * i, width * (i + 1))`` of the
        #: little-endian concatenation of the words
        self._words: List[int] = []
        self._width = 1
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def append(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise ValueError(f"values must be non-negative, got {value}")
        if value >> self._width:
            needed = width_for(value)
            if needed > MAX_DELTA_WIDTH:
                raise ValueError(
                    f"value {value} does not fit in {MAX_DELTA_WIDTH} bits"
                )
            self._repack(needed)
        self._put(value)

    def extend(self, values: Iterable[int]) -> None:
        for value in values:
            self.append(value)

    def _put(self, value: int) -> None:
        """Write ``value`` (known to fit) as the next field."""
        position = self._width * self._length
        shift = position & 63
        words = self._words
        if shift == 0:
            words.append(value)
        else:
            words[-1] |= (value << shift) & _WORD_MASK
            if shift + self._width > _WORD_BITS:
                words.append(value >> (_WORD_BITS - shift))
        self._length += 1

    def _repack(self, new_width: int) -> None:
        values = self.to_list()
        self._words, self._width, self._length = [], new_width, 0
        for value in values:
            self._put(value)

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range")
        width = self._width
        position = width * index
        word, shift = position >> 6, position & 63
        value = self._words[word] >> shift
        if shift + width > _WORD_BITS:
            value |= self._words[word + 1] << (_WORD_BITS - shift)
        return value & ((1 << width) - 1)

    def to_list(self) -> List[int]:
        return [self[index] for index in range(self._length)]

    def to_array(self) -> np.ndarray:
        return np.asarray(self.to_list(), dtype=np.int64)

    @property
    def width(self) -> int:
        return self._width

    def size_bits(self) -> int:
        return self._width * self._length
