"""Side storage for signature positions (Section 5.1).

The Prefix and Position filters need the *position* of the matched signature
inside each string, alongside the record id.  Positions are not sorted, so
the delta schemes do not apply; the paper stores them in a separate list
"employing the same number of bits as the largest element".

:class:`FixedWidthVector` implements exactly that: an appendable bit-packed
vector whose field width is the bit length of the current maximum, repacked
(amortized) whenever a wider value arrives.  Appends and repacks write one
field at a time with :meth:`BitBuffer.append_one` (integer arithmetic on at
most two words): the vectors are appended to per position and stay short,
so a numpy call per write would cost more than the write.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..bitpack import BitBuffer, width_for

__all__ = ["FixedWidthVector"]


class FixedWidthVector:
    """Appendable vector of non-negative ints at a uniform bit width."""

    def __init__(self) -> None:
        self._data = BitBuffer()
        self._width = 1
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def append(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise ValueError(f"values must be non-negative, got {value}")
        needed = width_for(value)
        if needed > self._width:
            self._repack(needed)
        self._data.append_one(value, self._width)
        self._length += 1

    def extend(self, values: Iterable[int]) -> None:
        for value in values:
            self.append(value)

    def _repack(self, new_width: int) -> None:
        old, old_width = self._data, self._width
        self._data = BitBuffer()
        self._width = new_width
        for index in range(self._length):
            self._data.append_one(old.read_one(0, old_width, index), new_width)

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range")
        return self._data.read_one(0, self._width, index)

    def to_array(self) -> np.ndarray:
        if self._length == 0:
            return np.empty(0, dtype=np.int64)
        return self._data.read(0, self._width, self._length).astype(np.int64)

    def to_list(self) -> List[int]:
        return self.to_array().tolist()

    @property
    def width(self) -> int:
        return self._width

    def size_bits(self) -> int:
        return self._width * self._length
