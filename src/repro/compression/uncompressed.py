"""Uncompressed posting lists (the paper's ``Uncomp`` baseline).

A plain sorted array of 32-bit ids: every element costs
:data:`~repro.compression.base.ELEMENT_BITS` bits and all operations are
ordinary binary searches.  This is the reference point for every compression
ratio reported in Chapter 7.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import ELEMENT_BITS, SortedIDList, as_id_array, check_sorted_ids
from .registry import register_scheme

__all__ = ["UncompressedList"]


@register_scheme("uncomp", kind="offline")
class UncompressedList(SortedIDList):
    """Sorted id array without compression."""

    scheme_name = "uncomp"

    def __init__(self, values: Sequence[int]) -> None:
        self._values = as_id_array(values).copy()
        check_sorted_ids(self._values)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "UncompressedList":
        """Adopt ``values`` as the list, without the copy or the sortedness check.

        For arrays another layer already validated — a memory-mapped bundle
        slice serves reads straight off the page cache this way.
        """
        lst = cls.__new__(cls)
        lst._values = values
        return lst

    def __len__(self) -> int:
        return int(self._values.size)

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._values.size:
            raise IndexError(f"index {index} out of range")
        return int(self._values[index])

    def to_array(self) -> np.ndarray:
        return self._values

    def lower_bound(self, key: int) -> int:
        return int(np.searchsorted(self._values, key, side="left"))

    def contains(self, key: int) -> bool:
        position = self.lower_bound(key)
        return position < self._values.size and int(self._values[position]) == key

    def size_bits(self) -> int:
        return ELEMENT_BITS * int(self._values.size)
