"""Common interface for inverted (posting) lists.

Section 3.2 of the paper derives the operations every filtering technique
needs from a posting list:

* **Verification** — membership test (:meth:`SortedIDList.contains`),
* **Intersection / Union** — done where they are needed, on cursors and
  decoded arrays (:mod:`repro.search.toccurrence`,
  :mod:`repro.search.batchkernels`, the join filters),
* **Insert** — appending ids in ascending order (online lists only,
  :class:`repro.compression.online.base.OnlineSortedIDList`).

MergeSkip additionally needs a *seek* primitive ("binary search to locate the
smallest element >= e"), exposed here as :meth:`SortedIDList.lower_bound` and
:class:`ListCursor.seek`.

Size accounting follows the paper's bit model: an uncompressed element costs
:data:`ELEMENT_BITS` = 32 bits and every metadata block costs
:data:`METADATA_BITS` = 69 bits (32 for the base, 32 for the bit offset,
5 for the per-element width).  ``size_bits()`` is the quantity the paper's
tables report.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Sequence, Union

import numpy as np

from ..obs import METRICS as _METRICS
from .constants import ELEMENT_BITS, MAX_ELEMENT, METADATA_BITS

__all__ = [
    "ELEMENT_BITS",
    "METADATA_BITS",
    "MAX_ELEMENT",
    "SortedIDList",
    "ListCursor",
    "as_id_array",
    "check_sorted_id_list",
    "check_sorted_ids",
]

IntArrayLike = Union[Sequence[int], np.ndarray]


def as_id_array(values: IntArrayLike) -> np.ndarray:
    """Normalize input ids to an ``int64`` numpy array (no copy if possible)."""
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-d sequence of ids, got shape {array.shape}")
    return array


def check_sorted_ids(values: np.ndarray) -> None:
    """Validate the paper's invariant: unique, sorted, non-negative 32-bit ids."""
    if values.size == 0:
        return
    if int(values[0]) < 0:
        raise ValueError(f"ids must be non-negative, got {int(values[0])}")
    if int(values[-1]) > MAX_ELEMENT:
        raise ValueError(
            f"ids must fit in {ELEMENT_BITS} bits, got {int(values[-1])}"
        )
    if values.size > 1 and not (np.diff(values) > 0).all():
        raise ValueError("ids must be strictly increasing")


def check_sorted_id_list(values: List[int]) -> None:
    """:func:`check_sorted_ids` of a list of Python ints, without numpy:
    the same checks, in the same order, with the same errors."""
    if not values:
        return
    if values[0] < 0:
        raise ValueError(f"ids must be non-negative, got {values[0]}")
    if values[-1] > MAX_ELEMENT:
        raise ValueError(f"ids must fit in {ELEMENT_BITS} bits, got {values[-1]}")
    if any(left >= right for left, right in zip(values, values[1:])):
        raise ValueError("ids must be strictly increasing")


class SortedIDList(abc.ABC):
    """A read-only sorted list of unique record ids.

    Concrete subclasses are the compression schemes: uncompressed arrays,
    the two-layer MILC/CSS layouts, PForDelta, and the related-work codecs.
    """

    #: short name used by the scheme registry and benchmark tables.
    scheme_name: str = "abstract"

    #: whether ``lower_bound``/``contains`` run without decompressing.  Codecs
    #: that only support block decompression (PForDelta) set this to False and
    #: are excluded from MergeSkip, mirroring the paper's Figure 7.2 setup.
    supports_random_access: bool = True

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of ids stored."""

    @abc.abstractmethod
    def __getitem__(self, index: int) -> int:
        """Random access to the ``index``-th id (0-based)."""

    @abc.abstractmethod
    def to_array(self) -> np.ndarray:
        """Decode the full list as an ``int64`` numpy array."""

    @abc.abstractmethod
    def lower_bound(self, key: int) -> int:
        """Index of the first id ``>= key`` (``len(self)`` if none)."""

    @abc.abstractmethod
    def size_bits(self) -> int:
        """Size under the paper's bit-accounting model."""

    def contains(self, key: int) -> bool:
        """Membership test (the paper's *Verification* operation)."""
        position = self.lower_bound(key)
        return position < len(self) and self[position] == key

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_array().tolist())

    def __bool__(self) -> bool:
        return len(self) > 0

    def compression_ratio(self) -> float:
        """``U / C`` per Section 2.2: uncompressed bits over compressed bits."""
        compressed = self.size_bits()
        if compressed == 0:
            return 1.0
        return (ELEMENT_BITS * len(self)) / compressed

    def cursor(self) -> "ListCursor":
        """A forward cursor positioned at the first element."""
        return ListCursor(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.to_array()[:8].tolist() if len(self) else []
        suffix = ", ..." if len(self) > 8 else ""
        return (
            f"<{type(self).__name__} len={len(self)} "
            f"bits={self.size_bits()} [{preview}{suffix}]>"
        )


class ListCursor:
    """Forward cursor over a :class:`SortedIDList` with seek support.

    MergeSkip keeps one cursor per posting list in a heap; ``seek`` implements
    the "jump to the smallest element >= key" step directly on the compressed
    layout via :meth:`SortedIDList.lower_bound`.
    """

    __slots__ = ("_list", "_index", "_length")

    def __init__(self, source: SortedIDList, start: int = 0) -> None:
        self._list = source
        self._index = start
        self._length = len(source)

    @property
    def exhausted(self) -> bool:
        return self._index >= self._length

    @property
    def position(self) -> int:
        return self._index

    def value(self) -> int:
        """Current id; raises ``IndexError`` when exhausted."""
        if self._index >= self._length:
            raise IndexError("cursor exhausted")
        return self._list[self._index]

    def advance(self) -> None:
        """Move one position forward."""
        self._index += 1

    def seek(self, key: int) -> None:
        """Advance to the first id ``>= key`` (never moves backwards)."""
        if self._index >= self._length:
            return
        if self._list[self._index] >= key:
            return
        if _METRICS.enabled:
            _METRICS.inc("cursor.seeks")
        position = self._list.lower_bound(key)
        self._index = max(position, self._index + 1)

    def remaining(self) -> int:
        return self._length - self._index
