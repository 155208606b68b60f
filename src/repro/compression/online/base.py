"""Two-region online compressed lists (Chapter 5).

Similarity joins build their inverted index *during* the join (Algorithm 1),
so a list must accept appends while staying queryable.  The paper's answer is
a lazy-updated block structure: a **compressed region** identical to the
offline two-layer layout plus an **uncompressed region** that buffers the
most recent (and therefore largest, since ids arrive in ascending order)
elements.  Reads visit the two regions separately; a *seal policy* — the
difference between Fix, Vari, Adapt, and Model — decides when buffered
elements move into a new compressed block.
"""

from __future__ import annotations

import abc
import bisect
from typing import Iterable, List, Tuple

import numpy as np

from ...obs import METRICS as _METRICS
from ..base import ELEMENT_BITS, MAX_ELEMENT, SortedIDList
from ..twolayer import TwoLayerCursor, TwoLayerStore, block_cost_bits

__all__ = ["OnlineSortedIDList"]


class OnlineSortedIDList(SortedIDList):
    """Appendable sorted id list: compressed region + uncompressed buffer.

    Subclasses implement :meth:`_should_seal` (decide whether the buffer is
    sealed *before* a new element is appended) and may override
    :meth:`_seal` to seal only part of the buffer (Vari does).
    """

    scheme_name = "online"
    #: whether ``DynamicInvertedIndex.compact`` may re-partition this list's
    #: two regions into offline CSS blocks; schemes that are uncompressed
    #: *by contract* (``uncomp``) opt out.
    compactable = True

    def __init__(self) -> None:
        self._store = TwoLayerStore()
        self._buffer: List[int] = []

    # ------------------------------------------------------------------ #
    # layout surface (compaction, size reports, batch decode)
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> TwoLayerStore:
        """The compressed region (read-only use; appends go through the list)."""
        return self._store

    def load_state(
        self, store: TwoLayerStore, buffer: Iterable[int]
    ) -> None:
        """Adopt a new two-region state wholesale (compaction swaps in the
        offline CSS store of the same ids with an empty buffer); seal-policy
        heuristics that only shape *future* blocks, e.g. Model's KDE
        observations, are kept."""
        self._store = store
        self._buffer = [int(value) for value in buffer]

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def append(self, value: int) -> None:
        """Insert ``value``; must exceed every id already in the list."""
        value = int(value)
        if value < 0 or value > MAX_ELEMENT:
            raise ValueError(f"id {value} outside the 32-bit universe")
        if self._buffer:
            if value <= self._buffer[-1]:
                raise ValueError(
                    f"ids must be appended in ascending order "
                    f"({value} <= {self._buffer[-1]})"
                )
        elif len(self._store) and value <= self._store.last_value():
            raise ValueError(
                f"ids must be appended in ascending order "
                f"({value} <= {self._store.last_value()})"
            )
        if self._buffer and self._should_seal(value):
            self._seal()
        self._buffer.append(value)

    def extend(self, values: Iterable[int]) -> None:
        for value in values:
            self.append(value)

    def finalize(self) -> None:
        """Compress whatever remains in the buffer (end of the join).

        Matches Example 5: "when the last element arrives and we finish our
        string similarity join, we perform a final compression over U".
        """
        while self._buffer:
            self._seal()

    @abc.abstractmethod
    def _should_seal(self, incoming: int) -> bool:
        """Should the current buffer be (partially) sealed before ``incoming``?"""

    def _record_seal(self, occupancy: int) -> None:
        """Account one seal event (buffer occupancy at the moment of sealing)."""
        if _METRICS.enabled:
            _METRICS.inc("online.seals")
            _METRICS.observe("online.seal_occupancy", occupancy)

    def _seal(self) -> None:
        """Move buffered elements into the compressed region (default: all)."""
        self._record_seal(len(self._buffer))
        self._store.append_block(self._buffer)  # a list: packed without numpy
        self._buffer.clear()

    # ------------------------------------------------------------------ #
    # reads over both regions
    # ------------------------------------------------------------------ #
    @property
    def buffer_length(self) -> int:
        return len(self._buffer)

    @property
    def compressed_length(self) -> int:
        return len(self._store)

    @property
    def num_blocks(self) -> int:
        return self._store.num_blocks

    def __len__(self) -> int:
        return len(self._store) + len(self._buffer)

    def __getitem__(self, index: int) -> int:
        compressed = len(self._store)
        if index < 0 or index >= compressed + len(self._buffer):
            raise IndexError(f"index {index} out of range")
        if index < compressed:
            return self._store.get(index)
        return self._buffer[index - compressed]

    def to_array(self) -> np.ndarray:
        return self.with_buffer(self._store.to_array())

    def with_buffer(self, compressed: np.ndarray) -> np.ndarray:
        """The whole list, given its compressed region decoded.

        ``compressed`` is ``store.to_array()``; :meth:`to_array` is this
        over it, and a batch that decodes many lists' compressed regions
        together (:func:`~repro.compression.twolayer.decode_stores`)
        finishes each list here, so both count the same ``online.*``
        decode.
        """
        if _METRICS.enabled:
            _METRICS.inc("online.list_decodes")
            _METRICS.inc("online.elements_decoded", len(self))
        if not self._buffer:
            return compressed
        tail = np.asarray(self._buffer, dtype=np.int64)
        if compressed.size == 0:
            return tail
        return np.concatenate([compressed, tail])

    def suffix(self, key: int) -> Tuple[int, List[int]]:
        """``(lower_bound(key), [ids >= key])``: a seek, then a read.

        :meth:`lower_bound` finds the start.  When it lies in the buffer
        the ids are a slice of it, with nothing decoded; otherwise the
        compressed region is decoded, cut at the start, and the buffer
        follows.  Counted as one ``online`` decode of the ids it returns.
        """
        start = self.lower_bound(key)
        compressed = len(self._store)
        if start >= compressed:
            ids = self._buffer[start - compressed :]
        else:
            ids = self._store.to_array()[start:].tolist() + self._buffer
        if _METRICS.enabled:
            _METRICS.inc("online.list_decodes")
            _METRICS.inc("online.elements_decoded", len(ids))
        return start, ids

    def lower_bound(self, key: int) -> int:
        compressed = len(self._store)
        if compressed and key <= self._store.last_value():
            return self._store.lower_bound(key)
        # buffer ids all exceed the compressed region's maximum
        return compressed + bisect.bisect_left(self._buffer, key)

    def size_bits(self) -> int:
        """Current footprint: compressed region + 32 bits per buffered id."""
        return self._store.size_bits() + ELEMENT_BITS * len(self._buffer)

    def final_size_bits(self) -> int:
        """Footprint if the buffer were sealed now (what the tables report)."""
        if not self._buffer:
            return self._store.size_bits()
        return self._store.size_bits() + block_cost_bits(
            len(self._buffer), self._buffer[-1] - self._buffer[0]
        )

    def cursor(self) -> "OnlineCursor":
        return OnlineCursor(self)


class OnlineCursor:
    """Forward cursor spanning both regions of an online list.

    Walks the compressed region through a :class:`TwoLayerCursor`, then the
    uncompressed buffer (which always holds the largest ids).  The list must
    not be appended to while a cursor is live.
    """

    __slots__ = ("_owner", "_compressed", "_buffer", "_buffer_index")

    def __init__(self, owner: OnlineSortedIDList) -> None:
        self._owner = owner
        self._compressed = TwoLayerCursor(owner._store)
        self._buffer = owner._buffer
        self._buffer_index = 0

    @property
    def exhausted(self) -> bool:
        return self._compressed.exhausted and self._buffer_index >= len(
            self._buffer
        )

    @property
    def position(self) -> int:
        return self._compressed.position + self._buffer_index

    def value(self) -> int:
        if not self._compressed.exhausted:
            return self._compressed.value()
        return self._buffer[self._buffer_index]

    def advance(self) -> None:
        if not self._compressed.exhausted:
            self._compressed.advance()
        else:
            self._buffer_index += 1

    def seek(self, key: int) -> None:
        if not self._compressed.exhausted:
            # seeks inside the compressed region are counted by TwoLayerCursor
            self._compressed.seek(key)
            if not self._compressed.exhausted:
                return
        elif _METRICS.enabled and self._buffer_index < len(self._buffer):
            _METRICS.inc("cursor.seeks")
        self._buffer_index = bisect.bisect_left(
            self._buffer, key, self._buffer_index
        )

    def remaining(self) -> int:
        return len(self._owner) - self.position
