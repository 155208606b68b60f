"""Bounded LRU cache over posting-list decodes, shared across consumers.

Classical inverted-index engines hide decode bandwidth behind per-list
caches (Pibiri & Venturini, *Techniques for Inverted Index Compression*);
this module is that layer for the CSS reproduction.  One
:class:`DecodeCache` instance serves every read of a searcher's posting
lists, and it has one admission rule: a list is decoded and cached on its
first touch, so every miss is an insertion.  Every engine call — a batch,
or a single query as a batch of one — calls :meth:`fetch_many` once:
:func:`~repro.search.batchkernels.decode_postings` looks each distinct
list up once per call (one hit, or one miss) and decodes all the call's
misses in one pass before inserting them.  An inserted array owns its
memory (a slice of the pass's output is copied), so ``current_bytes`` is
what the entries hold.

:meth:`wrap` and :class:`CachedListView` serve no engine path; they are
kept only because the frozen layer replay of the end-to-end benchmark
(``benchmarks/e2e/layers.py``) still calls them.

Entries are keyed by posting-list *identity* — the cache holds a strong
reference to the list object, so a key can never be silently reused while
its entry is alive.  Capacity is bounded both by entry count and by total
decoded bytes; eviction is LRU.  All operations are thread-safe (the
serving loop's coalesced batches and ``to_thread`` workers share one
cache).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..compression.base import SortedIDList

__all__ = ["DecodeCache", "CachedListView"]


class _Entry:
    """One cached decode: the source list and its array."""

    __slots__ = ("source", "array")

    def __init__(self, source, array: np.ndarray) -> None:
        self.source = source
        self.array = array


class DecodeCache:
    """Bounded LRU ``posting list -> decoded array`` cache; ``max_entries``
    / ``max_bytes`` of ``None`` mean unbounded on that axis."""

    def __init__(
        self,
        max_entries: Optional[int] = 1024,
        max_bytes: Optional[int] = 64 << 20,
    ) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    # ------------------------------------------------------------------ #
    # internals (call with the lock held)
    # ------------------------------------------------------------------ #
    def _lookup(self, lst) -> Optional[_Entry]:
        entry = self._entries.get(id(lst))
        if entry is not None and entry.source is lst:
            self._entries.move_to_end(id(lst))
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def _insert(self, lst, array: np.ndarray) -> _Entry:
        array = np.ascontiguousarray(array, dtype=np.int64)
        if array.base is not None:
            # a view (one list's slice of a batch decode) would keep its
            # whole base alive while current_bytes counts only the slice
            array = array.copy()
        array.flags.writeable = False  # shared across queries and threads
        entry = _Entry(lst, array)
        self._entries[id(lst)] = entry
        self._entries.move_to_end(id(lst))
        self.current_bytes += array.nbytes
        self.insertions += 1
        self._evict_over_capacity()
        return entry

    def _evict_over_capacity(self) -> None:
        while self._entries and (
            (self.max_entries is not None and len(self._entries) > self.max_entries)
            or (self.max_bytes is not None and self.current_bytes > self.max_bytes)
        ):
            _, victim = self._entries.popitem(last=False)
            self.current_bytes -= victim.array.nbytes
            self.evictions += 1

    # ------------------------------------------------------------------ #
    # public surface
    # ------------------------------------------------------------------ #
    def get(self, lst) -> Optional[np.ndarray]:
        """Cached array for ``lst`` or ``None`` (counts a hit or a miss)."""
        with self._lock:
            entry = self._lookup(lst)
            return entry.array if entry is not None else None

    def fetch(self, lst) -> np.ndarray:
        """Decoded array for ``lst``; decodes and caches on miss."""
        with self._lock:
            entry = self._lookup(lst)
            if entry is None:
                entry = self._insert(lst, lst.to_array())
            return entry.array

    def fetch_many(
        self,
        lists: Sequence,
        decode_many: Callable[[List], List[np.ndarray]],
    ) -> List[np.ndarray]:
        """Decoded arrays for ``lists``, in order; decodes and caches misses.

        Counts one hit or one miss per *distinct* list.  The misses are
        decoded together — ``decode_many(missed)`` returns their arrays in
        order, and the codecs' own decode counters (``twolayer.*``,
        ``online.*``) fire there, once per miss — then inserted.
        """
        with self._lock:
            arrays: Dict[int, np.ndarray] = {}
            missed: Dict[int, object] = {}
            for lst in lists:
                if id(lst) in arrays or id(lst) in missed:
                    continue
                entry = self._lookup(lst)
                if entry is None:
                    missed[id(lst)] = lst
                else:
                    arrays[id(lst)] = entry.array
            if missed:
                decoded = decode_many(list(missed.values()))
                for lst, array in zip(missed.values(), decoded):
                    arrays[id(lst)] = self._insert(lst, array).array
            return [arrays[id(lst)] for lst in lists]

    def wrap(self, lst: SortedIDList) -> SortedIDList:
        """``lst`` as a :class:`CachedListView` over :meth:`fetch`'s array
        (kept only for the frozen benchmark replay)."""
        if isinstance(lst, CachedListView):
            return lst
        return CachedListView(lst, self.fetch(lst))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Point-in-time counters (available even with obs disabled)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "insertions": self.insertions,
            }

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    # the engine is shipped to process-pool workers; locks don't pickle
    def __getstate__(self):
        state = {
            slot: getattr(self, slot)
            for slot in (
                "max_entries",
                "max_bytes",
                "current_bytes",
                "hits",
                "misses",
                "evictions",
                "insertions",
            )
        }
        with self._lock:
            state["_entries"] = OrderedDict(self._entries)
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._lock = threading.Lock()


class CachedListView(SortedIDList):
    """A :class:`SortedIDList` facade over a list's cached decode.

    Random access, ``lower_bound`` and ``to_array`` are served from the
    decoded array; ``size_bits`` stays the compressed list's.  No engine
    path builds one: :meth:`DecodeCache.wrap` keeps it for the frozen
    benchmark replay only.
    """

    __slots__ = ("_inner", "_array")

    def __init__(self, inner: SortedIDList, array: np.ndarray) -> None:
        self._inner = inner
        self._array = array

    @property
    def scheme_name(self) -> str:  # type: ignore[override]
        return self._inner.scheme_name

    @property
    def inner(self) -> SortedIDList:
        return self._inner

    def __len__(self) -> int:
        return int(self._array.size)

    def __getitem__(self, index: int) -> int:
        return int(self._array[index])

    def to_array(self) -> np.ndarray:
        return self._array

    def lower_bound(self, key: int) -> int:
        return int(np.searchsorted(self._array, key, side="left"))

    def size_bits(self) -> int:
        return self._inner.size_bits()
