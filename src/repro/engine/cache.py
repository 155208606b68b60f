"""Bounded LRU cache over posting-list decodes, shared across consumers.

Classical inverted-index engines hide decode bandwidth behind per-list
caches (Pibiri & Venturini, *Techniques for Inverted Index Compression*);
this module is that layer for the CSS reproduction.  One
:class:`DecodeCache` instance serves the count-filter searchers (ScanCount
consumes ``to_array()`` directly; MergeSkip/DivideSkip run their random
accesses against the cached array when one exists, and against the
compressed layout otherwise).

Two admission modes cover two access patterns:

* :meth:`fetch` — decode-and-cache immediately;
* :meth:`admit` (used by :meth:`wrap`) — cache only after a list has been
  touched ``admit_after`` times (default 2).  Cold query lists keep the
  skip-based algorithms on the compressed layout, where partial access is
  the whole point; lists that repeat across queries get decoded once and
  pinned.

Entries are keyed by posting-list *identity* — the cache holds a strong
reference to the list object, so a key can never be silently reused while
its entry is alive.  Capacity is bounded both by entry count and by total
decoded bytes; eviction is LRU.  All operations are thread-safe (the
serving layer's dispatcher and ``to_thread`` workers share one cache).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from ..compression.base import SortedIDList
from ..obs import METRICS as _METRICS

__all__ = ["DecodeCache", "CachedListView"]


class _Entry:
    """One cached decode: the source list and its array."""

    __slots__ = ("source", "array")

    def __init__(self, source, array: np.ndarray) -> None:
        self.source = source
        self.array = array


class DecodeCache:
    """Bounded LRU ``posting list -> decoded array`` cache.

    ``max_entries`` / ``max_bytes`` of ``None`` mean unbounded on that
    axis.  ``admit_after`` is the admission threshold for :meth:`admit`;
    ``1`` caches on first touch.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 1024,
        max_bytes: Optional[int] = 64 << 20,
        admit_after: int = 2,
    ) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if admit_after < 1:
            raise ValueError(f"admit_after must be >= 1, got {admit_after}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.admit_after = admit_after
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self._touches: "OrderedDict[int, int]" = OrderedDict()
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------ #
    # internals (call with the lock held)
    # ------------------------------------------------------------------ #
    def _lookup(self, lst) -> Optional[_Entry]:
        entry = self._entries.get(id(lst))
        if entry is not None and entry.source is lst:
            self._entries.move_to_end(id(lst))
            self.hits += 1
            _METRICS.inc("engine.cache.hits")
            return entry
        self.misses += 1
        _METRICS.inc("engine.cache.misses")
        return None

    def _insert(self, lst, array: np.ndarray) -> _Entry:
        array = np.ascontiguousarray(array, dtype=np.int64)
        array.flags.writeable = False  # shared across queries and threads
        entry = _Entry(lst, array)
        self._entries[id(lst)] = entry
        self._entries.move_to_end(id(lst))
        self._touches.pop(id(lst), None)
        self.current_bytes += array.nbytes
        self.insertions += 1
        _METRICS.inc("engine.cache.bytes_added", int(array.nbytes))
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
            _METRICS.inc("engine.cache.evictions")

    def _decode(self, lst) -> np.ndarray:
        # the underlying codec's own decode counters (twolayer.*, online.*)
        # fire here, exactly once per miss-and-admit
        return lst.to_array()

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
                entry = self._insert(lst, self._decode(lst))
            return entry.array

    def admit(self, lst) -> Optional[np.ndarray]:
        """Cached array, decoding only once ``lst`` proves hot.

        Counts one hit or miss per call; on the ``admit_after``-th touch
        the list is decoded and cached.
        """
        with self._lock:
            entry = self._lookup(lst)
            if entry is not None:
                return entry.array
            touches = self._touches.get(id(lst), 0) + 1
            if touches < self.admit_after:
                self._touches[id(lst)] = touches
                self._touches.move_to_end(id(lst))
                # the touch table is advisory; cap it so it cannot outgrow
                # the cache it feeds
                while len(self._touches) > 4 * (self.max_entries or 1024):
                    self._touches.popitem(last=False)
                return None
            return self._insert(lst, self._decode(lst)).array

    def wrap(self, lst: SortedIDList) -> SortedIDList:
        """``lst`` wrapped in a :class:`CachedListView` bound to this cache."""
        if isinstance(lst, CachedListView):
            return lst
        return CachedListView(lst, self.admit(lst), self)

    def invalidate(self, lst) -> bool:
        """Drop ``lst``'s entry (dynamic ingest appended to the list)."""
        with self._lock:
            entry = self._entries.get(id(lst))
            if entry is None or entry.source is not lst:
                self._touches.pop(id(lst), None)
                return False
            del self._entries[id(lst)]
            self._touches.pop(id(lst), None)
            self.current_bytes -= entry.array.nbytes
            self.invalidations += 1
            return True

    def clear(self) -> None:
        """Drop every entry and touch record (counters are kept)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._touches.clear()
            self.current_bytes = 0
            self.invalidations += dropped

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
                "invalidations": self.invalidations,
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
                "admit_after",
                "current_bytes",
                "hits",
                "misses",
                "evictions",
                "insertions",
                "invalidations",
            )
        }
        with self._lock:
            state["_entries"] = OrderedDict(self._entries)
            state["_touches"] = OrderedDict(self._touches)
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._lock = threading.Lock()


class CachedListView(SortedIDList):
    """A :class:`SortedIDList` facade that prefers the cached decode.

    When the cache holds the list's array, random access, ``lower_bound``
    and ``to_array`` are served from the array (``np.searchsorted`` beats
    python-level bit unpacking by a wide margin); otherwise every call
    falls through to the compressed layout, preserving the skip-based
    algorithms' partial-access behaviour on cold lists.
    """

    __slots__ = ("_inner", "_array", "_cache")

    def __init__(
        self,
        inner: SortedIDList,
        array: Optional[np.ndarray],
        cache: DecodeCache,
    ) -> None:
        self._inner = inner
        self._array = array
        self._cache = cache

    @property
    def scheme_name(self) -> str:  # type: ignore[override]
        return self._inner.scheme_name

    @property
    def supports_random_access(self) -> bool:  # type: ignore[override]
        return self._array is not None or self._inner.supports_random_access

    @property
    def inner(self) -> SortedIDList:
        return self._inner

    @property
    def cached(self) -> bool:
        return self._array is not None

    def __len__(self) -> int:
        arr = self._array
        return int(arr.size) if arr is not None else len(self._inner)

    def __getitem__(self, index: int) -> int:
        arr = self._array
        return int(arr[index]) if arr is not None else self._inner[index]

    def to_array(self) -> np.ndarray:
        arr = self._array
        return arr if arr is not None else self._inner.to_array()

    def lower_bound(self, key: int) -> int:
        arr = self._array
        if arr is not None:
            return int(np.searchsorted(arr, key, side="left"))
        return self._inner.lower_bound(key)

    def contains(self, key: int) -> bool:
        arr = self._array
        if arr is not None:
            position = int(np.searchsorted(arr, key, side="left"))
            return position < arr.size and int(arr[position]) == key
        return self._inner.contains(key)

    def size_bits(self) -> int:
        return self._inner.size_bits()
