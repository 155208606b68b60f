"""Batch T-occurrence: one decode per batch, then ScanCount or MergeSkip.

The serial algorithms in :mod:`repro.search.toccurrence` run per query on
the compressed layout.  A batch instead decodes each list it reads once
(:func:`decode_postings`, Pibiri & Venturini's decode-then-operate regime)
and answers all its queries over the decoded ids:

* :func:`batch_scan_count` — one concatenated accumulation over every
  query's posting ids, keyed ``query_idx * universe + record_id`` so a
  single ``np.bincount`` counts all queries at once, followed by one
  vectorized per-query threshold test against the length-bound-derived
  ``T`` values.  Given a per-record-size need it also keeps a record only
  if its count reaches the need of the record's own size; that is what
  lets a searcher count only a query's short lists (DivideSkip's split,
  :meth:`~repro.search.base.CountFilterSearcher._count_rows`), so a
  batch decodes a few percent of the postings it probes.
* MergeSkip — the paper's heap, :func:`~repro.search.toccurrence.\
merge_skip` itself, run once per query with one :class:`_IdCursor` per
  decoded list of that query.  There is no second MergeSkip.

Both are exact: for every query they return the same candidate set, in
the same ascending order, as the serial algorithm — the serial per-query
path stays in the tree as the parity oracle (``tests/test_parity_fuzz.py``).
A divided ScanCount batch (every DivideSkip batch is one) returns a
different candidate set, a superset of the answers that verification
turns into exactly the serial answers (``tests/test_scancount_split.py``).

Decode discipline: a batch calls :func:`decode_postings` **once**, over
every row's lists.  Each distinct posting list is looked up once — in the
engine's :class:`~repro.engine.cache.DecodeCache` when one is configured
(``fetch_many``: one hit or one miss per list) — and every list the cache
missed is decoded in one pass: all their two-layer blocks go through
:func:`~repro.compression.twolayer.decode_stores`, a few bounded gathers
of at most :data:`~repro.compression.twolayer.DECODE_CHUNK_ELEMENTS` ids
each, so numpy's per-call set-up is paid per chunk, not per list (a chunk
too small to repay it decodes in integer arithmetic), and decode cost is
never paid once per cursor touch.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..compression.online import OnlineSortedIDList
from ..compression.twolayer import TwoLayerList, decode_stores
from .toccurrence import ALGORITHMS, merge_skip

__all__ = [
    "UNREACHABLE",
    "decode_postings",
    "batch_scan_count",
    "batch_candidates",
]

#: a per-size need no count reaches: the record size is outside the
#: query's length window
UNREACHABLE = np.iinfo(np.int64).max

#: cap on the (queries x universe) counter matrix one ScanCount chunk
#: materializes; larger batches split into query chunks under the same key
#: scheme, so memory stays bounded while every chunk is one bincount.
SCANCOUNT_CELL_BUDGET = 1 << 23


#: the ``to_array`` methods that are a decode of the list's ``store`` (an
#: online list then appends its buffer via ``with_buffer``); a class that
#: overrides ``to_array`` decodes its own way and keeps it
_STORE_DECODES = (TwoLayerList.to_array, OnlineSortedIDList.to_array)


def _decode_lists(lists: Sequence) -> List[np.ndarray]:
    """``[lst.to_array() for lst in lists]``, two-layer lists decoded together.

    Every two-layer store among ``lists`` — a MILC/CSS list's, or an
    online list's compressed region, whose buffered tail is appended
    after — goes through one
    :func:`~repro.compression.twolayer.decode_stores` call; other schemes
    (uncomp, PForDelta, ...) keep their own ``to_array``.
    """
    arrays: Dict[int, np.ndarray] = {}
    two_layer: List[int] = []
    for slot, lst in enumerate(lists):
        if type(lst).to_array in _STORE_DECODES:
            two_layer.append(slot)
        else:
            arrays[slot] = lst.to_array()
    decoded = decode_stores([lists[slot].store for slot in two_layer])
    for slot, array in zip(two_layer, decoded):
        lst = lists[slot]
        if isinstance(lst, OnlineSortedIDList):
            array = lst.with_buffer(array)
        arrays[slot] = array
    return [arrays[slot] for slot in range(len(lists))]


def decode_postings(
    lists: Sequence,
    cache=None,
    memo: Optional[Dict[int, np.ndarray]] = None,
) -> List[np.ndarray]:
    """Decoded id arrays for ``lists``, each distinct list decoded once.

    ``memo`` (shared across the calls of one batch) maps list identity to
    its decoded array, so a posting list probed by many queries decodes a
    single time.  The lists not in ``memo`` are decoded together
    (:func:`_decode_lists`); with a
    :class:`~repro.engine.cache.DecodeCache` supplied they go through one
    ``cache.fetch_many`` — one hit or one miss per distinct list, the
    misses decoded together and inserted — and are shared with later
    batches too.
    """
    if memo is None:
        memo = {}
    keys: List[int] = []
    fresh: Dict[int, object] = {}
    for lst in lists:
        # searchers pass raw lists; the e2e layer replay passes cache.wrap
        # views, which already hold their decoded array
        inner = getattr(lst, "inner", lst)
        key = id(inner)
        keys.append(key)
        if key in memo or key in fresh:
            continue
        if inner is not lst:
            memo[key] = lst.to_array()
        else:
            fresh[key] = inner
    if fresh:
        missing = list(fresh.values())
        if cache is not None:
            decoded = cache.fetch_many(missing, _decode_lists)
        else:
            # no cache configured: the per-batch memo is the cache
            decoded = _decode_lists(missing)
        memo.update(zip(fresh, decoded))
    return [memo[key] for key in keys]


def _validate_thresholds(thresholds: Sequence[int], batch: int) -> None:
    if len(thresholds) != batch:
        raise ValueError(
            f"expected {batch} thresholds, got {len(thresholds)}"
        )
    if batch and min(thresholds) < 1:
        raise ValueError("thresholds must be >= 1")


def batch_scan_count(
    per_query_arrays: Sequence[Sequence[np.ndarray]],
    thresholds: Sequence[int],
    universe: int,
    needs: Optional[np.ndarray] = None,
    lengths: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Whole-batch ScanCount: one id accumulation answers every query.

    ``per_query_arrays[i]`` holds query *i*'s decoded posting lists and
    ``thresholds[i]`` its T value.  Ids are keyed
    ``row * width + record_id`` (``width`` covers both ``universe`` and the
    largest posted id, so an index grown past its build-time universe stays
    in bounds) and counted by a single ``np.bincount`` per chunk; the
    threshold test compares each row's counts against its own T in one
    broadcast.  Returns one ascending candidate array per query.

    ``needs`` adds a per-record-size bound: row *i* also needs a count of
    ``needs[i, s]`` for a record of size ``s = lengths[record_id]``, sizes
    past the last column reading the last column.  The threshold is then a
    floor that prunes the counter matrix before sizes are gathered.
    """
    batch = len(per_query_arrays)
    _validate_thresholds(thresholds, batch)
    out: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * batch
    live: List[int] = []
    max_id = -1
    for row, arrays in enumerate(per_query_arrays):
        # a row with fewer lists than T has no answers
        if len(arrays) < thresholds[row]:
            continue
        tails = [int(ids[-1]) for ids in arrays if ids.size]
        if tails:
            live.append(row)
            max_id = max(max_id, *tails)
    if not live:
        return out
    width = max(int(universe), max_id + 1)
    rows_per_chunk = max(1, SCANCOUNT_CELL_BUDGET // max(width, 1))
    for start in range(0, len(live), rows_per_chunk):
        chunk = live[start : start + rows_per_chunk]
        key_parts: List[np.ndarray] = []
        for local, row in enumerate(chunk):
            offset = local * width
            for ids in per_query_arrays[row]:
                if ids.size:
                    key_parts.append(ids + offset if offset else ids)
        keys = np.concatenate(key_parts)
        counts = np.bincount(keys, minlength=len(chunk) * width).reshape(
            len(chunk), width
        )
        floors = np.asarray([thresholds[row] for row in chunk])
        hit_rows, hit_ids = (counts >= floors[:, None]).nonzero()
        if needs is not None:
            sizes = np.minimum(lengths[hit_ids], needs.shape[1] - 1)
            chunk_rows = np.asarray(chunk)
            keep = counts[hit_rows, hit_ids] >= needs[chunk_rows[hit_rows], sizes]
            hit_rows, hit_ids = hit_rows[keep], hit_ids[keep]
        boundaries = hit_rows.searchsorted(np.arange(len(chunk) + 1))
        for local, row in enumerate(chunk):
            out[row] = hit_ids[boundaries[local] : boundaries[local + 1]]
    return out


class _IdCursor:
    """One decoded posting list as the list and cursor
    :func:`~repro.search.toccurrence.merge_skip` drives (``len``,
    ``cursor()``, then :class:`~repro.compression.base.ListCursor`'s
    ``value`` / ``advance`` / ``seek`` / ``exhausted``).

    The ids are a Python list, whose items MergeSkip reads one at a time
    more cheaply than numpy scalars; a seek is a ``bisect``.  Each cursor
    serves one list of one query, so it is its own cursor.
    """

    __slots__ = ("_ids", "_index")

    def __init__(self, ids: np.ndarray) -> None:
        self._ids = ids.tolist()
        self._index = 0

    def __len__(self) -> int:
        return len(self._ids)

    def cursor(self) -> "_IdCursor":
        return self

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._ids)

    def value(self) -> int:
        return self._ids[self._index]

    def advance(self) -> None:
        self._index += 1

    def seek(self, key: int) -> None:
        """Advance to the first id ``>= key`` (never moves backwards)."""
        ids, index = self._ids, self._index
        if index < len(ids) and ids[index] < key:
            self._index = bisect_left(ids, key, index + 1)


def batch_candidates(
    algorithm: str,
    per_query_arrays: Sequence[Sequence[np.ndarray]],
    thresholds: Sequence[int],
    universe: int,
    needs: Optional[np.ndarray] = None,
    lengths: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """One batch of T-occurrence problems over decoded lists, by algorithm.

    ScanCount and DivideSkip (the divided ScanCount, whose long lists the
    searcher set aside) go to :func:`batch_scan_count`; MergeSkip, which
    takes no per-record-size bound, runs
    :func:`~repro.search.toccurrence.merge_skip` once per query.
    """
    if algorithm in ("scancount", "divideskip"):
        return batch_scan_count(
            per_query_arrays, thresholds, universe, needs, lengths
        )
    if algorithm == "mergeskip":
        _validate_thresholds(thresholds, len(per_query_arrays))
        return [
            merge_skip([_IdCursor(ids) for ids in arrays], int(threshold))
            for arrays, threshold in zip(per_query_arrays, thresholds)
        ]
    raise ValueError(
        f"algorithm must be one of {tuple(ALGORITHMS)}, got {algorithm!r}"
    )
