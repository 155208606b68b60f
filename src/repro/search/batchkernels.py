"""Batch-native T-occurrence kernels: whole-query-batch ScanCount/MergeSkip.

The serial algorithms in :mod:`repro.search.toccurrence` run per-query,
per-cursor Python — heap pops and bit-field reads dominated the profile at
a few thousand QPS.  This module answers the *whole batch* with a handful
of numpy passes, the Python analog of the block-wise/SIMD decoding tricks
surveyed by Pibiri & Venturini and of the paper's §6.2.2 k-ary layout:

* :func:`batch_scan_count` — one concatenated accumulation over every
  query's posting ids, keyed ``query_idx * universe + record_id`` so a
  single ``np.bincount`` counts all queries at once, followed by one
  vectorized per-query threshold test against the length-bound-derived
  ``T`` values.  Given a per-record-size need it also keeps a record only
  if its count reaches the need of the record's own size; that is what
  lets a searcher count only a query's short lists (DivideSkip's split,
  :meth:`~repro.search.base.CountFilterSearcher._count_rows`), so a
  batch decodes a few percent of the postings it probes.
* :func:`batch_merge_skip` — a data-parallel MergeSkip.  All cursors of
  all queries live in one padded matrix over a shared decoded arena; each
  round finds every query's T-th-smallest frontier with one sort, emits
  the rows whose minimum reaches it, and advances **every** lagging cursor
  in the batch through one :func:`~repro.compression.simdsearch.\
kary_lower_bound_many` call — one vector pass per binary-search level,
  exactly the skip structure of Li et al.'s MergeSkip.

Both kernels are exact: for every query they return the same candidate set,
in the same ascending order, as the serial algorithm — the serial per-query
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

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..compression.online import OnlineSortedIDList
from ..compression.simdsearch import kary_lower_bound_many
from ..compression.twolayer import TwoLayerList, decode_stores
from .toccurrence import ALGORITHMS

__all__ = [
    "UNREACHABLE",
    "decode_postings",
    "batch_scan_count",
    "batch_merge_skip",
    "batch_candidates",
]

_INF = np.iinfo(np.int64).max

#: a per-size need no count reaches: the record size is outside the
#: query's length window
UNREACHABLE = _INF

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
    fresh: Dict[int, object] = {}
    for lst in lists:
        # searchers pass raw lists; the e2e layer replay passes cache.wrap
        # views, which already hold their decoded array
        inner = getattr(lst, "inner", lst)
        key = id(inner)
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
    return [memo[id(getattr(lst, "inner", lst))] for lst in lists]


def _validate_thresholds(thresholds: np.ndarray, batch: int) -> None:
    if thresholds.size != batch:
        raise ValueError(
            f"expected {batch} thresholds, got {thresholds.size}"
        )
    if thresholds.size and int(thresholds.min()) < 1:
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
    thresholds = np.asarray(thresholds, dtype=np.int64)
    batch = len(per_query_arrays)
    _validate_thresholds(thresholds, batch)
    out: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * batch
    live: List[int] = []
    max_id = -1
    for row in range(batch):
        arrays = per_query_arrays[row]
        if not arrays or len(arrays) < int(thresholds[row]):
            continue
        populated = False
        for ids in arrays:
            if ids.size:
                populated = True
                max_id = max(max_id, int(ids[-1]))
        if populated:
            live.append(row)
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
                    key_parts.append(ids + offset)
        keys = np.concatenate(key_parts)
        counts = np.bincount(keys, minlength=len(chunk) * width).reshape(
            len(chunk), width
        )
        chunk_rows = np.asarray(chunk, dtype=np.int64)
        hit_rows, hit_ids = np.nonzero(
            counts >= thresholds[chunk_rows][:, None]
        )
        if needs is not None:
            sizes = np.minimum(lengths[hit_ids], needs.shape[1] - 1)
            keep = counts[hit_rows, hit_ids] >= needs[chunk_rows[hit_rows], sizes]
            hit_rows, hit_ids = hit_rows[keep], hit_ids[keep]
        boundaries = np.searchsorted(hit_rows, np.arange(len(chunk) + 1))
        for local, row in enumerate(chunk):
            out[row] = hit_ids[boundaries[local] : boundaries[local + 1]]
    return out


def batch_merge_skip(
    per_query_arrays: Sequence[Sequence[np.ndarray]],
    thresholds: Sequence[int],
) -> List[np.ndarray]:
    """Data-parallel MergeSkip over every query's cursors at once.

    All posting lists of all queries are laid out in one arena; each query
    row keeps a padded vector of (segment, position) cursors.  Per round:

    1. gather every frontier value with one fancy-index read,
    2. per-row sort yields the minimum and the T-th smallest (the *pivot*),
    3. rows whose minimum equals the pivot have >= T cursors parked on it —
       emit the value (Li et al.'s match case),
    4. every cursor below its row's skip target (``min+1`` on a match, the
       pivot otherwise) seeks forward via one
       :func:`kary_lower_bound_many` call bounded to its own segment — all
       skip jumps in the batch advance together, one vector pass per
       binary-search level.

    Rows drop out when fewer than T cursors remain, exactly like the serial
    heap draining below the threshold.  Returns ascending candidate arrays
    identical to :func:`repro.search.toccurrence.merge_skip` per query.
    """
    thresholds = np.asarray(thresholds, dtype=np.int64)
    batch = len(per_query_arrays)
    _validate_thresholds(thresholds, batch)
    out: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * batch
    row_ids: List[int] = []
    row_arrays: List[List[np.ndarray]] = []
    for row in range(batch):
        arrays = [ids for ids in per_query_arrays[row] if ids.size]
        if len(arrays) >= int(thresholds[row]):
            row_ids.append(row)
            row_arrays.append(arrays)
    if not row_ids:
        return out

    flat = [ids for arrays in row_arrays for ids in arrays]
    arena = np.concatenate(flat)
    sizes = np.asarray([ids.size for ids in flat], dtype=np.int64)
    flat_starts = np.cumsum(sizes) - sizes

    num_rows = len(row_ids)
    num_cols = max(len(arrays) for arrays in row_arrays)
    sstart = np.zeros((num_rows, num_cols), dtype=np.int64)
    slen = np.zeros((num_rows, num_cols), dtype=np.int64)
    cursor = 0
    for r, arrays in enumerate(row_arrays):
        for c, ids in enumerate(arrays):
            sstart[r, c] = flat_starts[cursor]
            slen[r, c] = sizes[cursor]
            cursor += 1
    pos = np.zeros((num_rows, num_cols), dtype=np.int64)
    rows = np.asarray(row_ids, dtype=np.int64)
    T = thresholds[rows]

    emitted_rows: List[np.ndarray] = []
    emitted_vals: List[np.ndarray] = []
    while rows.size:
        active = pos < slen
        alive = active.sum(axis=1) >= T
        if not alive.all():
            # a row below T live cursors can answer nothing further
            rows, pos, sstart, slen, T = (
                rows[alive],
                pos[alive],
                sstart[alive],
                slen[alive],
                T[alive],
            )
            continue
        absidx = sstart + pos
        val = np.where(active, arena[np.where(active, absidx, 0)], _INF)
        sorted_vals = np.sort(val, axis=1)
        minv = sorted_vals[:, 0]
        pivot = sorted_vals[np.arange(rows.size), T - 1]
        emit = pivot == minv
        if emit.any():
            emitted_rows.append(rows[emit])
            emitted_vals.append(minv[emit])
        # match rows advance their parked cursors past the emitted value;
        # skip rows jump everything below the pivot up to it
        target = np.where(emit, minv + 1, pivot)
        move = val < target[:, None]
        move_rows = np.nonzero(move)[0]
        keys = target[move_rows]
        landed = kary_lower_bound_many(
            arena, keys, lo=absidx[move], hi=(sstart + slen)[move]
        )
        pos[move] = landed - sstart[move]

    if emitted_rows:
        rows_cat = np.concatenate(emitted_rows)
        vals_cat = np.concatenate(emitted_vals)
        # stable by row: per-row emit order is ascending by construction
        # (each round's emitted minimum strictly increases)
        order = np.argsort(rows_cat, kind="stable")
        rows_sorted = rows_cat[order]
        vals_sorted = vals_cat[order]
        breaks = np.nonzero(np.diff(rows_sorted))[0] + 1
        for row_chunk, val_chunk in zip(
            np.split(rows_sorted, breaks), np.split(vals_sorted, breaks)
        ):
            out[int(row_chunk[0])] = val_chunk
    return out


def batch_candidates(
    algorithm: str,
    per_query_arrays: Sequence[Sequence[np.ndarray]],
    thresholds: Sequence[int],
    universe: int,
    needs: Optional[np.ndarray] = None,
    lengths: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Dispatch one batch of T-occurrence problems to the named kernel
    (a DivideSkip batch is the divided ScanCount, whose long lists the
    searcher set aside; MergeSkip takes no per-record-size bound)."""
    if algorithm in ("scancount", "divideskip"):
        return batch_scan_count(
            per_query_arrays, thresholds, universe, needs, lengths
        )
    if algorithm == "mergeskip":
        return batch_merge_skip(per_query_arrays, thresholds)
    raise ValueError(
        f"algorithm must be one of {tuple(ALGORITHMS)}, got {algorithm!r}"
    )
