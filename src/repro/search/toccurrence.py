"""T-Occurrence algorithms: ScanCount and MergeSkip (Li et al.), DivideSkip.

The count filter reduces similarity search to the *T-occurrence problem*:
given the posting lists of the query's signatures, find every record id that
appears in at least ``T`` of them (Section 3.1.1).

* :func:`scan_count` — traverse every list fully, bumping a per-record
  counter.  Works on any codec, including sequential-decode-only PForDelta
  (the only algorithm PForDelta supports, per Figure 7.2).  The counting is
  numpy-vectorized; this is the natural Python rendering of ScanCount.
* :func:`merge_skip` — a heap over list cursors that *skips*: when the top
  element cannot reach ``T`` occurrences, the T-1 smallest cursors jump
  (binary search, directly on the compressed layout) to the next element
  that still could.  Requires random access — Uncomp, MILC, CSS.
* :func:`divide_skip` — DivideSkip (same paper): the ``L`` longest lists are
  set aside, MergeSkip solves the short lists with threshold ``T - L``, and
  survivors are verified against the long lists by binary search.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Sequence

import numpy as np

from ..compression.base import SortedIDList

__all__ = [
    "scan_count",
    "merge_skip",
    "divide_skip",
    "num_long_lists",
    "ALGORITHMS",
    "run_algorithm",
]

#: DivideSkip's weight on the longest list's length (Li et al.)
DIVIDE_SKIP_MU = 0.01


def scan_count(
    lists: Sequence[SortedIDList], threshold: int, universe: int
) -> np.ndarray:
    """Record ids occurring in at least ``threshold`` of ``lists``.

    ``universe`` bounds the id space (number of records); the counter array
    is O(universe) but reused allocations make this the cheapest full-scan
    strategy.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if not lists or len(lists) < threshold:
        return np.empty(0, dtype=np.int64)
    arrays: List[np.ndarray] = []
    max_id = -1
    for lst in lists:
        ids = lst.to_array()
        if ids.size:
            arrays.append(ids)
            max_id = max(max_id, int(ids[-1]))
    if max_id < 0:
        return np.empty(0, dtype=np.int64)
    # a dynamic index may have grown past the universe the caller read
    # (an add() in between); the counter must cover every id actually posted
    counts = np.zeros(max(universe, max_id + 1), dtype=np.int32)
    for ids in arrays:
        counts[ids] += 1
    return np.nonzero(counts >= threshold)[0].astype(np.int64)


def merge_skip(lists: Sequence[SortedIDList], threshold: int) -> np.ndarray:
    """MergeSkip over list cursors; seeks run on the compressed layout."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    cursors = [lst.cursor() for lst in lists if len(lst)]
    if len(cursors) < threshold:
        return np.empty(0, dtype=np.int64)

    heap: List = [
        (cursor.value(), index) for index, cursor in enumerate(cursors)
    ]
    heapq.heapify(heap)
    results: List[int] = []

    while len(heap) >= threshold:
        top_value, _ = heap[0]
        popped: List[int] = []
        while heap and heap[0][0] == top_value:
            popped.append(heapq.heappop(heap)[1])

        if len(popped) >= threshold:
            results.append(top_value)
            for index in popped:
                cursor = cursors[index]
                cursor.advance()
                if not cursor.exhausted:
                    heapq.heappush(heap, (cursor.value(), index))
            continue

        # top_value cannot reach T occurrences: pop down to T-1 frontiers and
        # jump everything popped to the smallest remaining frontier.
        extra = threshold - 1 - len(popped)
        while extra > 0 and heap:
            popped.append(heapq.heappop(heap)[1])
            extra -= 1
        if not heap:
            break  # fewer than T lists remain: no further answers possible
        skip_to = heap[0][0]
        for index in popped:
            cursor = cursors[index]
            cursor.seek(skip_to)
            if not cursor.exhausted:
                heapq.heappush(heap, (cursor.value(), index))
    return np.asarray(results, dtype=np.int64)


def num_long_lists(
    threshold: int, longest: int, mu: float = DIVIDE_SKIP_MU
) -> int:
    """DivideSkip's split: how many of the longest lists a T-occurrence
    problem at ``threshold`` may set aside, ``longest`` being the length
    of the longest list.

    ``L = min(T - 1, floor(T / (mu * log2(longest) + 1)))``.  A record
    occurs at most ``L`` times in those lists, so it must occur at least
    ``T - L >= 1`` times in the others.
    """
    return min(
        threshold - 1,
        int(threshold / (mu * math.log2(max(longest, 2)) + 1)),
    )


def divide_skip(
    lists: Sequence[SortedIDList], threshold: int, mu: float = DIVIDE_SKIP_MU
) -> np.ndarray:
    """DivideSkip: long lists verified by lookup, short lists via MergeSkip.

    :func:`num_long_lists` says how many lists are "long"; a record must
    occur ``T - L`` times in the short lists, then its membership in the
    long lists is checked by binary search.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    populated = [lst for lst in lists if len(lst)]
    if len(populated) < threshold:
        return np.empty(0, dtype=np.int64)
    ordered = sorted(populated, key=len)
    num_long = num_long_lists(threshold, len(ordered[-1]), mu)
    if num_long <= 0:
        return merge_skip(populated, threshold)
    short, long_lists = ordered[:-num_long], ordered[-num_long:]

    # num_long <= threshold - 1 guarantees the short-list threshold stays >= 1
    short_threshold = threshold - num_long
    candidates = merge_skip(short, short_threshold)

    results: List[int] = []
    for candidate in candidates.tolist():
        count = sum(1 for lst in long_lists if lst.contains(candidate))
        if count < threshold - len(short):
            continue
        count += sum(1 for lst in short if lst.contains(candidate))
        if count >= threshold:
            results.append(candidate)
    return np.asarray(results, dtype=np.int64)


#: algorithm-name -> solver; the single source of truth for which
#: T-occurrence algorithms exist (searchers validate against these keys
#: instead of keeping their own copies of the name tuple).
ALGORITHMS = {
    "scancount": scan_count,
    "mergeskip": merge_skip,
    "divideskip": divide_skip,
}


def run_algorithm(
    name: str,
    lists: Sequence[SortedIDList],
    threshold: int,
    universe: int,
) -> np.ndarray:
    """Solve the T-occurrence problem with the named algorithm.

    ``universe`` (the record-id space) is only consumed by ScanCount; the
    skip-based algorithms ignore it.
    """
    if name == "scancount":
        return scan_count(lists, threshold, universe)
    try:
        solver = ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"algorithm must be one of {tuple(ALGORITHMS)}, got {name!r}"
        ) from None
    return solver(lists, threshold)
