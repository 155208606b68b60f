"""Segment Filter self-join for edit distance (Li et al., PassJoin;
Section 3.1.4).

Every indexed string of length ``L`` is split into ``d + 1`` even,
non-overlapping segments.  By pigeonhole, a string within edit distance
``d`` must contain at least one segment *verbatim* as a substring — so the
inverted index maps ``(L, segment_no, segment_text)`` to the ids holding
that segment, and the probe enumerates the (at most O(d)) substring
placements per segment that any valid alignment allows:

for a probe ``s`` against indexed length ``L`` (``delta = |s| - L``), a
match of segment ``i`` starting at shift ``x = start - p_i`` requires

* ``|x| + |delta - x| <= d``   (prefix + suffix alignment edits), and
* ``i + |delta - x| <= d``     (segments 0..i-1 each cost an edit when
  ``i`` is the first matching segment — the multi-match-aware bound).

Candidates are verified with banded edit distance.  Ids live in online
compressed lists, exercising the same machinery as the token joins.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..similarity.edit_distance import within_edit_distance
from .base import (
    JoinStats,
    OnlineIndexMixin,
    normalize_pairs,
    traced_join,
)

__all__ = ["SegmentFilterJoin", "even_partition"]


def even_partition(length: int, pieces: int) -> List[Tuple[int, int]]:
    """(start, segment_length) pairs splitting ``length`` into even pieces.

    The first ``pieces - length % pieces`` segments get ``length // pieces``
    characters, the rest one more — PassJoin's partition scheme.
    """
    if pieces < 1:
        raise ValueError(f"pieces must be >= 1, got {pieces}")
    base = length // pieces
    longer = length % pieces
    segments: List[Tuple[int, int]] = []
    position = 0
    for index in range(pieces):
        size = base + (1 if index >= pieces - longer else 0)
        segments.append((position, size))
        position += size
    return segments


class SegmentFilterJoin(OnlineIndexMixin):
    """PassJoin-style self-join: ``ed(r, s) <= delta`` pairs."""

    def __init__(self, strings: Sequence[str], scheme: str = "adapt", **scheme_kwargs) -> None:
        self.strings = list(strings)
        self.scheme = scheme
        self._scheme_kwargs = scheme_kwargs
        self.last_stats = JoinStats()

    @traced_join
    def join(self, delta: int) -> List[Tuple[int, int]]:
        """All pairs with ``ed <= delta`` as sorted original-id tuples."""
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self._init_index(self.scheme, **self._scheme_kwargs)
        stats = JoinStats()
        lengths = np.asarray([len(text) for text in self.strings])
        order = np.argsort(lengths, kind="stable")
        ordered = [self.strings[i] for i in order]
        pieces = delta + 1
        partitions: Dict[int, List[Tuple[int, int]]] = {}
        results: List[Tuple[int, int]] = []

        for sid, text in enumerate(ordered):
            length_s = len(text)
            seen: Dict[int, bool] = {}
            for length_r in range(max(0, length_s - delta), length_s + 1):
                if length_r <= delta:
                    # shorter than the d+1 segments: pigeonhole degenerates
                    # (an empty segment "matches" anywhere), so every indexed
                    # string of this length is a candidate
                    bucket = self._lists.get(("short", length_r))
                    if bucket is not None:
                        for rid in bucket.to_array().tolist():
                            if rid in seen:
                                continue
                            seen[rid] = True
                            stats.verifications += 1
                            if within_edit_distance(ordered[rid], text, delta):
                                results.append((rid, sid))
                    continue
                if length_r not in partitions:
                    continue
                shift = length_s - length_r
                for i, (p_i, l_i) in enumerate(partitions[length_r]):
                    for x in range(-delta, delta + 1):
                        if abs(x) + abs(shift - x) > delta:
                            continue
                        if i + abs(shift - x) > delta:
                            continue
                        start = p_i + x
                        if start < 0 or start + l_i > length_s:
                            continue
                        key = (length_r, i, text[start : start + l_i])
                        posting = self._lists.get(key)
                        if posting is None:
                            continue
                        for rid in posting.to_array().tolist():
                            if rid in seen:
                                continue
                            seen[rid] = True
                            stats.verifications += 1
                            if within_edit_distance(ordered[rid], text, delta):
                                results.append((rid, sid))
            stats.candidates += len(seen)
            # index this string's own segments (or the short bucket when the
            # pigeonhole partition would contain empty segments)
            if length_s <= delta:
                self._list_for(("short", length_s)).append(sid)
                continue
            segments = partitions.get(length_s)
            if segments is None:
                segments = even_partition(length_s, pieces)
                partitions[length_s] = segments
            for i, (p_i, l_i) in enumerate(segments):
                self._list_for((length_s, i, text[p_i : p_i + l_i])).append(sid)

        self._finalize_index(stats)
        stats.pairs = len(results)
        self.last_stats = stats
        return normalize_pairs(results, order)
