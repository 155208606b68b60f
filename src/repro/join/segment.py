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

from typing import Dict, List, Sequence, Tuple, Union

from ..similarity.edit_distance import within_edit_distance
from ..similarity.tokenize import TokenizedCollection
from .base import SelfJoin

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


class SegmentFilterJoin(SelfJoin):
    """PassJoin-style self-join: ``ed(r, s) <= delta`` pairs.

    ``collection`` is a tokenized collection (its ``strings`` are joined) or
    the strings themselves.
    """

    def __init__(
        self,
        collection: Union[TokenizedCollection, Sequence[str]],
        scheme: str = "adapt",
        **scheme_kwargs,
    ) -> None:
        super().__init__(collection, scheme, "ed", **scheme_kwargs)
        self.strings = list(getattr(collection, "strings", collection))

    def _items(self) -> List[str]:
        return self.strings

    def _begin(self) -> None:
        # indexed length -> its d + 1 even segments, filled as lengths appear
        self._partitions: Dict[int, List[Tuple[int, int]]] = {}

    def _probe(self, sid: int, text: str) -> List[tuple]:
        ordered, lists, stats = self._records, self._lists, self._stats
        delta, partitions, results = (
            self._threshold,
            self._partitions,
            self._results,
        )
        length_s = len(text)
        seen: Dict[int, bool] = {}

        def verify(posting) -> None:
            for rid in posting.to_array().tolist():
                if rid in seen:
                    continue
                seen[rid] = True
                stats.verifications += 1
                if within_edit_distance(ordered[rid], text, delta):
                    results.append((rid, sid))

        for length_r in range(max(0, length_s - delta), length_s + 1):
            if length_r <= delta:
                # shorter than the d+1 segments: pigeonhole degenerates
                # (an empty segment "matches" anywhere), so every indexed
                # string of this length is a candidate
                bucket = lists.get(("short", length_r))
                if bucket is not None:
                    verify(bucket)
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
                    posting = lists.get((length_r, i, text[start : start + l_i]))
                    if posting is not None:
                        verify(posting)
        stats.candidates += len(seen)
        # indexed under the string's own segments, or the short bucket when
        # the pigeonhole partition would contain empty segments
        if length_s <= delta:
            return [("short", length_s)]
        segments = partitions.get(length_s)
        if segments is None:
            segments = partitions[length_s] = even_partition(length_s, delta + 1)
        return [
            (length_s, i, text[p_i : p_i + l_i])
            for i, (p_i, l_i) in enumerate(segments)
        ]
