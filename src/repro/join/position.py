"""Position Filter self-join (Xiao et al., PPJoin; Section 3.1.3).

Extends the prefix filter: posting lists store ``(id, position)`` entries,
and a prefix match at position ``i`` of the probe / ``j`` of the candidate
bounds the final overlap by ``1 + min(|s| - i - 1, |r| - j - 1)`` — matches
too late in either prefix cannot reach the required overlap and the
candidate is pruned before verification.

Per Section 5.1, ids go into the online compressed list while positions,
being unsorted, live in a parallel fixed-width bit-packed vector
(:class:`~repro.compression.online.positions.FixedWidthVector`) sized by the
largest position seen.

With ``use_suffix_filter=True`` the join additionally applies the PPJoin+
suffix filter (the enhancement Section 3.1.3 alludes to): surviving
candidates are probed with a partition-based overlap upper bound before the
exact merge, trading a few binary searches for skipped verifications.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List

from ..compression.online import FixedWidthVector
from ..similarity.measures import length_bounds, prefix_length, required_overlaps
from ..similarity.suffix_filter import suffix_overlap_bound
from ..similarity.tokenize import TokenizedCollection
from ..similarity.verify import verify_overlap_from
from .base import SelfJoin

__all__ = ["PositionFilterJoin"]

_PRUNED = -1


class PositionFilterJoin(SelfJoin):
    """PPJoin-style self-join with positional pruning over compressed lists."""

    def __init__(
        self,
        collection: TokenizedCollection,
        scheme: str = "adapt",
        metric: str = "jaccard",
        use_suffix_filter: bool = False,
        **scheme_kwargs,
    ) -> None:
        super().__init__(collection, scheme, metric, **scheme_kwargs)
        self.use_suffix_filter = use_suffix_filter

    def _begin(self) -> None:
        self._positions: Dict[int, FixedWidthVector] = {}

    def _probe(self, sid: int, record) -> List[int]:
        size_s = record.size
        if size_s == 0:
            return []
        records, sizes = self._records, self._sizes
        lists, stats = self._lists, self._stats
        threshold, metric = self._threshold, self.metric
        low, _ = length_bounds(size_s, threshold, metric)
        # records arrive size-ascending: every candidate has size_r <= size_s
        required = required_overlaps(low, size_s, threshold, metric)
        # ... and rid order is size order: the length filter is a seek
        first = bisect_left(sizes, low)
        tokens = record[: prefix_length(size_s, threshold, metric)].tolist()
        overlaps: Dict[int, int] = {}
        for i, token in enumerate(tokens):
            posting = lists.get(token)
            if posting is None:
                continue
            positions = self._positions[token]
            start, rids = posting.suffix(first)
            for entry, rid in enumerate(rids, start):
                current = overlaps.get(rid, 0)
                if current == _PRUNED:
                    continue
                size_r = sizes[rid]
                j = positions[entry]
                needed = required[size_r - low]
                upper = current + 1 + min(size_s - i - 1, size_r - j - 1)
                if upper >= needed:
                    overlaps[rid] = current + 1
                else:
                    overlaps[rid] = _PRUNED
        stats.candidates += len(overlaps)
        for rid, shared in overlaps.items():
            if shared <= 0:
                continue
            needed = required[sizes[rid] - low]
            if self.use_suffix_filter:
                upper = suffix_overlap_bound(records[rid], record)
                if upper < needed:
                    stats.extras["suffix_pruned"] = (
                        stats.extras.get("suffix_pruned", 0) + 1
                    )
                    continue
            stats.verifications += 1
            if (
                verify_overlap_from(records[rid], record, 0, 0, 0, needed)
                >= needed
            ):
                self._results.append((rid, sid))
        return tokens

    def _index(self, sid: int, signatures: List[int]) -> None:
        positions = self._positions
        for i, token in enumerate(signatures):
            self._list_for(token).append(sid)
            vector = positions.get(token)
            if vector is None:
                vector = positions[token] = FixedWidthVector()
            vector.append(i)

    def _side_bits(self) -> int:
        return sum(vector.size_bits() for vector in self._positions.values())
