"""Count Filter self-join (Gravano et al.; Section 3.1.1).

Every signature of every record is indexed.  For the record being processed,
the posting lists of *all* its signatures are scanned, counting how many
signatures each earlier record shares; a candidate survives when its count
reaches the metric's required overlap (Equation 3.1) and the length filter,
and is then verified exactly.

The simplest of the join filters and the heaviest prober — but also the
densest posting lists, which is why Table 7.3 pairs it with the DBLP-scale
dataset to stress the online compression schemes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List

from ..similarity.measures import length_bounds, required_overlaps
from ..similarity.verify import verify_overlap_from
from .base import SelfJoin

__all__ = ["CountFilterJoin"]


class CountFilterJoin(SelfJoin):
    """Self-join via signature-count filtering over online compressed lists."""

    def _probe(self, sid: int, record) -> List[int]:
        records, sizes = self._records, self._sizes
        lists, stats = self._lists, self._stats
        threshold, metric = self._threshold, self.metric
        size_s = record.size
        low, _ = length_bounds(size_s, threshold, metric)
        # records arrive size-ascending and rid order is size order: every
        # candidate has low <= size_r <= size_s, and the length filter is a
        # seek (a shorter record shares fewer tokens than it would need)
        required = required_overlaps(low, size_s, threshold, metric)
        first = bisect_left(sizes, low)
        tokens = record.tolist()
        counts: Dict[int, int] = {}
        for token in tokens:
            posting = lists.get(token)
            if posting is None:
                continue
            for rid in posting.suffix(first)[1]:
                counts[rid] = counts.get(rid, 0) + 1
        stats.candidates += len(counts)
        for rid, shared in counts.items():
            needed = required[sizes[rid] - low]
            if shared < needed:
                continue
            stats.verifications += 1
            if (
                verify_overlap_from(records[rid], record, 0, 0, 0, needed)
                >= needed
            ):
                self._results.append((rid, sid))
        return tokens
