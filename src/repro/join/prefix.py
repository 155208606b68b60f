"""Prefix Filter self-join (Chaudhuri et al. / AllPairs; Section 3.1.2).

Only the Lemma 1 prefix of each record — its ``floor((1 - t)|s|) + 1``
rarest tokens under the global order — is indexed and probed: two similar
records must share at least one prefix token.  Candidates pass the length
filter and are verified with overlap early termination.

This is the literal rendering of the paper's Algorithm 1, with the inverted
lists swapped for online compressed lists.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List

from ..similarity.measures import length_bounds, prefix_length, required_overlaps
from ..similarity.verify import verify_overlap_from
from .base import SelfJoin

__all__ = ["PrefixFilterJoin"]


class PrefixFilterJoin(SelfJoin):
    """Self-join probing and indexing Lemma 1 prefixes."""

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
        seen: Dict[int, bool] = {}
        for token in tokens:
            posting = lists.get(token)
            if posting is None:
                continue
            for rid in posting.suffix(first)[1]:
                if rid in seen:
                    continue
                seen[rid] = True
                size_r = sizes[rid]
                stats.verifications += 1
                needed = required[size_r - low]
                if (
                    verify_overlap_from(records[rid], record, 0, 0, 0, needed)
                    >= needed
                ):
                    self._results.append((rid, sid))
        stats.candidates += len(seen)
        return tokens
