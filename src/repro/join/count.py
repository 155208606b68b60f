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

from typing import Dict, List, Tuple

from ..similarity.measures import required_overlap
from ..similarity.tokenize import TokenizedCollection
from ..similarity.verify import verify_overlap_from
from .base import (
    JoinStats,
    OnlineIndexMixin,
    normalize_pairs,
    processing_order,
    traced_join,
)

__all__ = ["CountFilterJoin"]


class CountFilterJoin(OnlineIndexMixin):
    """Self-join via signature-count filtering over online compressed lists."""

    def __init__(
        self,
        collection: TokenizedCollection,
        scheme: str = "adapt",
        metric: str = "jaccard",
        **scheme_kwargs,
    ) -> None:
        self.collection = collection
        self.scheme = scheme
        self.metric = metric
        self._scheme_kwargs = scheme_kwargs
        self.last_stats = JoinStats()

    @traced_join
    def join(self, threshold: float) -> List[Tuple[int, int]]:
        """All pairs with ``SIM >= threshold`` as sorted original-id tuples."""
        if not 0 < threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._init_index(self.scheme, **self._scheme_kwargs)
        stats = JoinStats()
        order = processing_order(self.collection.lengths)
        records = [self.collection.records[i] for i in order]
        results: List[Tuple[int, int]] = []

        for sid, record in enumerate(records):
            size_s = record.size
            counts: Dict[int, int] = {}
            for token in record.tolist():
                posting = self._lists.get(token)
                if posting is None:
                    continue
                for rid in posting.to_array().tolist():
                    counts[rid] = counts.get(rid, 0) + 1
            stats.candidates += len(counts)
            for rid, shared in counts.items():
                size_r = records[rid].size
                needed = required_overlap(size_r, size_s, threshold, self.metric)
                if shared < needed:
                    continue
                stats.verifications += 1
                if (
                    verify_overlap_from(records[rid], record, 0, 0, 0, needed)
                    >= needed
                ):
                    results.append((rid, sid))
            for token in record.tolist():
                self._list_for(token).append(sid)

        self._finalize_index(stats)
        stats.pairs = len(results)
        self.last_stats = stats
        return normalize_pairs(results, order)
