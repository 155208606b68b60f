"""Prefix Filter self-join (Chaudhuri et al. / AllPairs; Section 3.1.2).

Only the Lemma 1 prefix of each record — its ``floor((1 - t)|s|) + 1``
rarest tokens under the global order — is indexed and probed: two similar
records must share at least one prefix token.  Candidates pass the length
filter and are verified with overlap early termination.

This is the literal rendering of the paper's Algorithm 1, with the inverted
lists swapped for online compressed lists.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..obs import METRICS as _METRICS
from ..similarity.measures import length_bounds, prefix_length, required_overlap
from ..similarity.tokenize import TokenizedCollection
from ..similarity.verify import verify_overlap_from
from .base import (
    JoinStats,
    OnlineIndexMixin,
    normalize_pairs,
    processing_order,
    traced_join,
)

__all__ = ["PrefixFilterJoin"]


class PrefixFilterJoin(OnlineIndexMixin):
    """Self-join probing and indexing Lemma 1 prefixes."""

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

        # Algorithm 1 interleaves probe and append, so one span covers the
        # whole online pass (index time is charged to the join, per §2.1).
        with _METRICS.span("join.probe"):
            for sid, record in enumerate(records):
                size_s = record.size
                if size_s == 0:
                    continue
                low, _ = length_bounds(size_s, threshold, self.metric)
                prefix = prefix_length(size_s, threshold, self.metric)
                seen: Dict[int, bool] = {}
                for token in record[:prefix].tolist():
                    posting = self._lists.get(token)
                    if posting is None:
                        continue
                    for rid in posting.to_array().tolist():
                        if rid in seen:
                            continue
                        seen[rid] = True
                        size_r = records[rid].size
                        if size_r < low:  # records arrive size-ascending
                            continue
                        stats.verifications += 1
                        needed = required_overlap(
                            size_r, size_s, threshold, self.metric
                        )
                        if (
                            verify_overlap_from(
                                records[rid], record, 0, 0, 0, needed
                            )
                            >= needed
                        ):
                            results.append((rid, sid))
                stats.candidates += len(seen)
                for token in record[:prefix].tolist():
                    self._list_for(token).append(sid)

        self._finalize_index(stats)
        stats.pairs = len(results)
        self.last_stats = stats
        return normalize_pairs(results, order)
