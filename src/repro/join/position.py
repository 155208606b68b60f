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

from typing import Dict, List, Tuple

from ..compression.online import FixedWidthVector
from ..similarity.measures import length_bounds, prefix_length, required_overlap
from ..similarity.suffix_filter import suffix_overlap_bound
from ..similarity.tokenize import TokenizedCollection
from ..similarity.verify import verify_overlap_from
from .base import (
    JoinStats,
    OnlineIndexMixin,
    normalize_pairs,
    processing_order,
    traced_join,
)

__all__ = ["PositionFilterJoin"]

_PRUNED = -1


class PositionFilterJoin(OnlineIndexMixin):
    """PPJoin-style self-join with positional pruning over compressed lists."""

    def __init__(
        self,
        collection: TokenizedCollection,
        scheme: str = "adapt",
        metric: str = "jaccard",
        use_suffix_filter: bool = False,
        **scheme_kwargs,
    ) -> None:
        self.collection = collection
        self.scheme = scheme
        self.metric = metric
        self.use_suffix_filter = use_suffix_filter
        self._scheme_kwargs = scheme_kwargs
        self.last_stats = JoinStats()

    @traced_join
    def join(self, threshold: float) -> List[Tuple[int, int]]:
        """All pairs with ``SIM >= threshold`` as sorted original-id tuples."""
        if not 0 < threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._init_index(self.scheme, **self._scheme_kwargs)
        self._positions: Dict[int, FixedWidthVector] = {}
        stats = JoinStats()
        order = processing_order(self.collection.lengths)
        records = [self.collection.records[i] for i in order]
        results: List[Tuple[int, int]] = []

        for sid, record in enumerate(records):
            size_s = record.size
            if size_s == 0:
                continue
            low, _ = length_bounds(size_s, threshold, self.metric)
            prefix = prefix_length(size_s, threshold, self.metric)
            overlaps: Dict[int, int] = {}
            for i, token in enumerate(record[:prefix].tolist()):
                posting = self._lists.get(token)
                if posting is None:
                    continue
                positions = self._positions[token]
                for entry, rid in enumerate(posting.to_array().tolist()):
                    current = overlaps.get(rid, 0)
                    if current == _PRUNED:
                        continue
                    size_r = records[rid].size
                    if size_r < low:
                        overlaps[rid] = _PRUNED
                        continue
                    j = positions[entry]
                    needed = required_overlap(
                        size_r, size_s, threshold, self.metric
                    )
                    upper = current + 1 + min(size_s - i - 1, size_r - j - 1)
                    if upper >= needed:
                        overlaps[rid] = current + 1
                    else:
                        overlaps[rid] = _PRUNED
            stats.candidates += len(overlaps)
            for rid, shared in overlaps.items():
                if shared <= 0:
                    continue
                size_r = records[rid].size
                needed = required_overlap(size_r, size_s, threshold, self.metric)
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
                    results.append((rid, sid))
            for i, token in enumerate(record[:prefix].tolist()):
                self._list_for(token).append(sid)
                self._positions.setdefault(token, FixedWidthVector()).append(i)

        position_bits = sum(v.size_bits() for v in self._positions.values())
        self._finalize_index(stats)
        stats.position_bits = position_bits
        stats.pairs = len(results)
        self.last_stats = stats
        return normalize_pairs(results, order)
