"""R-S (two-collection) similarity join.

Definition 2's footnote: "the techniques presented can be easily extended to
the case of a join between R and S".  This module is that extension for the
prefix filter: the smaller collection's Lemma 1 prefixes are indexed into
online compressed lists (one pass, ascending ids), then every record of the
other collection probes its own prefix and verifies survivors.

Both collections must share one token dictionary — build them with
:func:`repro.similarity.tokenize.tokenize_pair` — otherwise the global order
underlying the prefix filter is inconsistent and the join would be wrong
(enforced at construction).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..engine.cache import DecodeCache
from ..obs import METRICS as _METRICS
from ..similarity.measures import length_bounds, prefix_length, required_overlap
from ..similarity.tokenize import TokenizedCollection
from ..similarity.verify import verify_overlap_from
from .base import JoinStats, OnlineIndexMixin, check_threshold, traced_join

__all__ = ["PrefixFilterRSJoin"]


class PrefixFilterRSJoin(OnlineIndexMixin):
    """Prefix-filter join between two collections over compressed lists.

    The probe phase reads each indexed posting list many times (once per
    probing record that shares the token); decodes go through a
    :class:`~repro.engine.cache.DecodeCache` so every list is decoded at
    most once per join.  Pass a ``cache`` to share decode state with an
    engine; by default each ``join()`` uses a private unbounded cache,
    which reproduces the old per-join memo exactly (bounded by the number
    of indexed lists).
    """

    def __init__(
        self,
        left: TokenizedCollection,
        right: TokenizedCollection,
        scheme: str = "adapt",
        metric: str = "jaccard",
        cache: Optional[DecodeCache] = None,
        **scheme_kwargs,
    ) -> None:
        if left.dictionary is not right.dictionary:
            raise ValueError(
                "R-S join requires both collections to share one token "
                "dictionary; build them with tokenize_pair()"
            )
        self.left = left
        self.right = right
        self.scheme = scheme
        self.metric = metric
        self.cache = cache
        self._scheme_kwargs = scheme_kwargs
        self.last_stats = JoinStats()

    @traced_join
    def join(self, threshold: float) -> List[Tuple[int, int]]:
        """Pairs ``(r, s)`` with ``SIM(left[r], right[s]) >= threshold``."""
        check_threshold(threshold, self.metric)
        self._init_index()
        stats = JoinStats()

        # index the left collection's prefixes (ids ascend naturally)
        with _METRICS.span("join.index"):
            for rid, record in enumerate(self.left.records):
                prefix = prefix_length(record.size, threshold, self.metric)
                for token in record[:prefix].tolist():
                    self._list_for(token).append(rid)

        results: List[Tuple[int, int]] = []
        left_records = self.left.records
        # The left index is static for the whole probe phase, so each posting
        # list is decoded at most once and the decoded ids are reused by every
        # probing record.  The decode cache (shared with an engine, or a
        # private unbounded one) replaces the old per-join dict memo.
        cache = self.cache
        if cache is None:
            cache = DecodeCache(max_entries=None, max_bytes=None, admit_after=1)
        with _METRICS.span("join.probe"):
            for sid, record in enumerate(self.right.records):
                size_s = record.size
                if size_s == 0:
                    continue
                low, high = length_bounds(size_s, threshold, self.metric)
                prefix = prefix_length(size_s, threshold, self.metric)
                seen: Dict[int, bool] = {}
                for token in record[:prefix].tolist():
                    posting = self._lists.get(token)
                    rids = [] if posting is None else cache.fetch_ids(posting)
                    for rid in rids:
                        if rid in seen:
                            continue
                        seen[rid] = True
                        size_r = left_records[rid].size
                        if not low <= size_r <= high:
                            continue
                        stats.verifications += 1
                        needed = required_overlap(
                            size_r, size_s, threshold, self.metric
                        )
                        if (
                            verify_overlap_from(
                                left_records[rid], record, 0, 0, 0, needed
                            )
                            >= needed
                        ):
                            results.append((rid, sid))
                stats.candidates += len(seen)

        self._finalize_index(stats)
        stats.pairs = len(results)
        self.last_stats = stats
        results.sort()
        return results
