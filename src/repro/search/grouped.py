"""Length-grouped inverted index: the length filter pushed into the index.

The plain count-filter searcher must use one T-occurrence threshold valid
for *every* admissible candidate length — the weakest bound,
``required_overlap(|r|, tau·|r|)``.  Li et al.'s framework tightens this by
partitioning records into signature-length groups: each group [lo, hi] gets
its own posting lists, a query probes only groups intersecting its length
window, and within a group the threshold uses the group's minimum length —
strictly stronger pruning for the same answers.

The trade: one posting-list set per group multiplies metadata overhead
(shorter lists compress worse), which is why the group width is a knob.
:class:`GroupedJaccardSearcher` returns exactly the same results as
:class:`~repro.search.searcher.JaccardSearcher`; tests assert both the
equality and the candidate-count reduction.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..compression.base import SortedIDList
from ..core.framework import offline_factory
from ..obs import METRICS as _METRICS
from ..similarity.measures import required_overlap
from ..similarity.tokenize import TokenizedCollection
from .base import QueryPlan
from .searcher import JaccardSearcher

__all__ = ["LengthGroupedIndex", "GroupedJaccardSearcher"]


class LengthGroupedIndex:
    """Per-length-group posting lists under a pluggable offline scheme.

    ``group_width`` controls the geometric width of the groups: group ``g``
    covers signature sizes ``[base^g, base^(g+1))`` with
    ``base = 1 + group_width`` — geometric groups keep the per-group
    threshold tight at every scale (a fixed arithmetic width would be loose
    for short records and needlessly fine for long ones).
    """

    def __init__(
        self,
        collection: TokenizedCollection,
        scheme: str = "css",
        group_width: float = 0.25,
        **scheme_kwargs,
    ) -> None:
        if group_width <= 0:
            raise ValueError(f"group_width must be positive, got {group_width}")
        self.collection = collection
        self.scheme = scheme
        self.group_width = group_width
        self._base = 1.0 + group_width
        factory = offline_factory(scheme)

        grouped: Dict[int, Dict[int, List[int]]] = {}
        bounds: Dict[int, int] = {}  # group -> min signature size present
        for record_id, record in enumerate(collection.records):
            if record.size == 0:
                continue
            group = self.group_of(record.size)
            bounds[group] = min(bounds.get(group, record.size), record.size)
            lists = grouped.setdefault(group, {})
            for token in record.tolist():
                lists.setdefault(token, []).append(record_id)

        self.groups: Dict[int, Dict[int, SortedIDList]] = {
            group: {
                token: factory(np.asarray(ids, dtype=np.int64), **scheme_kwargs)
                for token, ids in lists.items()
            }
            for group, lists in grouped.items()
        }
        self.group_min_size = bounds
        self.supports_random_access = all(
            lst.supports_random_access
            for lists in self.groups.values()
            for lst in lists.values()
        )

    def group_of(self, size: int) -> int:
        """Group index covering signature size ``size``."""
        return int(math.floor(math.log(max(size, 1), self._base)))

    def groups_for_range(self, low: int, high: int) -> List[int]:
        """Groups intersecting the candidate-size window [low, high]."""
        first = self.group_of(max(1, low))
        last = self.group_of(max(1, high))
        return [g for g in range(first, last + 1) if g in self.groups]

    def size_bits(self) -> int:
        return sum(
            lst.size_bits()
            for lists in self.groups.values()
            for lst in lists.values()
        )

    def num_groups(self) -> int:
        return len(self.groups)


class GroupedJaccardSearcher(JaccardSearcher):
    """Count-filter search with per-group T-occurrence thresholds.

    A :class:`~repro.search.searcher.JaccardSearcher` over a
    :class:`LengthGroupedIndex`: only candidate generation differs — one
    T-occurrence problem per length group intersecting the query's window,
    each at the group's own (tighter) threshold, solved while planning.
    Verification is inherited, so the answers are the flat searcher's.
    """

    trace_kind = "search.grouped"

    def _plan_candidates(self, plan: QueryPlan) -> None:
        query_ids, low, high, signature_size = plan.payload
        index, stats = self.index, plan.stats
        tokens = query_ids.tolist()
        candidates: List[int] = []
        with _METRICS.span("search.filter"):
            for group in index.groups_for_range(low, high):
                lists = index.groups[group]
                probe = [lists[token] for token in tokens if token in lists]
                if not probe:
                    continue
                group_threshold = required_overlap(
                    signature_size,
                    max(low, index.group_min_size[group]),
                    plan.threshold,
                    self.metric,
                )
                if group_threshold > query_ids.size:
                    continue
                stats.lists_probed += len(probe)
                stats.postings_available += sum(len(lst) for lst in probe)
                stats.count_threshold = max(
                    stats.count_threshold, group_threshold
                )
                candidates.extend(
                    self._candidates(probe, max(1, group_threshold)).tolist()
                )
        # groups partition the records, so the per-group answers are disjoint
        candidates.sort()
        plan.mode = "direct"
        plan.direct_candidates = candidates
