"""String similarity search (Definition 1) over compressed inverted indexes.

The offline pipeline of the paper: tokenize the collection, build one
posting list per signature under a chosen compression scheme (Uncomp /
PForDelta / MILC / CSS), and answer ``SIM(r, s) >= tau`` queries with the
count filter — a T-occurrence problem solved by ScanCount or MergeSkip —
followed by exact verification.

The index is threshold-free: ``tau`` arrives with the query, as Section 2.1
requires for the search (as opposed to join) setting.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from ..compression.base import ELEMENT_BITS, SortedIDList
from ..core.framework import offline_factory
from ..obs import METRICS as _METRICS
from ..similarity.measures import length_bounds, required_overlap
from ..similarity.tokenize import TokenizedCollection
from ..similarity.verify import verify_overlap_from
from .base import CountFilterSearcher, QueryPlan
from .result import SearchResult, SearchStats

__all__ = [
    "PostingIndex",
    "InvertedIndex",
    "JaccardSearcher",
    "SearchStats",
    "SearchResult",
]


class PostingIndex:
    """The posting-index protocol the searchers run on.

    An index is ``lists`` (signature id -> sorted id list), the tokenized
    ``collection`` behind it, its ``scheme`` name and
    ``supports_random_access``; the lookups and the paper's size accounting
    below are defined once for the offline and the dynamic index.
    """

    lists: Dict[int, SortedIDList]

    def __len__(self) -> int:
        return len(self.lists)

    def posting_lists(self, tokens: Sequence[int]) -> List[SortedIDList]:
        """Posting lists of the query tokens that exist in the index.

        Duplicate tokens are collapsed: Definition 1's overlap is set
        semantics, so a repeated query token must not contribute its posting
        list twice to the T-occurrence count.
        """
        return [
            self.lists[token]
            for token in dict.fromkeys(tokens)
            if token in self.lists
        ]

    def size_bits(self) -> int:
        """Total index size under the paper's accounting (the tables' metric)."""
        return sum(lst.size_bits() for lst in self.lists.values())

    def size_mb(self) -> float:
        return self.size_bits() / 8 / 1024 / 1024

    def num_postings(self) -> int:
        return sum(len(lst) for lst in self.lists.values())

    def compression_ratio(self) -> float:
        compressed = self.size_bits()
        if compressed == 0:
            return 1.0
        return ELEMENT_BITS * self.num_postings() / compressed


class InvertedIndex(PostingIndex):
    """Signature -> posting-list index under a pluggable offline scheme."""

    def __init__(
        self,
        collection: TokenizedCollection,
        scheme: str = "css",
        **scheme_kwargs,
    ) -> None:
        self.collection = collection
        self.scheme = scheme
        factory = offline_factory(scheme)
        grouped: Dict[int, List[int]] = {}
        for record_id, tokens in enumerate(collection.records):
            for token in tokens.tolist():
                grouped.setdefault(token, []).append(record_id)
        start = time.perf_counter()
        with _METRICS.span("index.build"):
            self.lists: Dict[int, SortedIDList] = {
                token: factory(np.asarray(ids, dtype=np.int64), **scheme_kwargs)
                for token, ids in grouped.items()
            }
        self.build_seconds = time.perf_counter() - start
        if _METRICS.enabled:
            _METRICS.inc("index.lists_built", len(self.lists))
        self.supports_random_access = all(
            lst.supports_random_access for lst in self.lists.values()
        )


class JaccardSearcher(CountFilterSearcher):
    """Count-filter similarity search for Jaccard (and Cosine/Dice) metrics."""

    def __init__(
        self,
        index: InvertedIndex,
        algorithm: str = "mergeskip",
        metric: str = "jaccard",
        cache=None,
    ) -> None:
        super().__init__(index, algorithm, cache=cache)
        self.metric = metric

    def _plan(self, query: str, threshold: float) -> QueryPlan:
        if not 0 < threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        started = time.perf_counter()
        stats = SearchStats()
        collection = self.index.collection
        query_ids = collection.encode_query(query)
        signature_size = collection.signature_size(query)
        plan = QueryPlan(
            query=query, threshold=threshold, stats=stats, started=started
        )
        if signature_size == 0:
            return plan
        low, high = length_bounds(signature_size, threshold, self.metric)
        plan.payload = (query_ids, low, high, signature_size)
        self._plan_candidates(plan)
        return plan

    def _plan_candidates(self, plan: QueryPlan) -> None:
        """Say how ``plan``'s candidates are produced: here, one
        T-occurrence problem over the flat index."""
        query_ids, low, _, signature_size = plan.payload
        stats = plan.stats
        # minimum count over all admissible candidate lengths: for Jaccard
        # |s| >= tau |r| implies overlap >= ceil(tau |r|)  (Section 3.1.1)
        count_threshold = required_overlap(
            signature_size, low, plan.threshold, self.metric
        )
        stats.count_threshold = count_threshold
        if count_threshold > query_ids.size:
            # too many query tokens unseen in the collection
            return
        lists = self.index.posting_lists(query_ids.tolist())
        stats.lists_probed = len(lists)
        stats.postings_available = sum(len(lst) for lst in lists)
        plan.mode = "filter"
        plan.lists = lists
        plan.count_threshold = max(1, count_threshold)

    def _verify(self, plan: QueryPlan, candidates: List[int]) -> List[int]:
        query_ids, low, high, signature_size = plan.payload
        collection = self.index.collection
        threshold = plan.threshold
        stats = plan.stats
        results: List[int] = []
        for candidate in candidates:
            record = collection.records[candidate]
            if not low <= record.size <= high:
                continue
            needed = required_overlap(
                signature_size, record.size, threshold, self.metric
            )
            stats.verifications += 1
            if (
                verify_overlap_from(query_ids, record, 0, 0, 0, needed)
                >= needed
            ):
                results.append(candidate)
        return results
