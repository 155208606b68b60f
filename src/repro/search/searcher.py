"""String similarity search (Definition 1) over compressed inverted indexes.

The offline pipeline of the paper: tokenize the collection, build one
posting list per signature under a chosen compression scheme (Uncomp /
PForDelta / MILC / CSS), and answer ``SIM(r, s) >= tau`` queries with the
count filter — a T-occurrence problem solved by ScanCount or MergeSkip —
followed by exact verification.

The index is threshold-free: ``tau`` arrives with the query, as Section 2.1
requires for the search (as opposed to join) setting.

Lists encode independently, and under CSS encoding is nearly all of a
build (its partition dynamic program is ~99% of it at ``dblp_like(6000)``
3-grams).  So a build whose scheme has an entry in
:data:`PARALLEL_BUILD_POSTINGS` and reaches that many postings encodes its
vocabulary over a :mod:`repro.core.fork` pool: the forked workers inherit
the grouped ids, each encodes one chunk of about equal cost, and the
parent assembles the serial build's lists, in its order.  A pool that
fails builds serially.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compression.base import ELEMENT_BITS, SortedIDList
from ..core import fork
from ..core.framework import offline_factory
from ..obs import METRICS as _METRICS
from ..similarity.measures import (
    length_bounds,
    required_overlap,
    required_overlap_array,
)
from ..similarity.tokenize import TokenizedCollection
from ..similarity.verify import verify_overlap_from
from .base import CountFilterSearcher, QueryPlan
from .batchkernels import UNREACHABLE
from .result import SearchResult, SearchStats

__all__ = [
    "PARALLEL_BUILD_POSTINGS",
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


#: scheme -> total postings from which its build encodes the lists over a
#: fork pool; below it, forking and shipping the lists back cost more than
#: they save.  Measured per scheme (EXPERIMENTS.md, "Execution paths", the
#: parallel-build addendum): Uncomp and PForDelta encode too fast to pay
#: even at ~880,000 postings, so they always build serially.
PARALLEL_BUILD_POSTINGS = {"css": 40_000, "milc": 500_000}

#: what encoding one list costs on top of its postings, counted in
#: postings: a codec call's fixed work, which dominates the many short
#: lists of a word corpus when chunks are balanced
_LIST_COST_POSTINGS = 8

#: the build a forked encoder works on, installed by the pool initializer
_BUILD_JOB: Optional[Tuple] = None


def _init_encoder(*job) -> None:
    global _BUILD_JOB
    _BUILD_JOB = job


def _encode_chunk(bounds: Tuple[int, int]) -> List:
    """Encode the lists ``bounds`` of the inherited build job."""
    id_lists, factory, scheme_kwargs = _BUILD_JOB
    low, high = bounds
    return [
        factory(np.asarray(ids, dtype=np.int64), **scheme_kwargs)
        for ids in id_lists[low:high]
    ]


def _chunk_bounds(sizes: Sequence[int], chunks: int) -> List[Tuple[int, int]]:
    """Split lists of ``sizes`` postings into ``chunks`` contiguous runs of
    about equal encoding cost."""
    cumulative = np.cumsum(np.asarray(sizes) + _LIST_COST_POSTINGS)
    targets = cumulative[-1] * np.arange(1, chunks) / chunks
    cuts = [0, *np.searchsorted(cumulative, targets).tolist(), len(sizes)]
    return [(low, high) for low, high in zip(cuts, cuts[1:]) if low < high]


def _encode_parallel(
    id_lists: List[List[int]], scheme: str, factory, scheme_kwargs: dict
) -> Optional[List]:
    """The encoded lists from a fork pool, one chunk per worker; ``None``
    when the scheme never pays or the build is too small to, the process
    has one CPU or no ``fork``, or the pool failed."""
    threshold = PARALLEL_BUILD_POSTINGS.get(scheme)
    if threshold is None:
        return None
    sizes = [len(ids) for ids in id_lists]
    # this is the threshold: every worker gets at least half of it to
    # encode, so a build below it gets fewer than two
    workers = fork.fork_workers(sum(sizes) // (threshold // 2))
    if workers < 2:
        return None
    bounds = _chunk_bounds(sizes, workers)
    job = (id_lists, factory, scheme_kwargs)
    with ExitStack() as owned:
        encoded = fork.pool_map(
            lambda: owned.enter_context(
                fork.process_pool(len(bounds), _init_encoder, initargs=job)
            ),
            _encode_chunk,
            bounds,
        )
    return None if encoded is None else [lst for part in encoded for lst in part]


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
            id_lists = list(grouped.values())
            encoded = _encode_parallel(id_lists, scheme, factory, scheme_kwargs)
            if encoded is None:
                encoded = [
                    factory(np.asarray(ids, dtype=np.int64), **scheme_kwargs)
                    for ids in id_lists
                ]
            self.lists: Dict[int, SortedIDList] = dict(zip(grouped, encoded))
        self.build_seconds = time.perf_counter() - start
        if _METRICS.enabled:
            _METRICS.inc("index.lists_built", len(self.lists))
        self.supports_random_access = all(
            lst.supports_random_access for lst in self.lists.values()
        )


@lru_cache(maxsize=1024)
def _needs_row(
    low: int, high: int, signature_size: int, threshold: float, metric: str
) -> np.ndarray:
    """One query's need per record size, :data:`UNREACHABLE` outside its
    window ``[low, high]``; the last column, one past ``high``, is what
    every larger size reads.  Memoized: a batch, even of one, reads it
    instead of re-deriving the bounds."""
    sizes = np.arange(high + 2)
    row = required_overlap_array(signature_size, sizes, threshold, metric)
    row[(sizes < low) | (sizes > high)] = UNREACHABLE
    row.flags.writeable = False
    return row


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
        sizes = [len(lst) for lst in lists]
        stats.lists_probed = len(lists)
        stats.postings_available = sum(sizes)
        plan.mode = "filter"
        plan.lists = lists
        plan.sizes = sizes
        plan.count_threshold = max(1, count_threshold)

    def _overlap_needs(self, plans: Sequence[QueryPlan]) -> np.ndarray:
        """``required_overlap(|q|, s)`` for every record size ``s`` inside
        each query's length window, :data:`UNREACHABLE` outside it."""
        # no record is longer than the longest: wider rows would only add
        # unreachable columns, and a row's width is what the memo holds
        longest = int(self.index.collection.lengths.max())
        rows = []
        for plan in plans:
            low, high, signature_size = plan.payload[1:]
            rows.append(
                _needs_row(
                    low, min(high, longest), signature_size, plan.threshold,
                    self.metric,
                )
            )
        needs = np.full((len(rows), max(row.size for row in rows)), UNREACHABLE)
        for index, row in enumerate(rows):
            needs[index, : row.size] = row
        return needs

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
