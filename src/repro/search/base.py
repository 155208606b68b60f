"""Shared scaffolding for the count-filter searchers.

The single home of what :class:`JaccardSearcher`,
:class:`EditDistanceSearcher` and :class:`GroupedJaccardSearcher` share:
``search()`` itself, the algorithm-name validation, the random-access
guard (PForDelta cannot run MergeSkip, per Figure 7.2), the T-occurrence
dispatch, the post-query stats bookkeeping, and the two pieces the batched
engine adds to every searcher:

* an optional shared :class:`~repro.engine.cache.DecodeCache` — when set,
  a batch looks each distinct probed list up once, and a list is decoded
  and cached on its first touch (``search()`` never reads it: it runs on
  the compressed layout);
* the :class:`~repro.search.result.SearchResult` plumbing — ``search()``
  returns a frozen result carrying its own :class:`SearchStats`.

Queries run in two phases shared by the serial and batched paths:
:meth:`CountFilterSearcher._plan` reduces a query to a
:class:`QueryPlan` (which posting lists to probe, at what T-occurrence
threshold, plus whatever the verifier needs), and
:meth:`CountFilterSearcher._verify` turns candidate ids into answers.
Between the two sits candidate generation — per query via
:func:`~repro.search.toccurrence.run_algorithm` on the compressed lists,
or for a whole batch at once over decoded lists via
:mod:`repro.search.batchkernels`.  Because both paths share the plan and
verify code verbatim, the serial path is the batch path's parity oracle
by construction: any divergence is inside the batch candidates, where the
fuzz suite hunts for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import METRICS as _METRICS
from ..obs import TRACER as _TRACER
from ..obs import trace_query as _trace_query
from .batchkernels import batch_candidates, decode_postings
from .result import SearchResult, SearchStats
from .toccurrence import ALGORITHMS, num_long_lists, run_algorithm

__all__ = ["CountFilterSearcher", "QueryPlan"]


@dataclass
class QueryPlan:
    """One query reduced to its T-occurrence problem (or lack of one).

    ``mode`` selects how candidates are produced:

    * ``"filter"`` — solve the T-occurrence problem over ``lists`` at
      ``count_threshold`` (serial algorithm or batch kernel);
    * ``"direct"`` — ``direct_candidates`` were computed during planning
      (e.g. the edit-distance length-filter fallback when T degenerates);
    * ``"empty"`` — the query provably has no answers.

    ``sizes`` are the lengths of ``lists``, read once while planning (a
    batch splits the lists by them).  ``payload`` carries whatever the
    subclass's verifier needs (query token ids, length window, ...); the
    base class never looks inside it.
    """

    query: str
    threshold: object
    stats: SearchStats
    started: float
    mode: str = "empty"
    lists: List = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)
    count_threshold: int = 1
    payload: tuple = ()
    direct_candidates: Optional[List[int]] = None


class CountFilterSearcher:
    """Base for searchers that answer queries via the count filter.

    Subclasses supply :meth:`_plan` (the only place a threshold is
    validated) and :meth:`_verify`; ``trace_kind`` names their root trace.
    """

    trace_kind = "search"

    def __init__(self, index, algorithm: str, cache=None) -> None:
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {tuple(ALGORITHMS)}, "
                f"got {algorithm!r}"
            )
        if algorithm != "scancount" and not index.supports_random_access:
            raise ValueError(
                f"scheme {index.scheme!r} supports only sequential decoding; "
                "use algorithm='scancount' (cf. Figure 7.2: PForDelta cannot "
                "run MergeSkip)"
            )
        self.index = index
        self.algorithm = algorithm
        self.cache = cache

    # ------------------------------------------------------------------ #
    # shared query machinery
    # ------------------------------------------------------------------ #
    def _candidates(self, lists, threshold: int):
        """One query's T-occurrence problem on the per-query algorithm,
        run on the compressed layout."""
        return run_algorithm(
            self.algorithm, lists, threshold, len(self.index.collection)
        )

    def _plan(self, query: str, threshold) -> QueryPlan:
        """Validate ``threshold`` and reduce one query to a
        :class:`QueryPlan` (subclass hook)."""
        raise NotImplementedError

    def _verify(self, plan: QueryPlan, candidates: List[int]) -> List[int]:
        """Exact-verify candidate ids against ``plan`` (subclass hook)."""
        raise NotImplementedError

    def _overlap_needs(self, plans: Sequence[QueryPlan]) -> Optional[np.ndarray]:
        """The overlap each record size needs to answer each plan (hook).

        ``needs[row, s]`` is the least count a record of size ``s`` must
        reach in ``plans[row]``'s lists to be an answer, or
        :data:`~repro.search.batchkernels.UNREACHABLE`; a size past the
        last column reads the last column.  ``None``, the default, has no
        such bound: a ScanCount or DivideSkip batch then counts every
        probed list at the plan's T.
        """
        return None

    def _count_rows(
        self, plans: Sequence[QueryPlan]
    ) -> Tuple[List[List], List[int], Optional[np.ndarray]]:
        """Each plan's lists to count, its count floor, and its size bound.

        With a per-size bound (:meth:`_overlap_needs`) a ScanCount or
        DivideSkip batch (the divided ScanCount) counts only each row's
        short lists: DivideSkip's split
        (:func:`~repro.search.toccurrence.num_long_lists`) sets the ``L``
        longest aside, the floor drops to ``T - L``, and a record's need
        drops by ``L`` too, since it occurs at most ``L`` times in the
        lists set aside.  ``_verify`` restores the exact answers.
        """
        needs = (
            self._overlap_needs(plans) if self.algorithm != "mergeskip" else None
        )
        if needs is None:
            return (
                [plan.lists for plan in plans],
                [plan.count_threshold for plan in plans],
                None,
            )
        probed: List[List] = []
        floors: List[int] = []
        for row, plan in enumerate(plans):
            lists, sizes, threshold = plan.lists, plan.sizes, plan.count_threshold
            num_long = 0
            # a row with fewer lists than T has no answers; the kernel skips it
            if len(lists) >= threshold:
                num_long = num_long_lists(threshold, max(sizes))
            if num_long:
                shortest = sorted(range(len(lists)), key=sizes.__getitem__)
                lists = [lists[j] for j in shortest[: len(lists) - num_long]]
                needs[row] -= num_long
            probed.append(lists)
            floors.append(threshold - num_long)
        return probed, floors, needs

    def _finish(
        self,
        query: str,
        threshold: float,
        stats: SearchStats,
        ids: List[int],
        started: float,
    ) -> SearchResult:
        """Freeze one query's outcome and record the per-query counters."""
        stats.results = len(ids)
        if _METRICS.enabled:
            _METRICS.inc("search.queries")
        if _TRACER.enabled:
            # filtering counters on the trace make the slow-query log
            # self-explanatory (a slow query is usually a candidate flood)
            _TRACER.annotate(
                candidates=stats.candidates,
                verifications=stats.verifications,
                results=stats.results,
            )
        return SearchResult(
            query=query,
            threshold=threshold,
            ids=tuple(int(i) for i in ids),
            stats=stats,
            seconds=time.perf_counter() - started,
        )

    def _execute(
        self, plan: QueryPlan, kernel_candidates
    ) -> SearchResult:
        """Finish a plan: candidates (given or computed), verify, freeze."""
        if plan.mode == "empty":
            return self._finish(
                plan.query, plan.threshold, plan.stats, [], plan.started
            )
        if kernel_candidates is not None:
            candidates = kernel_candidates.tolist()
        elif plan.mode == "direct":
            candidates = plan.direct_candidates or []
        else:
            with _METRICS.span("search.filter"):
                candidates = self._candidates(
                    plan.lists, plan.count_threshold
                ).tolist()
        plan.stats.candidates = len(candidates)
        with _METRICS.span("search.verify"):
            results = self._verify(plan, candidates)
        return self._finish(
            plan.query, plan.threshold, plan.stats, results, plan.started
        )

    def search(self, query: str, threshold) -> SearchResult:
        """Ids of the records within ``threshold`` of ``query``, ascending.

        The paper's per-query plan -> filter -> verify flow on the
        compressed lists, which is also the batch path's parity oracle.
        """
        with _trace_query(query, threshold, kind=self.trace_kind):
            return self._execute(self._plan(query, threshold), None)

    def search_many_batched(
        self, queries: Sequence[str], threshold
    ) -> List[SearchResult]:
        """Answer a batch through the batch T-occurrence path.

        Every engine call comes here — a single ``engine.search`` is a
        batch of one, and an engine batch runs here in process or in a
        pool worker.  Plans every query (one ``search.plan`` span),
        solves all the "filter"-mode plans in one
        :func:`~repro.search.batchkernels.batch_candidates` call (each
        distinct posting list looked up in the decode cache, and decoded,
        once for the whole batch; a ScanCount or DivideSkip batch only its
        short lists, see :meth:`_count_rows`), then verifies per query.
        Returns exactly a :meth:`search` loop's answers; per-result
        ``seconds`` are batch-attributed rather than per-query.  The
        spans land in whatever trace the caller holds open (the engine's
        root trace, or the serving layer's batch trace).
        """
        with _METRICS.span("search.plan"):
            plans = [self._plan(query, threshold) for query in queries]
        rows = [i for i, plan in enumerate(plans) if plan.mode == "filter"]
        answers: List = []
        if rows:
            with _METRICS.span("search.filter"):
                probed, floors, needs = self._count_rows(
                    [plans[i] for i in rows]
                )
                # one decode over every row's lists, then split back per row
                decoded = iter(
                    decode_postings(
                        [lst for lists in probed for lst in lists], self.cache
                    )
                )
                per_query_arrays = [
                    list(islice(decoded, len(lists))) for lists in probed
                ]
                collection = self.index.collection
                answers = batch_candidates(
                    self.algorithm,
                    per_query_arrays,
                    floors,
                    len(collection),
                    needs,
                    collection.lengths,
                )
        by_row = dict(zip(rows, answers))
        return [
            self._execute(plan, by_row.get(i))
            for i, plan in enumerate(plans)
        ]
