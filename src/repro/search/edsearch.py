"""Edit-distance similarity search (the AOL experiments of Chapter 7).

Signatures are distinct character q-grams.  The count filter uses the
destruction bound specialized to *set* semantics (the paper's inverted lists
store unique record ids): one edit operation touches at most ``q`` distinct
q-gram types of the query, so ``ed(r, s) <= delta`` implies the candidate
shares at least ``|Sig(r)| - q * delta`` of the query's q-gram types.

When the bound degenerates (short queries / loose thresholds) the searcher
falls back to the length filter — candidates are scanned from a
length-bucketed directory, mirroring how practical systems (e.g. Flamingo)
handle T <= 0.
"""

from __future__ import annotations

import time
from typing import Dict, List, Union

from ..obs import METRICS as _METRICS
from ..similarity.edit_distance import within_edit_distance
from .base import CountFilterSearcher, QueryPlan
from .result import SearchStats
from .searcher import InvertedIndex

__all__ = ["EditDistanceSearcher", "normalize_delta"]


def normalize_delta(value: Union[int, float]) -> int:
    """An edit-distance threshold as a non-negative ``int``, strictly.

    Thresholds arrive as ``float | int`` everywhere (the CLI parses
    ``--ed 2`` as a float, engine callers pass either), and ``int(1.9)``
    silently meaning "1 edit" is always a user mistake — so a fractional
    value is rejected, never truncated.  Shared by the searchers and the
    CLI so both reject ``1.5`` identically.
    """
    if float(value) != int(value):
        raise ValueError(
            f"edit-distance thresholds must be integral, got {value}"
        )
    delta = int(value)
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    return delta


class EditDistanceSearcher(CountFilterSearcher):
    """q-gram count-filter search for ``ed(query, record) <= delta``."""

    trace_kind = "search.ed"

    def __init__(
        self,
        index: InvertedIndex,
        algorithm: str = "mergeskip",
        cache=None,
    ) -> None:
        if index.collection.mode != "qgram":
            raise ValueError(
                "edit-distance search requires a q-gram tokenized collection"
            )
        super().__init__(index, algorithm, cache=cache)
        self.q = index.collection.q
        # length directory for the T <= 0 fallback; rebuilt lazily when the
        # collection grows (dynamic indexes ingest between queries)
        self._by_length: Dict[int, List[int]] = {}
        self._directory_size = -1
        self._refresh_length_directory()

    def _refresh_length_directory(self) -> None:
        strings = self.index.collection.strings
        if len(strings) == self._directory_size:
            return
        # build into locals, then publish with two atomic assignments so a
        # concurrent reader (another thread's search) never sees half a map
        by_length: Dict[int, List[int]] = {}
        for record_id, text in enumerate(strings):
            by_length.setdefault(len(text), []).append(record_id)
        self._by_length = by_length
        self._directory_size = len(strings)

    def _length_scan(self, query: str, delta: int) -> List[int]:
        self._refresh_length_directory()
        by_length = self._by_length
        candidates: List[int] = []
        for length in range(len(query) - delta, len(query) + delta + 1):
            candidates.extend(by_length.get(length, []))
        return sorted(candidates)

    def _plan(self, query: str, delta: Union[int, float]) -> QueryPlan:
        delta = normalize_delta(delta)
        started = time.perf_counter()
        stats = SearchStats()
        collection = self.index.collection
        # one tokenization: unseen grams drop out of the ids but still
        # count toward the signature size
        grams = collection.tokenize(query)
        query_ids = collection.dictionary.encode(grams)
        count_threshold = len(grams) - self.q * delta
        stats.count_threshold = count_threshold
        plan = QueryPlan(
            query=query, threshold=delta, stats=stats, started=started
        )
        if count_threshold >= 1 and query_ids.size >= count_threshold:
            lists = self.index.posting_lists(query_ids.tolist())
            stats.lists_probed = len(lists)
            stats.postings_available = sum(len(lst) for lst in lists)
            plan.mode = "filter"
            plan.lists = lists
            plan.count_threshold = count_threshold
        elif count_threshold >= 1:
            # more unseen query grams than the bound tolerates: no record can
            # share count_threshold of the query's grams — plan stays "empty"
            pass
        else:
            # degenerate bound: fall back to the length filter
            with _METRICS.span("search.filter"):
                plan.direct_candidates = self._length_scan(query, delta)
            plan.mode = "direct"
        return plan

    def _verify(self, plan: QueryPlan, candidates: List[int]) -> List[int]:
        strings = self.index.collection.strings
        query = plan.query
        delta = plan.threshold
        stats = plan.stats
        results: List[int] = []
        for candidate in candidates:
            text = strings[candidate]
            if abs(len(text) - len(query)) > delta:
                continue
            stats.verifications += 1
            if within_edit_distance(query, text, delta):
                results.append(candidate)
        return results
