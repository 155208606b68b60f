"""Shared scaffolding for similarity self-joins (Definition 2).

All join algorithms follow the paper's Algorithm 1 skeleton: process records
one by one, probe the inverted lists of the current record's signatures for
candidates among *earlier* records, verify survivors, then append the record
to its signature lists.  The index is built online — which is why the join
engines are parameterized by an online compression scheme (Chapter 5) and
why index construction time is charged to the join.

Records are processed in (size, id) order and renumbered 0..n-1 in that
order, so posting-list appends are strictly ascending — the invariant the
two-region online lists require.  Results are mapped back to original ids.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..compression.online import OnlineSortedIDList
from ..core.framework import online_factory
from ..obs import METRICS as _METRICS
from ..obs import TRACER as _TRACER
from ..search.edsearch import normalize_delta
from ..similarity.tokenize import TokenizedCollection

__all__ = [
    "JoinStats",
    "OnlineIndexMixin",
    "SelfJoin",
    "check_threshold",
    "processing_order",
    "normalize_pairs",
    "traced_join",
]


def traced_join(method):
    """Wrap a ``join(threshold)`` method in a root trace.

    The join phases already instrumented through ``METRICS.span``
    (``join.index`` / ``join.probe`` / ``join.finalize``) become children
    of the trace, so one join run yields one span tree tagged with the
    filter class and threshold.
    """

    @functools.wraps(method)
    def wrapper(self, threshold, *args, **kwargs):
        with _TRACER.trace(
            "join", filter=type(self).__name__, threshold=threshold
        ):
            return method(self, threshold, *args, **kwargs)

    return wrapper


@dataclass
class JoinStats:
    """Counters and sizes recorded by the most recent join run."""

    candidates: int = 0
    verifications: int = 0
    pairs: int = 0
    index_bits: int = 0
    position_bits: int = 0
    num_lists: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def index_mb(self) -> float:
        """Index size in MB including position side-lists (the tables' metric)."""
        return (self.index_bits + self.position_bits) / 8 / 1024 / 1024


def processing_order(sizes: np.ndarray) -> np.ndarray:
    """Stable (size, original-id) processing order for the join loop."""
    return np.argsort(sizes, kind="stable")


def normalize_pairs(
    internal_pairs: List[Tuple[int, int]], order: np.ndarray
) -> List[Tuple[int, int]]:
    """Map internal (processing-order) id pairs back to sorted original pairs."""
    pairs = []
    for left, right in internal_pairs:
        a, b = int(order[left]), int(order[right])
        pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    return pairs


def check_threshold(threshold, metric: str):
    """The joins' one threshold validator; returns the threshold to join at.

    Set metrics take a similarity in ``(0, 1]``; ``metric == "ed"`` takes an
    integral, non-negative edit distance exactly as the searchers do
    (``1.0`` means 1 edit, ``1.5`` is an error, never a truncation).
    """
    if metric == "ed":
        return normalize_delta(threshold)
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    return threshold


class OnlineIndexMixin:
    """Lazily-created online posting lists keyed by signature.

    ``self._lists`` maps a signature key to an online list created by the
    configured scheme factory on first touch; ``_finalize_index`` seals every
    buffer and totals the size under the paper's accounting.
    """

    def _init_index(self) -> None:
        self._factory = online_factory(self.scheme)
        self._lists: Dict = {}

    def _list_for(self, key) -> OnlineSortedIDList:
        lst = self._lists.get(key)
        if lst is None:
            lst = self._factory(**self._scheme_kwargs)
            self._lists[key] = lst
        return lst

    def _finalize_index(self, stats: JoinStats) -> None:
        with _METRICS.span("join.finalize"):
            total = 0
            for lst in self._lists.values():
                lst.finalize()
                total += lst.size_bits()
        stats.index_bits = total
        stats.num_lists = len(self._lists)


class SelfJoin(OnlineIndexMixin):
    """Algorithm 1, written once: a filter is *probe* and *index* one record.

    :meth:`join` owns everything the filters share — threshold check, the
    (size, id) processing order, the interleaved probe-then-append pass
    (one ``join.probe`` span: index time is charged to the join, per §2.1;
    with metrics on, its :meth:`_index` share is also summed into the
    ``join.index`` timer), sealing the online lists, the :class:`JoinStats`
    epilogue and the mapping back to original ids.  A filter subclass
    supplies :meth:`_probe`, reading the per-join state :meth:`join` leaves
    on ``self`` (``_records`` and their ``_sizes`` in processing order,
    ``_threshold``, ``_stats``, ``_results``, ``_lists``), and may override
    :meth:`_index`, :meth:`_items`, :meth:`_begin` and :meth:`_side_bits`.
    """

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
        """All qualifying pairs as sorted original-id tuples."""
        self._threshold = check_threshold(threshold, self.metric)
        self._init_index()
        items = self._items()
        sizes = [len(item) for item in items]
        order = processing_order(np.asarray(sizes))
        self._records = records = [items[i] for i in order]
        self._sizes = [sizes[i] for i in order]
        self._stats = stats = JoinStats()
        self._results = results = []
        self._begin()
        probe, index = self._probe, self._index
        with _METRICS.span("join.probe"):
            if _METRICS.enabled:
                # the index share of the probe span, summed, not spanned:
                # a span per record would cost more than the appends it times
                index_s = 0.0
                clock = time.perf_counter
                for sid, record in enumerate(records):
                    signatures = probe(sid, record)
                    started = clock()
                    index(sid, signatures)
                    index_s += clock() - started
                _METRICS.record_time("join.index", index_s)
            else:
                for sid, record in enumerate(records):
                    index(sid, probe(sid, record))
        self._finalize_index(stats)
        stats.position_bits = self._side_bits()
        stats.pairs = len(results)
        self.last_stats = stats
        return normalize_pairs(results, order)

    def _items(self) -> Sequence:
        """What is joined, in original-id order; ``len`` of an item is its size."""
        return self.collection.records

    def _begin(self) -> None:
        """Set up per-join filter state beyond the posting lists."""

    def _probe(self, sid: int, record) -> Iterable:
        """Find and verify partners of ``record`` among records ``< sid``:
        append ``(rid, sid)`` to ``_results``, count into ``_stats``.
        Returns the signatures ``record`` is to be indexed under."""
        raise NotImplementedError

    def _index(self, sid: int, signatures: Iterable) -> None:
        """Append ``sid`` to the list of each of its signatures."""
        for key in signatures:
            self._list_for(key).append(sid)

    def _side_bits(self) -> int:
        """Bits the filter holds beside the id lists (``position_bits``)."""
        return 0
