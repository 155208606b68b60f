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
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..compression.online import OnlineSortedIDList
from ..core.framework import online_factory
from ..obs import METRICS as _METRICS
from ..obs import TRACER as _TRACER

__all__ = [
    "JoinStats",
    "OnlineIndexMixin",
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


class OnlineIndexMixin:
    """Lazily-created online posting lists keyed by signature.

    ``self._lists`` maps a signature key to an online list created by the
    configured scheme factory on first touch; ``_finalize_index`` seals every
    buffer and totals the size under the paper's accounting.
    """

    def _init_index(self, scheme: str, **scheme_kwargs) -> None:
        self._factory = online_factory(scheme)
        self._factory_kwargs = scheme_kwargs
        self._lists: Dict = {}

    def _list_for(self, key) -> OnlineSortedIDList:
        lst = self._lists.get(key)
        if lst is None:
            lst = self._factory(**self._factory_kwargs)
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
        if _METRICS.enabled:
            _METRICS.inc("join.runs")
