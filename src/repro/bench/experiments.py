"""Reusable experiment kernels shared by the benchmark suite.

Each function computes one measured quantity of Chapter 7 (an index size, a
build time, a batch query time, a join time) for one (dataset, scheme,
algorithm) combination; the ``benchmarks/`` files sweep these kernels over
the paper's grids and print the corresponding table or figure series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..datasets.loader import Dataset
from ..engine import SimilarityEngine
from ..join import JOIN_FILTERS
from ..search.searcher import InvertedIndex

__all__ = [
    "SearchIndexResult",
    "build_search_index",
    "run_search_queries",
    "JoinResult",
    "run_join",
    "sample_queries",
]


@dataclass
class SearchIndexResult:
    scheme: str
    size_mb: float
    build_seconds: float
    compression_ratio: float
    index: InvertedIndex


def build_search_index(
    dataset: Dataset, scheme: str, **scheme_kwargs
) -> SearchIndexResult:
    """Offline index for similarity search under ``scheme`` (Tables 7.2/7.4)."""
    index = InvertedIndex(dataset.collection, scheme=scheme, **scheme_kwargs)
    return SearchIndexResult(
        scheme=scheme,
        size_mb=index.size_mb(),
        build_seconds=index.build_seconds,
        compression_ratio=index.compression_ratio(),
        index=index,
    )


def sample_queries(
    dataset: Dataset, count: int, seed: int = 99
) -> List[str]:
    """The paper's protocol: random strings from the dataset as queries."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(dataset.strings), size=count)
    return [dataset.strings[i] for i in picks.tolist()]


def run_search_queries(
    index: InvertedIndex,
    queries: Sequence[str],
    threshold: float,
    algorithm: str,
    metric: str = "jaccard",
) -> Dict[str, float]:
    """Average per-query latency + result counts for one (algo, tau) cell.

    ``metric`` is the engine's spelling (``"jaccard"``/``"cosine"``/
    ``"dice"``/``"ed"``); no decode cache, so every query pays its decodes.
    """
    engine = SimilarityEngine(
        index=index, algorithm=algorithm, metric=metric, cache_entries=0
    )
    start = time.perf_counter()
    total_results = sum(
        len(engine.search(query, threshold)) for query in queries
    )
    elapsed = time.perf_counter() - start
    return {
        "avg_ms": 1000 * elapsed / max(1, len(queries)),
        "total_results": total_results,
    }


@dataclass
class JoinResult:
    filter_name: str
    scheme: str
    threshold: float
    seconds: float
    pairs: int
    index_mb: float


def run_join(
    dataset: Dataset,
    filter_name: str,
    scheme: str,
    threshold: float,
    **scheme_kwargs,
) -> JoinResult:
    """One similarity-join run (Table 7.3 / Figure 7.3 cell).

    Index construction happens inside ``join`` — its time is charged to the
    join, as Section 2.1 requires for the online setting.
    """
    join = JOIN_FILTERS[filter_name](
        dataset.collection, scheme=scheme, **scheme_kwargs
    )
    start = time.perf_counter()
    pairs = join.join(threshold)
    elapsed = time.perf_counter() - start
    return JoinResult(
        filter_name=filter_name,
        scheme=scheme,
        threshold=threshold,
        seconds=elapsed,
        pairs=len(pairs),
        index_mb=join.last_stats.index_mb,
    )
