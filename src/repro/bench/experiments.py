"""The one timer, the experiment record, kernels and cardinalities.

Every timing cell of the Chapter 7 grid is :func:`timed`: the cell's whole
unit of work (a batch of queries, a join including its online index, an
index build) run :data:`REPEATS` times, each repeat rebuilding what the
cell charges, reported as median and quartiles — the protocol Pibiri and
Venturini state for inverted-index timings.  Each kernel computes one
measured quantity for one (dataset, scheme, algorithm) combination; the
:mod:`repro.bench.grid` functions sweep them over the paper's grids.  Sizes
come from :data:`SEARCH_CARDINALITY` / :data:`JOIN_CARDINALITY` times an
explicit ``scale`` — nothing here reads ``REPRO_SCALE``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple, TypeVar

import numpy as np

from ..datasets.loader import Dataset, load_dataset
from ..engine import SimilarityEngine
from ..join import JOIN_FILTERS
from ..search.searcher import InvertedIndex

#: repeats per timing cell
REPEATS = 5

T = TypeVar("T")


@dataclass(frozen=True)
class Timing:
    """The per-repeat samples of one timing cell (seconds unless scaled)."""

    samples: Tuple[float, ...]

    def _percentile(self, q: float) -> float:
        return float(np.percentile(self.samples, q))

    @property
    def median(self) -> float:
        return self._percentile(50)

    @property
    def q1(self) -> float:
        return self._percentile(25)

    @property
    def q3(self) -> float:
        return self._percentile(75)

    def scaled(self, factor: float) -> "Timing":
        """The same samples in another unit (e.g. ms per query)."""
        return Timing(tuple(sample * factor for sample in self.samples))


def timed(
    run: Callable[[], T],
    repeats: int = REPEATS,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[Timing, T]:
    """Call ``run`` ``repeats`` times; the timing and the last result."""
    samples = []
    for _ in range(repeats):
        start = clock()
        result = run()
        samples.append(clock() - start)
    return Timing(tuple(samples)), result


@dataclass
class Experiment:
    """One DESIGN.md §4 row: rendered tables plus the cells asserted on."""

    name: str
    title: str
    tables: List[tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    cells: Dict[Any, Any] = field(default_factory=dict)

    def add(
        self, headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
    ) -> None:
        self.tables.append((title, list(headers), [list(row) for row in rows]))


#: records per dataset at scale 1.0.  Search indexes are cheap to build;
#: joins are O(n * candidates) in pure Python, so they run on smaller slices.
SEARCH_CARDINALITY = {
    "dblp": 5_000,
    "tweet": 5_000,
    "dna": 1_500,
    "aol": 6_000,
    "uniform": 6_000,
    "amazon": 2_000,
}
JOIN_CARDINALITY = {
    "dblp": 1_200,
    "tweet": 1_500,
    "dna": 500,
    "aol": 2_500,
    "zipf": 2_000,
    "amazon": 800,
}
#: queries per search cell at scale 1.0 (the paper uses 10,000)
QUERY_COUNT = 50


def scaled(base: int, scale: float) -> int:
    """``base * scale`` records, never fewer than 100."""
    return max(100, int(base * scale))


def query_count(scale: float) -> int:
    return max(10, int(QUERY_COUNT * scale))


@functools.lru_cache(maxsize=None)
def cached_dataset(name: str, cardinality: int) -> Dataset:
    """One generated corpus per (name, size), shared by every experiment."""
    return load_dataset(name, cardinality=cardinality)


def search_dataset(name: str, scale: float) -> Dataset:
    return cached_dataset(name, scaled(SEARCH_CARDINALITY[name], scale))


def join_dataset(name: str, scale: float) -> Dataset:
    return cached_dataset(name, scaled(JOIN_CARDINALITY[name], scale))


@dataclass
class SearchIndexResult:
    scheme: str
    size_mb: float
    build_seconds: float
    compression_ratio: float
    index: InvertedIndex


def build_search_index(dataset: Dataset, scheme: str) -> SearchIndexResult:
    """Offline index for similarity search under ``scheme`` (Tables 7.2/7.4)."""
    index = InvertedIndex(dataset.collection, scheme=scheme)
    return SearchIndexResult(
        scheme=scheme,
        size_mb=index.size_mb(),
        build_seconds=index.build_seconds,
        compression_ratio=index.compression_ratio(),
        index=index,
    )


@functools.lru_cache(maxsize=None)
def search_index(name: str, scheme: str, scale: float) -> SearchIndexResult:
    """The shared offline index of one search dataset (built once)."""
    return build_search_index(search_dataset(name, scale), scheme)


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
) -> Dict[str, object]:
    """Per-query latency (``"ms"``) and result count of one (algo, tau) cell.

    ``metric`` is the engine's spelling (``"jaccard"``/``"cosine"``/
    ``"dice"``/``"ed"``); no decode cache, so every query pays its decodes.
    """
    engine = SimilarityEngine(
        index=index, algorithm=algorithm, metric=metric, cache_entries=0
    )
    timing, total_results = timed(
        lambda: sum(len(engine.search(query, threshold)) for query in queries)
    )
    return {
        "ms": timing.scaled(1000 / max(1, len(queries))),
        "total_results": total_results,
    }


@dataclass
class JoinResult:
    time: Timing
    pairs: int
    index_mb: float


def run_join(
    dataset: Dataset,
    filter_name: str,
    scheme: str,
    threshold: float,
    repeats: int = REPEATS,
) -> JoinResult:
    """One similarity-join cell (Table 7.3 / Figure 7.3).

    Every repeat builds a fresh join, whose online index is constructed
    inside ``join`` — its time is charged to the join, as Section 2.1
    requires for the online setting.
    """

    def run():
        join = JOIN_FILTERS[filter_name](dataset.collection, scheme=scheme)
        return join, len(join.join(threshold))

    timing, (join, pairs) = timed(run, repeats)
    return JoinResult(timing, pairs, join.last_stats.index_mb)


#: DESIGN.md §4's rows in order: name -> ``run(scale, queries=0)``
EXPERIMENTS: Dict[str, Callable[..., Experiment]] = {}


def experiment(name: str, title: str):
    """Register a sweep ``(experiment, scale, queries)`` under ``name``.

    The registered function takes ``scale`` and an optional per-cell query
    count (0: :func:`query_count` of the scale) and returns the filled
    :class:`Experiment`.
    """

    def register(sweep):
        @functools.wraps(sweep)
        def run(scale: float, queries: int = 0) -> Experiment:
            result = Experiment(name, title)
            sweep(result, scale, queries or query_count(scale))
            return result

        EXPERIMENTS[name] = run
        return run

    return register
