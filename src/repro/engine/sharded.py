""":class:`ShardedEngine` — horizontal partitioning of the serving layer.

The paper's SSD discussion (§6.1) assumes one monolithic index dumped and
queried in place; the production axis beyond batching is partitioning the
index itself.  Partitioned inverted indexes with per-partition compressed
lists are the standard route to index-size and build-time scaling (Pibiri &
Venturini, *Techniques for Inverted Index Compression*), and per-partition
encoders compose cleanly when each shard keeps *local* ids (Vigna,
*Quasi-Succinct Indices*): every shard numbers its records ``0..m-1``, so
delta widths stay small and any offline scheme works unchanged.

:class:`ShardedEngine` partitions a
:class:`~repro.similarity.tokenize.TokenizedCollection` into N shards.  A
shard *is* a small :class:`~repro.engine.core.SimilarityEngine` over its own
:class:`~repro.search.searcher.InvertedIndex` (or
:class:`~repro.search.dynamic.DynamicInvertedIndex`), so searcher and
decode-cache construction, ingest invalidation and compaction exist once.
Queries fan out to every shard — a sharded batch is each shard's
``search_batch``, so the in-process kernel, the fork pool and its rescue
loop exist once, in the shard — and the per-shard results are merged with
local→global id remapping: answers are **bit-identical** to a single-shard
:class:`~repro.engine.core.SimilarityEngine` (same ids, same ascending
order), because the count filter and exact verification are both local to a
record: sharding changes which index answers for a record, never whether it
answers.

Routing modes
-------------

* ``"contiguous"`` — record ids split into N equal contiguous ranges
  (shard ``k`` owns ``[bounds[k], bounds[k+1])``).  Preserves locality of
  id-clustered corpora; the merge is a concatenation.
* ``"hash"`` — record ``g`` lives on shard ``g % N``.  Balances skewed
  corpora and is the routing used for dynamic ingest (the owning shard of
  a new record is known before it arrives).

Static shards share the parent collection's token dictionary, so a query
encodes identically everywhere; dynamic shards each grow their own
dictionary, which is equally exact (a token a shard has never seen cannot
contribute overlap on that shard).

Shard builds run in parallel over a ``fork``-context process pool when the
host has the cores for it (each worker builds one shard's index from the
inherited collection and ships the compressed layout back); a single-core
host or an unavailable ``fork`` builds serially — same indexes, different
wall-clock.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import METRICS as _METRICS
from ..obs import TRACER as _TRACER
from ..search.dynamic import DynamicInvertedIndex
from ..search.result import SearchResult, SearchStats
from ..search.searcher import InvertedIndex
from ..similarity.tokenize import TokenizedCollection
from .core import _POOL_FAILURES, SimilarityEngine

__all__ = ["ShardedEngine", "partition_records", "subcollection"]

ROUTINGS = ("contiguous", "hash")


def partition_records(
    num_records: int, shards: int, routing: str = "contiguous"
) -> List[np.ndarray]:
    """Global record ids per shard (ascending within each shard)."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if routing not in ROUTINGS:
        raise ValueError(f"routing must be one of {ROUTINGS}, got {routing!r}")
    everything = np.arange(num_records, dtype=np.int64)
    if routing == "contiguous":
        return [np.ascontiguousarray(a) for a in np.array_split(everything, shards)]
    return [everything[shard::shards] for shard in range(shards)]


def subcollection(
    collection: TokenizedCollection, global_ids: Sequence[int]
) -> TokenizedCollection:
    """The records of ``global_ids`` as a collection with local ids 0..m-1.

    Shares the parent's token dictionary (and the record arrays by
    reference), so queries encode identically on every shard.
    """
    ids = [int(i) for i in global_ids]
    return TokenizedCollection(
        strings=[collection.strings[i] for i in ids],
        records=[collection.records[i] for i in ids],
        dictionary=collection.dictionary,
        mode=collection.mode,
        q=collection.q,
    )


# ---------------------------------------------------------------------- #
# parallel shard build (fork pool; workers inherit the collection)
# ---------------------------------------------------------------------- #
_BUILD_CONTEXT: Optional[Tuple] = None


def _init_build_worker(
    collection, assignments, scheme, scheme_kwargs, profiled
) -> None:
    global _BUILD_CONTEXT
    _BUILD_CONTEXT = (collection, assignments, scheme, scheme_kwargs, profiled)
    _METRICS.enabled = False


def _build_one_shard(shard_id: int) -> Tuple[InvertedIndex, Optional[dict]]:
    """Build one shard's index; with the parent profiled, record the build
    into this worker's registry and ship the delta back for merging."""
    collection, assignments, scheme, scheme_kwargs, profiled = _BUILD_CONTEXT
    sub = subcollection(collection, assignments[shard_id])
    if not profiled:
        return InvertedIndex(sub, scheme=scheme, **scheme_kwargs), None
    _METRICS.reset()
    _METRICS.enabled = True
    try:
        index = InvertedIndex(sub, scheme=scheme, **scheme_kwargs)
        delta = _METRICS.snapshot(full=True)
    finally:
        _METRICS.enabled = False
        _METRICS.reset()
    return index, delta


class ShardedEngine:
    """Fan-out/merge serving engine over N index shards.

    Parameters
    ----------
    collection:
        The :class:`TokenizedCollection` to partition and index (static
        engines; omit for ``dynamic=True``).
    shards / routing:
        Partition count and routing mode (``"contiguous"`` / ``"hash"``).
    dynamic:
        Build :class:`DynamicInvertedIndex` shards that accept :meth:`add`;
        requires ``routing="hash"`` (the owning shard of global id ``g`` is
        ``g % shards``) and tokenizes with ``mode`` / ``q``.
    scheme:
        Offline scheme for static shards (default ``"css"``), online scheme
        for dynamic shards (default ``"adapt"``).
    algorithm / metric:
        As on :class:`~repro.engine.core.SimilarityEngine`.
    cache_entries:
        Per-shard :class:`DecodeCache` capacity (``0`` disables).
    build_workers:
        Process-pool size for the parallel static build; default
        ``min(shards, cpu_count)``.  ``1`` forces a serial build.
    """

    #: wall-clock of the static shard build (0.0 for dynamic or opened engines)
    build_seconds = 0.0

    def __init__(
        self,
        collection: Optional[TokenizedCollection] = None,
        *,
        shards: int = 2,
        routing: str = "contiguous",
        dynamic: bool = False,
        mode: str = "word",
        q: int = 3,
        scheme: Optional[str] = None,
        algorithm: str = "mergeskip",
        metric: str = "jaccard",
        cache_entries: Optional[int] = 1024,
        build_workers: Optional[int] = None,
        **scheme_kwargs,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if routing not in ROUTINGS:
            raise ValueError(
                f"routing must be one of {ROUTINGS}, got {routing!r}"
            )
        if dynamic:
            if routing != "hash":
                raise ValueError(
                    "dynamic sharding requires routing='hash' (the owning "
                    "shard of a new record must be known from its id alone)"
                )
            if collection is not None:
                raise ValueError(
                    "dynamic sharded engines tokenize their own records; "
                    "pass strings through add()/add_many(), not a collection"
                )
            scheme = scheme or "adapt"
            indexes = [
                DynamicInvertedIndex(
                    mode=mode, q=q, scheme=scheme, **scheme_kwargs
                )
                for _ in range(shards)
            ]
            assignments: List[List[int]] = [[] for _ in range(shards)]
        else:
            if collection is None:
                raise ValueError(
                    "provide a tokenized collection (or dynamic=True)"
                )
            scheme = scheme or "css"
            partition = partition_records(len(collection), shards, routing)
            started = time.perf_counter()
            with _METRICS.span("engine.shard.build"):
                indexes = self._build_indexes(
                    collection, partition, scheme, scheme_kwargs, build_workers
                )
            self.build_seconds = time.perf_counter() - started
            if _METRICS.enabled:
                _METRICS.inc("engine.shard.builds", shards)
            assignments = [assignment.tolist() for assignment in partition]
        self._from_indexes(
            indexes,
            assignments,
            routing=routing,
            dynamic=dynamic,
            scheme=scheme,
            algorithm=algorithm,
            metric=metric,
            cache_entries=cache_entries,
        )

    def _from_indexes(
        self,
        indexes: Sequence,
        assignments: List[List[int]],
        *,
        routing: str,
        dynamic: bool,
        scheme: str,
        **serving,
    ) -> None:
        """The one constructor path: wrap each shard index in an engine.

        ``assignments[k][local]`` is the global id of shard ``k``'s record
        ``local``; ``serving`` are the ``SimilarityEngine`` serving knobs
        (algorithm, metric, cache capacity), defaulted there.
        """
        self.shards: List[SimilarityEngine] = [
            SimilarityEngine(index=index, **serving) for index in indexes
        ]
        self._remaps = assignments
        self.num_shards = len(self.shards)
        self.routing = routing
        self.dynamic = dynamic
        self.scheme = scheme
        first = self.shards[0]
        self.algorithm = first.algorithm
        self.metric = first.metric

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #
    def _build_indexes(
        self,
        collection: TokenizedCollection,
        assignments: List[np.ndarray],
        scheme: str,
        scheme_kwargs: Dict,
        build_workers: Optional[int],
    ) -> List[InvertedIndex]:
        shards = len(assignments)
        if build_workers is None:
            build_workers = min(shards, os.cpu_count() or 1)
        if shards > 1 and build_workers > 1:
            try:
                context = multiprocessing.get_context("fork")
                with ProcessPoolExecutor(
                    max_workers=min(build_workers, shards),
                    mp_context=context,
                    initializer=_init_build_worker,
                    initargs=(
                        collection,
                        assignments,
                        scheme,
                        scheme_kwargs,
                        _METRICS.enabled,
                    ),
                ) as pool:
                    built = list(pool.map(_build_one_shard, range(shards)))
                # fold each build worker's registry delta into the parent,
                # so --profile sees index.build time and lists-built counts
                # even though the builds ran in forked children
                for _, delta in built:
                    _METRICS.merge(delta)
                return [index for index, _ in built]
            except (ValueError, ImportError) + _POOL_FAILURES:
                pass  # fork unavailable or a worker died: build serially
        return [
            InvertedIndex(
                subcollection(collection, assignment),
                scheme=scheme,
                **scheme_kwargs,
            )
            for assignment in assignments
        ]

    # ------------------------------------------------------------------ #
    # query path
    # ------------------------------------------------------------------ #
    def search(self, query: str, threshold) -> SearchResult:
        """Fan one query out to every shard and merge (parity with a
        single-shard engine: same ids, same ascending order)."""
        started = time.perf_counter()
        # one trace per query: the per-shard searches nest under it as
        # child "search" spans instead of starting trees of their own
        with _TRACER.trace("search.sharded", query=query, shards=self.num_shards):
            with _METRICS.span("engine.shard.search"):
                shard_results = [
                    shard.search(query, threshold) for shard in self.shards
                ]
                merged = self._merge(query, threshold, shard_results, started)
        if _METRICS.enabled:
            _METRICS.inc("engine.shard.queries")
            _METRICS.inc("engine.shard.fanout", len(self.shards))
        return merged

    def search_batch(
        self,
        queries: Sequence[str],
        threshold,
        workers: Optional[int] = 1,
    ) -> List[SearchResult]:
        """Answer ``queries`` in order: every shard answers the whole batch
        through its own ``search_batch`` (``workers`` means what it means
        there — ``workers > 1`` is each shard's fork pool, one shard at a
        time), then the per-shard answers are merged.
        Results are identical to a serial loop of :meth:`search` calls."""
        queries = list(queries)
        if not queries:
            return []
        started = time.perf_counter()
        with _METRICS.span("engine.shard.batch"):
            per_shard = [
                shard.search_batch(queries, threshold, workers=workers)
                for shard in self.shards
            ]
            merged = [
                self._merge(
                    query,
                    threshold,
                    [results[position] for results in per_shard],
                    started=None,
                )
                for position, query in enumerate(queries)
            ]
        if _METRICS.enabled:
            _METRICS.inc("engine.shard.queries", len(queries))
            _METRICS.inc("engine.shard.fanout", len(queries) * len(self.shards))
        # spread the batch wall-clock over the per-query seconds uniformly:
        # per-query timing is not observable once the shards answer in turn
        seconds = (time.perf_counter() - started) / len(queries)
        return [dataclasses.replace(result, seconds=seconds) for result in merged]

    def _merge(
        self,
        query: str,
        threshold,
        shard_results: List[SearchResult],
        started: Optional[float],
    ) -> SearchResult:
        ids: List[int] = []
        stats = SearchStats()
        for remap, result in zip(self._remaps, shard_results):
            ids.extend(remap[local] for local in result.ids)
            stats.lists_probed += result.stats.lists_probed
            stats.postings_available += result.stats.postings_available
            stats.candidates += result.stats.candidates
            stats.verifications += result.stats.verifications
        if shard_results:
            stats.count_threshold = shard_results[0].stats.count_threshold
        ids.sort()  # contiguous routing is pre-sorted; hash interleaves
        stats.results = len(ids)
        return SearchResult(
            query=query,
            threshold=threshold,
            ids=tuple(ids),
            stats=stats,
            seconds=0.0 if started is None else time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    # dynamic ingest
    # ------------------------------------------------------------------ #
    def route(self, global_id: int) -> int:
        """The shard that owns ``global_id`` under this engine's routing."""
        if self.routing == "hash":
            return global_id % self.num_shards
        for position, remap in enumerate(self._remaps):
            # contiguous: ranges are ascending
            if remap and remap[0] <= global_id <= remap[-1]:
                return position
        raise KeyError(f"record {global_id} is not owned by any shard")

    def add(self, text: str) -> int:
        """Ingest one record into its owning shard (dynamic engines only);
        invalidates exactly the owning shard's cached lists it touched."""
        if not self.dynamic:
            raise TypeError(
                "dynamic ingest requires a ShardedEngine(dynamic=True); "
                "this one serves static InvertedIndex shards"
            )
        global_id = self.num_records
        owner = global_id % self.num_shards
        self.shards[owner].add(text)
        self._remaps[owner].append(global_id)
        if _METRICS.enabled:
            _METRICS.inc("engine.shard.adds")
        return global_id

    def add_many(self, texts: Sequence[str]) -> List[int]:
        return [self.add(text) for text in texts]

    # ------------------------------------------------------------------ #
    # persistence (the unified save / open / compact API)
    # ------------------------------------------------------------------ #
    def save(self, path) -> "Path":
        """Persist every shard as a self-contained bundle under ``path``.

        The bundles carry their shard collections, so :meth:`open` needs
        no corpus argument.  Dynamic engines snapshot every shard and keep
        journaling into the per-shard append logs.  Returns the bundle
        path.
        """
        from .. import storage

        return storage.save_sharded(
            [shard.index for shard in self.shards],
            self._remaps,
            path,
            routing=self.routing,
            dynamic=self.dynamic,
        )

    @classmethod
    def open(cls, path, *, mmap: bool = True, **serving) -> "ShardedEngine":
        """Reconstitute a sharded engine from a :meth:`save` directory.

        ``serving`` are the per-shard ``SimilarityEngine`` serving knobs,
        forwarded as given (see :meth:`SimilarityEngine.open`).
        ``mmap=True`` serves every static shard's posting lists zero-copy
        off the memory-mapped bundles — N shards (and the fork workers
        querying them) share the page cache instead of N eager copies.
        Dynamic shards replay their append logs and resume journaling.
        """
        from .. import storage

        indexes, assignments, manifest = storage.open_sharded(
            path, mmap=mmap
        )
        engine = cls.__new__(cls)
        engine._from_indexes(
            indexes,
            [assignment.tolist() for assignment in assignments],
            routing=manifest["routing"],
            dynamic=bool(manifest.get("dynamic")),
            scheme=manifest["scheme"],
            **serving,
        )
        return engine

    def compact(self):
        """Compact every dynamic shard (see ``SimilarityEngine.compact``,
        whose ``TypeError`` for a static index applies shard by shard).

        Returns the per-shard
        :class:`~repro.storage.compaction.CompactionStats` list.
        """
        return [shard.compact() for shard in self.shards]

    # ------------------------------------------------------------------ #
    # pool lifecycle (the pools are the shards')
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut every shard's worker pool down (the engine stays usable)."""
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def pool_workers(self) -> int:
        """Live pool workers summed over the shards (0 when none is up)."""
        return sum(shard.pool_workers for shard in self.shards)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_records(self) -> int:
        return sum(len(remap) for remap in self._remaps)

    def __len__(self) -> int:
        return self.num_shards

    def size_bits(self) -> int:
        return sum(shard.index.size_bits() for shard in self.shards)

    def size_mb(self) -> float:
        return self.size_bits() / 8 / 1024 / 1024

    def num_postings(self) -> int:
        return sum(shard.index.num_postings() for shard in self.shards)

    def shard_sizes(self) -> List[int]:
        """Records per shard (the routing balance, for dashboards)."""
        return [len(remap) for remap in self._remaps]

    def cache_stats(self) -> Dict[str, int]:
        """Decode-cache counters summed over every shard's cache."""
        totals: Dict[str, int] = {}
        for shard in self.shards:
            for name, value in shard.cache_stats().items():
                totals[name] = totals.get(name, 0) + value
        return totals
