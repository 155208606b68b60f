""":class:`SimilarityEngine` — the unified serving facade.

One object owns the whole query path: an inverted index, the searcher
for the configured metric, a shared
:class:`~repro.engine.cache.DecodeCache`, and a lazily-created worker pool
that :meth:`SimilarityEngine.search_batch` reuses across calls.

Every query goes through the searcher's batch path,
:meth:`~repro.search.base.CountFilterSearcher.search_many_batched`: a
single :meth:`SimilarityEngine.search` is a batch of one.  A batch runs
one of two ways: in this process, or (``workers > 1``) as chunks over a
``fork``-context process pool — the index is inherited
copy-on-write by the workers, only query chunks go out and
:class:`SearchResult` lists come back, so a CPU-bound Python query loop
scales with cores.  The pool pays once corpus × batch is large
(EXPERIMENTS.md records the crossover).  It follows
:mod:`repro.core.fork`, and either way the answers are a serial loop's.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from itertools import repeat
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..core import fork
from ..obs import METRICS as _METRICS
from ..obs import TRACER as _TRACER
from ..obs import trace_query as _trace_query
from ..search.dynamic import DynamicInvertedIndex
from ..search.edsearch import EditDistanceSearcher
from ..search.result import SearchResult
from ..search.searcher import InvertedIndex, JaccardSearcher
from .cache import DecodeCache

__all__ = ["SimilarityEngine"]

#: byte cap of every engine's decode cache: the bound by default, since a
#: decoded list's size, not the count of lists, is what the cache costs
_CACHE_MAX_BYTES = 64 << 20

#: engine image inside a pool worker, installed by the pool initializer.
_WORKER_ENGINE: Optional["SimilarityEngine"] = None


def _init_worker(engine: "SimilarityEngine") -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = engine
    # the forked engine still holds the parent's executor handle: drop it
    engine._pool.forget()


def _run_chunk(chunk: List[str], threshold) -> List[SearchResult]:
    """Answer one chunk of a batch in a pool worker; when the parent
    traces, the chunk is an ``engine.batch`` root trace of its own, which
    ships back with the answers."""
    with _TRACER.trace("engine.batch", queries=len(chunk), threshold=threshold):
        return _WORKER_ENGINE.searcher.search_many_batched(chunk, threshold)


class SimilarityEngine:
    """Index + searcher + decode cache + worker pool behind one API.

    Parameters
    ----------
    collection:
        A :class:`~repro.similarity.tokenize.TokenizedCollection` to index
        (ignored when ``index`` is given).
    index:
        A prebuilt :class:`InvertedIndex` to serve instead of building
        one.
    scheme / algorithm / metric:
        Offline scheme name, T-occurrence algorithm, and similarity metric
        (``jaccard`` / ``cosine`` / ``dice`` / ``ed`` — ``ed`` thresholds
        are integer edit distances).
    cache_entries:
        Decode-cache entry cap.  ``None`` (the default) bounds the cache
        by decoded bytes alone (64 MiB), so an index whose decoded lists
        fit is decoded once and never evicts; an int also caps the entry
        count; ``cache_entries=0`` disables the cache entirely.

    Every query is answered by the searcher's
    :meth:`CountFilterSearcher.search_many_batched` (the batch
    T-occurrence path of :mod:`~repro.search.batchkernels`); a single
    ``search`` is a batch of one.  With the tracer on, each engine call
    is one trace document.
    """

    def __init__(
        self,
        collection=None,
        *,
        index=None,
        scheme: str = "css",
        algorithm: str = "mergeskip",
        metric: str = "jaccard",
        cache_entries: Optional[int] = None,
        **scheme_kwargs,
    ) -> None:
        if index is None:
            if collection is None:
                raise ValueError("provide a tokenized collection or an index")
            index = InvertedIndex(collection, scheme=scheme, **scheme_kwargs)
        elif scheme_kwargs:
            # a prebuilt index fixed its scheme; this is also what keeps
            # open(path, **serving) strict about misspelled knobs
            raise TypeError(
                f"unexpected keyword arguments for a prebuilt index: "
                f"{sorted(scheme_kwargs)}"
            )
        if isinstance(index, DynamicInvertedIndex):
            # its lists grow in place on add(), which the decode cache
            # would never notice
            raise ValueError(
                "a DynamicInvertedIndex grows after it is built; search it "
                "through JaccardSearcher(index) / EditDistanceSearcher(index)"
            )
        self.index = index
        self.metric = metric
        self.algorithm = algorithm
        self.cache: Optional[DecodeCache] = (
            None
            if cache_entries == 0
            else DecodeCache(
                max_entries=cache_entries, max_bytes=_CACHE_MAX_BYTES
            )
        )
        if metric == "ed":
            self.searcher = EditDistanceSearcher(
                index, algorithm=algorithm, cache=self.cache
            )
        else:
            self.searcher = JaccardSearcher(
                index, algorithm=algorithm, metric=metric, cache=self.cache
            )
        self._pool = fork.WorkerPool()

    # ------------------------------------------------------------------ #
    # single-query path
    # ------------------------------------------------------------------ #
    def search(self, query: str, threshold) -> SearchResult:
        """Answer one query, as a batch of one under its own root trace;
        see the searcher classes for semantics."""
        searcher = self.searcher
        with _trace_query(query, threshold, kind=searcher.trace_kind):
            return searcher.search_many_batched([query], threshold)[0]

    # ------------------------------------------------------------------ #
    # batch path
    # ------------------------------------------------------------------ #
    def search_batch(
        self,
        queries: Sequence[str],
        threshold,
        workers: Optional[int] = 1,
    ) -> List[SearchResult]:
        """Answer ``queries`` in order; identical results to serial ``search``.

        ``workers > 1`` splits the batch into chunks over a reused ``fork``
        pool of at most :func:`~repro.core.fork.usable_cpus` workers; small
        batches, one usable CPU and platforms without ``fork`` run
        in-process.  Each chunk is the searcher's ``search_many_batched``.

        Failure semantics: a pool-*infrastructure* failure (a dead worker,
        a pickling failure, an ``OSError``, a pool shut down under the
        batch) retires the pool and answers the whole batch again in
        process, discarding the pool's telemetry so nothing counts twice.
        A genuine query exception propagates, as from a serial loop.

        With the tracer on, the batch is one ``engine.batch`` root trace,
        or, inside a caller's trace (the server's batch), spans of it.
        """
        queries = list(queries)
        if not queries:
            return []
        if _TRACER.enabled and not _TRACER.is_tracing():
            with _TRACER.trace(
                "engine.batch", queries=len(queries), threshold=threshold
            ):
                return self._search_batch(queries, threshold, workers)
        return self._search_batch(queries, threshold, workers)

    def _search_batch(
        self, queries: List[str], threshold, workers: Optional[int]
    ) -> List[SearchResult]:
        searcher = self.searcher
        workers = int(workers or 1)
        if workers > 1 and len(queries) >= 4:
            # a batch of one (every served request) never asks the OS
            workers = fork.fork_workers(workers)
        if workers > 1 and len(queries) >= 2 * workers:
            chunk_size = max(1, math.ceil(len(queries) / (workers * 4)))
            chunks = [
                queries[i : i + chunk_size]
                for i in range(0, len(queries), chunk_size)
            ]
            with _METRICS.span("engine.batch.parallel"):
                answered = fork.pool_map(
                    lambda: self._pool.get(workers, self._make_pool),
                    _run_chunk,
                    chunks,
                    repeat(threshold),
                )
            _METRICS.inc("engine.batch.queries", len(queries))
            if answered is not None:
                _METRICS.inc("engine.batch.worker_chunks", len(chunks))
                return [result for chunk in answered for result in chunk]
            # the transport died, not the queries: retire the broken pool,
            # so the next batch forks a fresh one, and answer it all here
            self.close()
            with _METRICS.span("engine.batch.rerun"):
                return searcher.search_many_batched(queries, threshold)
        with _METRICS.span("engine.batch.kernel"):
            return searcher.search_many_batched(queries, threshold)

    def _make_pool(self, workers: int) -> Executor:
        """A fork process pool: workers inherit the index copy-on-write."""
        return fork.process_pool(workers, _init_worker, initargs=(self,))

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker pool down (the engine stays usable serially)."""
        self._pool.close()

    def __enter__(self) -> "SimilarityEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering dependent
        try:
            self.close()
        except (RuntimeError, OSError, AttributeError):
            # interpreter teardown: pool internals may already be reclaimed
            pass

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> "Path":
        """Persist this engine's index as an mmap-able bundle directory at
        ``path`` and return the path; see :mod:`repro.storage`."""
        from .. import storage

        return storage.save_index(self.index, path)

    @classmethod
    def open(cls, path, *, mmap: bool = True, **serving) -> "SimilarityEngine":
        """Reconstitute an engine from a bundle saved with :meth:`save`.

        ``serving`` are the constructor's serving knobs (``algorithm``,
        ``metric``, ``cache_entries``), forwarded as given so their
        defaults live in ``__init__`` only.
        ``mmap=True`` (the default) serves the posting-list payloads
        zero-copy off memory-mapped files — N engines opened from one
        bundle (or N fork workers of one engine) share a single on-disk
        copy through the page cache.  ``mmap=False`` loads the arrays into
        memory.
        """
        from .. import storage

        return cls(index=storage.open_index(path, mmap=mmap), **serving)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_records(self) -> int:
        return len(self.index.collection)

    def cache_stats(self) -> Dict[str, int]:
        """Decode-cache counters (all zero when the cache is disabled)."""
        if self.cache is None:
            return {
                "entries": 0,
                "bytes": 0,
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "insertions": 0,
            }
        return self.cache.stats()
