""":class:`SimilarityEngine` — the unified serving facade.

One object owns the whole query path: an inverted index (offline or
dynamic), the searcher for the configured metric, a shared
:class:`~repro.engine.cache.DecodeCache`, and a lazily-created worker pool
that :meth:`SimilarityEngine.search_batch` reuses across calls.

A batch runs one of two ways: in this process, or (``workers > 1``) as
chunks over a ``fork``-context process pool — the index is inherited
copy-on-write by the workers, only query chunks go out and
:class:`SearchResult` lists come back, so a CPU-bound Python query loop
scales with cores.  The pool pays once corpus × batch is large
(EXPERIMENTS.md records the crossover).  It follows
:mod:`repro.core.fork`, and either way the answers are a serial loop's.

Dynamic ingest (:meth:`add`) invalidates exactly the cached posting lists
the new record touched and retires the pool (forked workers hold the
pre-ingest index image).
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from itertools import repeat
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..core import fork
from ..obs import METRICS as _METRICS
from ..search.edsearch import EditDistanceSearcher
from ..search.result import SearchResult
from ..search.searcher import InvertedIndex, JaccardSearcher
from .cache import DecodeCache

__all__ = ["SimilarityEngine"]

#: byte cap of every engine's decode cache (entry count is the tuned knob)
_CACHE_MAX_BYTES = 64 << 20

#: engine image inside a pool worker, installed by the pool initializer.
_WORKER_ENGINE: Optional["SimilarityEngine"] = None


def _init_worker(engine: "SimilarityEngine") -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = engine
    # the forked engine still holds the parent's executor handle: drop it
    engine._pool.forget()


def _run_chunk(chunk: List[str], threshold) -> List[SearchResult]:
    """Answer one chunk of a batch in a pool worker."""
    return _WORKER_ENGINE.searcher.search_many_batched(chunk, threshold)


class SimilarityEngine:
    """Index + searcher + decode cache + worker pool behind one API.

    Parameters
    ----------
    collection:
        A :class:`~repro.similarity.tokenize.TokenizedCollection` to index
        (ignored when ``index`` is given).
    index:
        A prebuilt :class:`InvertedIndex` / :class:`DynamicInvertedIndex`
        to serve instead of building one.
    scheme / algorithm / metric:
        Offline scheme name, T-occurrence algorithm, and similarity metric
        (``jaccard`` / ``cosine`` / ``dice`` / ``ed`` — ``ed`` thresholds
        are integer edit distances).
    cache_entries:
        Decode-cache capacity; ``cache_entries=0`` disables the cache
        entirely.

    Every batch is answered by the searcher's
    :meth:`CountFilterSearcher.search_many_batched` (the vectorized
    :mod:`~repro.search.batchkernels`, which every algorithm has);
    single-query ``search`` is always per-query.
    """

    def __init__(
        self,
        collection=None,
        *,
        index=None,
        scheme: str = "css",
        algorithm: str = "mergeskip",
        metric: str = "jaccard",
        cache_entries: Optional[int] = 1024,
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
        """Answer one query; see the searcher classes for semantics."""
        return self.searcher.search(query, threshold)

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
        """
        queries = list(queries)
        if not queries:
            return []
        searcher = self.searcher
        workers = fork.fork_workers(int(workers or 1))
        if workers > 1 and len(queries) >= max(4, 2 * workers):
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
    # dynamic ingest
    # ------------------------------------------------------------------ #
    def add(self, text: str) -> int:
        """Ingest one record (dynamic indexes only) and invalidate exactly
        the cached posting lists the record touched."""
        if not hasattr(self.index, "add"):
            raise TypeError(
                "dynamic ingest requires a DynamicInvertedIndex-backed "
                "engine; this one serves a static InvertedIndex"
            )
        record_id = self.index.add(text)
        if self.cache is not None:
            for token in self.index.collection.records[record_id].tolist():
                posting = self.index.lists.get(token)
                if posting is not None:
                    self.cache.invalidate(posting)
        # forked workers hold the pre-ingest index image
        self.close()
        return record_id

    def add_many(self, texts: Sequence[str]) -> List[int]:
        return [self.add(text) for text in texts]

    # ------------------------------------------------------------------ #
    # persistence (the unified save / open / compact API)
    # ------------------------------------------------------------------ #
    def save(self, path) -> "Path":
        """Persist this engine's index as a bundle directory at ``path``.

        Static indexes produce an mmap-able bundle; dynamic indexes a
        state-exact snapshot plus an append log that this engine keeps
        journaling into (every later :meth:`add` lands in the bundle).
        Returns the bundle path.  See :mod:`repro.storage`.
        """
        from .. import storage

        return storage.save_index(self.index, path)

    @classmethod
    def open(cls, path, *, mmap: bool = True, **serving) -> "SimilarityEngine":
        """Reconstitute an engine from a bundle saved with :meth:`save`.

        ``serving`` are the constructor's serving knobs (``algorithm``,
        ``metric``, ``cache_entries``), forwarded as given so their
        defaults live in ``__init__`` only.
        ``mmap=True`` (the default, static bundles only) serves the
        posting-list payloads zero-copy off memory-mapped files — N
        engines opened from one bundle (or N fork workers of one engine)
        share a single on-disk copy through the page cache.  ``mmap=False``
        materializes an appendable in-memory copy; dynamic bundles are
        always materialized and replay their append log.
        """
        from .. import storage

        return cls(index=storage.open_index(path, mmap=mmap), **serving)

    def compact(self):
        """Seal a dynamic index's online lists into offline CSS blocks.

        Runs the DP re-partition over every compactable posting list (see
        :mod:`repro.storage.compaction`), drops the decode cache (every
        list's store was rebuilt, so cached decodes are stale even though
        the decoded ids are unchanged) and retires the worker pool (forked
        workers hold the pre-compaction image).  The engine keeps
        answering bit-identically, and dynamic ingest keeps working.
        Returns the :class:`~repro.storage.compaction.CompactionStats`.
        """
        if not hasattr(self.index, "compact"):
            raise TypeError(
                "compaction applies to dynamic indexes; this engine serves "
                "a static InvertedIndex (already optimally partitioned)"
            )
        stats = self.index.compact()
        if self.cache is not None:
            self.cache.clear()
        self.close()
        return stats

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
                "invalidations": 0,
            }
        return self.cache.stats()
