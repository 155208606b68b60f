""":class:`SimilarityEngine` — the unified serving facade.

One object owns the whole query path: an inverted index (offline or
dynamic), the searcher for the configured metric, a shared
:class:`~repro.engine.cache.DecodeCache`, and a lazily-created worker pool
that :meth:`SimilarityEngine.search_batch` reuses across calls.

A batch runs one of two ways: in this process, or (``workers > 1``) as
chunks over a ``fork``-context process pool — the index is inherited
copy-on-write by the workers (no per-task pickling of the index), only
query chunks go out and :class:`SearchResult` lists come back, so a
CPU-bound Python query loop actually scales with cores.  The pool pays
once corpus × batch is large (EXPERIMENTS.md records the crossover); a
platform without ``fork`` runs every batch in-process.
Pool-*infrastructure* failures (broken worker, pickling error,
``OSError``, an executor shut down under the batch) fall back to the
in-process path for the chunks the pool did not answer; genuine query
exceptions propagate exactly as a serial ``search`` loop would raise them
— ``search_batch`` never returns different answers than a serial loop, it
only changes how fast they arrive.

Dynamic ingest (:meth:`add`) invalidates exactly the cached posting lists
the new record touched and retires the pool (forked workers hold the
pre-ingest index image).
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
from pathlib import Path
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from ..obs import METRICS as _METRICS
from ..obs import TRACER as _TRACER
from ..search.edsearch import EditDistanceSearcher
from ..search.result import SearchResult
from ..search.searcher import InvertedIndex, JaccardSearcher
from .cache import DecodeCache
from .pool import WorkerPool

__all__ = ["SimilarityEngine"]

#: pool-infrastructure failures: the worker transport broke, not the query.
#: Only these trigger the serial fallback — a dead forked worker
#: (``BrokenProcessPool`` is a ``BrokenExecutor``), a task or result that
#: would not pickle, or an OS-level resource failure.  Anything else raised
#: out of a chunk is a genuine query error and must propagate unchanged.
_POOL_FAILURES = (BrokenExecutor, pickle.PicklingError, OSError)

#: byte cap of every engine's decode cache (entry count is the tuned knob)
_CACHE_MAX_BYTES = 64 << 20

#: engine image inside a pool worker, installed by the pool initializer.
_WORKER_ENGINE: Optional["SimilarityEngine"] = None


def _init_worker(engine: "SimilarityEngine") -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = engine
    # under fork the worker inherits the parent's engine object verbatim,
    # including its executor handle; drop it so worker-side teardown never
    # touches the parent's pool machinery
    engine._pool.forget()
    # the worker records into its own fork-inherited registry; each chunk
    # resets it, runs profiled, and ships the delta back (see _run_chunk)
    _METRICS.enabled = False
    _TRACER.enabled = False


def _obs_config():
    """Telemetry switches to ship with a process-pool chunk, or ``None``.

    ``None`` means nothing is collecting — the worker skips all registry
    bookkeeping and returns no delta.
    """
    if not _METRICS.enabled and not _TRACER.enabled:
        return None
    return (
        _METRICS.enabled,
        _TRACER.enabled,
        _TRACER.sample_rate,
        _TRACER.slow_ms,
    )


def _run_chunk(chunk: List[str], threshold, obs=None):
    """Answer one chunk in a pool worker; returns ``(results, delta)``.

    With telemetry on, the worker's registry/tracer are reset before the
    chunk and their delta — the lossless ``snapshot(full=True)`` plus any
    retained trace documents — rides back with the results, so the parent
    can fold worker-side metrics in and ``--profile`` under ``--workers``
    reports exactly what a serial run would.
    """
    searcher = _WORKER_ENGINE.searcher
    if obs is None:
        return searcher.search_many_batched(chunk, threshold), None
    metrics_on, traces_on, sample_rate, slow_ms = obs
    _METRICS.reset()
    _METRICS.enabled = metrics_on
    _TRACER.configure(
        enabled=traces_on, sample_rate=sample_rate, slow_ms=slow_ms
    )
    _TRACER.clear()
    try:
        results = searcher.search_many_batched(chunk, threshold)
        delta = {
            "metrics": _METRICS.snapshot(full=True) if metrics_on else None,
            "traces": _TRACER.drain() if traces_on else None,
        }
    finally:
        _METRICS.enabled = False
        _METRICS.reset()
        _TRACER.enabled = False
    return results, delta


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

    How a batch is answered — the vectorized
    :mod:`~repro.search.batchkernels` or the per-query loop — is the
    searcher's decision (:meth:`CountFilterSearcher.search_many_batched`);
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
        self._pool = WorkerPool()

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

        ``workers > 1`` partitions the batch into chunks over a reused
        ``fork`` process pool.  Small batches, ``workers in (None, 0, 1)``
        and platforms without ``fork`` run in-process — pool overhead would
        dominate, or there is no pool to be had.  Every chunk (and the
        in-process batch) is the searcher's ``search_many_batched``, which
        picks the batch T-occurrence kernels or the per-query algorithm.

        Failure semantics: only *pool-infrastructure* failures (a broken
        worker process, a pickling failure, an ``OSError``, an executor
        that refuses work because it was shut down) fall back to the
        in-process path, and only for the chunks the pool did not answer —
        chunks that already completed keep their results and their merged
        worker telemetry, so obs counters are never double-counted.  A
        genuine query exception (bad threshold, searcher bug) propagates
        immediately, exactly as it would from a serial ``search`` loop.
        """
        queries = list(queries)
        if not queries:
            return []
        searcher = self.searcher
        workers = int(workers or 1)
        if (
            workers <= 1
            or len(queries) < max(4, 2 * workers)
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            span = (
                "engine.batch.kernel"
                if searcher.supports_batch_kernel
                else "engine.batch.serial"
            )
            with _METRICS.span(span):
                return searcher.search_many_batched(queries, threshold)

        chunk_size = max(1, math.ceil(len(queries) / (workers * 4)))
        chunks = [
            queries[i : i + chunk_size]
            for i in range(0, len(queries), chunk_size)
        ]
        chunk_results: List[Optional[List[SearchResult]]] = [None] * len(chunks)
        pool: Optional[Executor] = None
        infrastructure_broken = False
        worker_chunks = 0
        # workers record telemetry into their own registries and ship the
        # delta back with the results (see _run_chunk)
        obs = _obs_config()
        try:
            try:
                pool = self._pool.get(workers, self._make_pool)
            except _POOL_FAILURES:
                infrastructure_broken = True
            if pool is not None:
                with _METRICS.span("engine.batch.parallel"):
                    futures = []
                    try:
                        for chunk in chunks:
                            futures.append(
                                pool.submit(_run_chunk, chunk, threshold, obs)
                            )
                    # a submit-time RuntimeError is the executor refusing
                    # work ("cannot schedule new futures after shutdown":
                    # add() / compact() / close() on another thread retired
                    # it between get and submit), not a query
                    except _POOL_FAILURES + (RuntimeError,):
                        infrastructure_broken = True
                    for position, future in enumerate(futures):
                        try:
                            answers, delta = future.result()
                        except _POOL_FAILURES:
                            infrastructure_broken = True
                        except BaseException:
                            # a genuine query error: cancel what has not
                            # started and let it propagate — no serial rerun,
                            # the serial path would raise the same exception
                            for pending in futures[position + 1 :]:
                                pending.cancel()
                            raise
                        else:
                            chunk_results[position] = answers
                            if delta is not None:
                                # fold the worker's registry delta and traces
                                # in: worker-side counters (blocks decoded,
                                # cursor seeks, ...) aggregate exactly as a
                                # serial run
                                _METRICS.merge(delta.get("metrics"))
                                _TRACER.ingest(delta.get("traces"))
                                worker_chunks += 1
        finally:
            if infrastructure_broken:
                # the transport died, not the queries: retire the broken
                # executor *unconditionally* — including when a genuine
                # query error is propagating out of this batch.  Leaving it
                # cached would make every subsequent batch re-trip the
                # failure before falling back; disposal here means the next
                # call lazily recreates a fresh pool.
                self.close()
        missing = [
            position
            for position, chunk in enumerate(chunk_results)
            if chunk is None
        ]
        if missing:
            with _METRICS.span("engine.batch.serial"):
                for position in missing:
                    chunk_results[position] = searcher.search_many_batched(
                        chunks[position], threshold
                    )
        results = [result for chunk in chunk_results for result in chunk]
        if _METRICS.enabled:
            _METRICS.inc("engine.batch.queries", len(results))
            _METRICS.inc("engine.batch.worker_chunks", worker_chunks)
        return results

    def _make_pool(self, workers: int) -> Executor:
        """A fork process pool: workers inherit the index copy-on-write."""
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(self,),
        )

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

    @property
    def pool_workers(self) -> int:
        """Size of the live worker pool (0 when none is up) — what the
        serving layer's pool-size gauge reads."""
        return self._pool.workers

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
