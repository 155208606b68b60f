"""The engine's pool lifecycle: :class:`WorkerPool`.

A :class:`~repro.engine.core.SimilarityEngine` keeps a lazily-created
``fork`` process pool that batches reuse across calls and that ingest,
compaction and infrastructure failures retire.  How that
handle is guarded, and how it survives a fork or a pickle, is decided
here once: every field is read and written under one lock, a pickled pool
comes back empty with a fresh lock, and a forked worker calls
:meth:`WorkerPool.forget` so it never touches the executor (or a lock
snapshotted mid-acquire) it inherited from its parent.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor
from typing import Any, Callable, Optional, Tuple

__all__ = ["WorkerPool"]


class WorkerPool:
    """A lock-guarded executor, built on first use and reused after."""

    def __init__(self) -> None:
        # concurrent search_batch callers (the serve-layer coalescer thread
        # plus direct callers) share this state.  RLock: get() retires a
        # stale executor via close() while held.
        self._lock = threading.RLock()
        self._executor: Optional[Executor] = None
        self._workers = 0

    def get(
        self, workers: int, factory: Callable[[int], Executor]
    ) -> Executor:
        """The live executor, rebuilt when ``workers`` differs from its size.

        ``factory(workers)`` arrives per call, not at construction: an
        engine's factory is a bound method (fork workers are initialized
        with the engine), and storing it would put every engine in a
        reference cycle, leaving its index or its mmap to a later GC pass.
        """
        with self._lock:
            if self._executor is not None and self._workers == workers:
                return self._executor
            self.close()
            self._executor = factory(workers)
            self._workers = workers
            return self._executor

    def close(self) -> None:
        """Shut the executor down; the next :meth:`get` builds a fresh one."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._workers = 0
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    @property
    def workers(self) -> int:
        """Size of the live executor (0 when none is up)."""
        with self._lock:
            return self._workers

    def forget(self) -> None:
        """Drop the inherited executor without shutting it down (post-fork).

        The lock is replaced outright — a fork can snapshot it mid-acquire
        by another parent thread, and a lock held by a thread that does not
        exist in the child would deadlock the child's own teardown.
        """
        self._lock = threading.RLock()
        with self._lock:
            self._executor = None
            self._workers = 0

    # executors and locks do not pickle and must never be shared across
    # process images: a pickled pool is "no executor, fresh lock"
    def __reduce__(self) -> Tuple[Any, ...]:
        return (WorkerPool, ())
