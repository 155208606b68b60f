"""The engines' one pool lifecycle: :class:`WorkerPool`, :class:`PoolOwner`.

Both engines keep a lazily-created executor that batches reuse across
calls and that ingest, compaction and infrastructure failures retire.
How that handle is guarded, and how it survives a fork or a pickle, is
decided here once: every field is read and written under one lock, a
pickled pool comes back empty with a fresh lock, and a forked worker
calls :meth:`WorkerPool.forget` so it never touches the executor (or a
lock snapshotted mid-acquire) it inherited from its parent.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor
from typing import Any, Callable, Optional, Tuple

__all__ = ["WorkerPool", "PoolOwner"]


class WorkerPool:
    """A lock-guarded executor, built on first use and reused after."""

    def __init__(self) -> None:
        # concurrent search_batch callers (the serve-layer coalescer thread
        # plus direct callers) share this state.  RLock: get() retires a
        # stale executor via close() while held.
        self._lock = threading.RLock()
        self._executor: Optional[Executor] = None
        self._kind: Optional[str] = None
        self._workers = 0

    def get(
        self, workers: int, factory: Callable[[int], Tuple[str, Executor]]
    ) -> Executor:
        """The live executor, rebuilt when ``workers`` differs from its size.

        ``factory(workers)`` returns ``(kind, executor)``, ``kind`` being
        ``"process"`` or ``"thread"`` (which payload shape the executor
        takes).  It arrives per call, not at construction: an engine's
        factory is a bound method (fork workers are initialized with the
        engine), and storing it would put every engine in a reference
        cycle, leaving its index or its mmap to a later GC pass.
        """
        with self._lock:
            if self._executor is not None and self._workers == workers:
                return self._executor
            self.close()
            self._kind, self._executor = factory(workers)
            self._workers = workers
            return self._executor

    def close(self) -> None:
        """Shut the executor down; the next :meth:`get` builds a fresh one."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._kind = None
            self._workers = 0
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    @property
    def kind(self) -> Optional[str]:
        """``"process"`` / ``"thread"``, or ``None`` when no executor is up."""
        with self._lock:
            return self._kind

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
            self._kind = None
            self._workers = 0

    # executors and locks do not pickle and must never be shared across
    # process images: a pickled pool is "no executor, fresh lock"
    def __reduce__(self) -> Tuple[Any, ...]:
        return (WorkerPool, ())


class PoolOwner:
    """What an engine holding ``self._pool`` offers its callers: explicit
    ``close()``, the ``with`` protocol, GC teardown and the pool gauge."""

    _pool: WorkerPool

    def close(self) -> None:
        """Shut the worker pool down (the engine stays usable serially)."""
        self._pool.close()

    def __enter__(self) -> "PoolOwner":
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
