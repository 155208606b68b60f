"""The one fork protocol of the query pool and the parallel index build.

Each pool installs its own state through its initializer (fork hands the
initargs over without pickling them).  How many workers it forks, how a
task runs in a worker and how the parent maps tasks is decided here: a
task's own error propagates; a pool failure returns ``None`` and the
caller redoes the whole job in process; worker telemetry is merged only
when every task answered, so a redo never counts twice.  A pool reused
across calls lives in a :class:`WorkerPool`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures import BrokenExecutor, CancelledError, Executor
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..obs import METRICS as _METRICS
from ..obs import TRACER as _TRACER

__all__ = [
    "INFRASTRUCTURE_FAILURES", "WorkerPool", "fork_workers", "pool_map",
    "process_pool", "usable_cpus",
]

#: a pool failing, not a task: a dead worker (``BrokenProcessPool``), a
#: payload that will not pickle, an OS resource failure, or a task
#: cancelled by an executor shut down under the call
INFRASTRUCTURE_FAILURES = (
    BrokenExecutor, CancelledError, pickle.PicklingError, OSError
)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one (a cpuset or ``taskset`` limit), else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_workers(wanted: int) -> int:
    """Workers to fork for ``wanted``: at most :func:`usable_cpus`, and 1
    (run in process) where ``fork`` is missing."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(wanted, usable_cpus())


def process_pool(workers: int, initializer, initargs: Tuple) -> Executor:
    """A ``fork`` process pool whose workers run ``initializer(*initargs)``."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=initializer,
        initargs=initargs,
    )


def _run_in_worker(fn: Callable, switches, *args):
    """``(fn(*args), delta)`` in a worker whose registry and tracer follow
    the parent's ``switches``; ``delta`` is the task's lossless
    ``snapshot(full=True)`` and trace documents, or ``None``."""
    if switches is None:
        # a long-lived worker may have forked while the parent collected
        _METRICS.enabled = _TRACER.enabled = False
        return fn(*args), None
    metrics_on, traces_on, sample_rate, slow_ms = switches
    _METRICS.reset()
    _METRICS.enabled = metrics_on
    _TRACER.configure(
        enabled=traces_on, sample_rate=sample_rate, slow_ms=slow_ms
    )
    _TRACER.clear()
    try:
        result = fn(*args)
        delta = {
            "metrics": _METRICS.snapshot(full=True) if metrics_on else None,
            "traces": _TRACER.drain() if traces_on else None,
        }
    finally:
        _METRICS.enabled = _TRACER.enabled = False
        _METRICS.reset()
    return result, delta


def pool_map(
    open_pool: Callable[[], Executor], fn: Callable, *iterables: Iterable
) -> Optional[List]:
    """``[fn(*args) for args in zip(*iterables)]`` over ``open_pool()``.

    ``fn`` is module-level (pickled by reference) and one of ``iterables``
    is finite.  Returns ``None`` on :data:`INFRASTRUCTURE_FAILURES`; an
    error raised by ``fn`` propagates and cancels the tasks not started.
    """
    switches = None
    if _METRICS.enabled or _TRACER.enabled:
        switches = (
            _METRICS.enabled, _TRACER.enabled,
            _TRACER.sample_rate, _TRACER.slow_ms,
        )
    try:
        pending = open_pool().map(
            _run_in_worker, repeat(fn), repeat(switches), *iterables
        )
    # submitting runs no task: a RuntimeError is a shut-down pool refusing
    except INFRASTRUCTURE_FAILURES + (RuntimeError,):
        return None
    try:
        outputs = list(pending)
    except INFRASTRUCTURE_FAILURES:
        return None
    for _, delta in outputs:
        if delta is not None:
            _METRICS.merge(delta["metrics"])
            _TRACER.ingest(delta["traces"])
    return [result for result, _ in outputs]


class WorkerPool:
    """A lock-guarded executor, built on first use and reused after.

    Every field is read and written under one lock; a pickled pool comes
    back empty with a fresh lock, and a forked worker calls :meth:`forget`
    so it never touches the executor (or a lock snapshotted mid-acquire)
    it inherited from its parent.
    """

    def __init__(self) -> None:
        # RLock: get() retires a stale executor via close() while held
        self._lock = threading.RLock()
        self._executor: Optional[Executor] = None
        self._workers = 0

    def get(
        self, workers: int, factory: Callable[[int], Executor]
    ) -> Executor:
        """The live executor, rebuilt when ``workers`` differs from its size.

        ``factory(workers)`` arrives per call: an engine's factory is a
        bound method, and storing it would put every engine in a reference
        cycle, leaving its index or its mmap to a later GC pass.
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

    def forget(self) -> None:
        """Drop the inherited executor without shutting it down (post-fork).

        The lock is replaced outright: a lock held by a parent thread that
        does not exist in the child would deadlock the child's teardown.
        """
        self._lock = threading.RLock()
        with self._lock:
            self._executor = None
            self._workers = 0

    # executors and locks do not pickle and must never be shared across
    # process images: a pickled pool is "no executor, fresh lock"
    def __reduce__(self) -> Tuple[Any, ...]:
        return (WorkerPool, ())
