"""Request coalescing: many concurrent single queries, one batch call.

A serving process sees traffic as N concurrent requests, each carrying one
query; the engines are fastest when handed a whole batch (the vectorized
T-occurrence kernels amortize planning, decoding and numpy dispatch across
rows).  :class:`BatchCoalescer` bridges the two shapes: callers
:meth:`~BatchCoalescer.submit` one query each and block on a future, while
a single dispatcher thread hands every pending compatible request — same
:class:`BatchKey`, i.e. same threshold/metric — to one ``search_batch``
call and demuxes the answers back.  There is no clock: an idle dispatcher
sends a lone request straight to the engine, and whatever queues while a
batch runs becomes the next batch, so batches grow with load and nothing
waits for batchmates.

Correctness contract
--------------------

* **Parity** — a coalesced request gets the exact
  :class:`~repro.search.result.SearchResult` a direct ``engine.search``
  call would return (``search_batch`` guarantees batch == serial).
* **No cross-request bleed** — requests with different thresholds or
  metrics are never batched together; each future resolves to its own
  query's answer, demuxed by position.
* **Failure isolation** — when a batch call raises, the batch is re-run
  as batches of one, so a poisoned request (bad threshold, searcher
  error) receives exactly its own exception and its innocent batchmates
  still get their results.

Every engine call the coalescer itself makes happens on its one dispatcher
thread, so coalesced batches never overlap each other.  That is not a
serialization point for the whole serving layer: :class:`ServeApp` answers
an explicit ``"queries"`` batch on an ``asyncio.to_thread`` worker, which
can run the same engine concurrently with the dispatcher (the engines'
shared decode cache is lock-guarded for that).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Callable, List, NamedTuple, Optional, Sequence

from ..obs import TRACER as _TRACER
from ..obs.registry import MetricsRegistry

__all__ = ["BatchCoalescer", "BatchKey", "MAX_BATCH"]

#: most requests one engine call answers; more same-key requests pending
#: than this split into consecutive batches
MAX_BATCH = 64


class BatchKey(NamedTuple):
    """What must match for two requests to share one engine batch call."""

    metric: str
    threshold: float


class _PendingRequest:
    """One submitted query plus the telemetry the serving layer reads back.

    ``arrived``/``dispatched`` are ``perf_counter`` readings (same clock
    as trace spans) bracketing the wait in the queue, and
    ``batch_document`` is the trace document of the batch this request
    rode in (``None`` when tracing is off or the trace was sampled out).
    """

    __slots__ = (
        "query",
        "key",
        "future",
        "arrived",
        "dispatched",
        "batch_document",
    )

    def __init__(self, query: str, key: BatchKey) -> None:
        self.query = query
        self.key = key
        self.future: Future = Future()
        self.arrived = time.perf_counter()
        self.dispatched: Optional[float] = None
        self.batch_document: Optional[dict] = None


class BatchCoalescer:
    """Micro-batching queue in front of an engine.

    Parameters
    ----------
    run_batch:
        ``(queries, key) -> [SearchResult]`` — answers a whole batch
        sharing one :class:`BatchKey` (the app binds this to
        ``engine.search_batch``).  It is also the rescue path: when a
        batch call raises, each request re-runs alone as a batch of one.
    """

    def __init__(
        self, run_batch: Callable[[List[str], BatchKey], Sequence]
    ) -> None:
        self._run_batch = run_batch
        #: the serve layer's one always-on registry: :class:`ServeApp`
        #: records its route counters and gauges into this same object, so
        #: ``GET /metrics`` and ``GET /debug/vars`` read one source
        self.metrics = MetricsRegistry(enabled=True)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: List[_PendingRequest] = []
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self.metrics.register_gauge("serve.queue.depth", self.pending_count)

    # ------------------------------------------------------------------ #
    # caller side
    # ------------------------------------------------------------------ #
    def submit(self, query: str, key: BatchKey) -> Future:
        """Enqueue one request; the future resolves to ``(result, batch)``
        where ``batch`` is the size of the engine call it rode in."""
        return self.submit_request(query, key).future

    def submit_request(self, query: str, key: BatchKey) -> _PendingRequest:
        """:meth:`submit`, but returning the whole :class:`_PendingRequest`
        ticket — the serving layer reads its queue/dispatch timestamps and
        batch trace document after the future resolves."""
        request = _PendingRequest(query, key)
        with self._wake:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            if self._thread is None:
                self._start_locked()
            self._pending.append(request)
            self.metrics.inc("serve.requests")
            self._wake.notify_all()
        return request

    def pending_count(self) -> int:
        """Requests queued but not yet handed to the engine (the value the
        ``serve.queue.depth`` gauge and admission control read)."""
        with self._lock:
            return len(self._pending)

    def start(self) -> "BatchCoalescer":
        """Start the dispatcher thread (idempotent; submit() auto-starts)."""
        with self._wake:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            if self._thread is None:
                self._start_locked()
        return self

    def _start_locked(self) -> None:
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-coalescer", daemon=True
        )
        self._thread.start()

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests, flush what is pending, join the thread."""
        with self._wake:
            self._closed = True
            self._wake.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def __enter__(self) -> "BatchCoalescer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> dict:
        """Always-on coalescing counters for dashboards and the bench."""
        requests = self.metrics.counter("serve.requests")
        batches = self.metrics.counter("serve.batches")
        histogram = self.metrics.histograms.get("serve.batch_size")
        return {
            "requests": requests,
            "batches": batches,
            "coalescing_ratio": round(requests / batches, 3) if batches else 0.0,
            "mean_batch_size": (
                round(histogram.mean, 3) if histogram is not None else 0.0
            ),
            "max_batch_size": (
                int(histogram.max)
                if histogram is not None and histogram.count
                else 0
            ),
            "rescued_requests": self.metrics.counter("serve.rescued_requests"),
            "pending": self.pending_count(),
        }

    # ------------------------------------------------------------------ #
    # dispatcher side
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self._flush(batch)

    def _take_batch(self) -> Optional[List[_PendingRequest]]:
        """Block until something is pending, then take the oldest request
        and up to ``MAX_BATCH - 1`` more with its key; ``None`` means
        closed and drained."""
        with self._wake:
            while not self._pending:
                if self._closed:
                    return None
                self._wake.wait()
            head = self._pending[0]
            taken: List[_PendingRequest] = []
            kept: List[_PendingRequest] = []
            for request in self._pending:
                if request.key == head.key and len(taken) < MAX_BATCH:
                    taken.append(request)
                else:
                    kept.append(request)
            self._pending = kept
        return taken

    def _flush(self, batch: List[_PendingRequest]) -> None:
        # a caller may have given up (cancelled) while waiting in the
        # queue; drop those before spending engine time on them
        live = [
            request
            for request in batch
            if request.future.set_running_or_notify_cancel()
        ]
        if not live:
            return
        key = live[0].key
        queries = [request.query for request in live]
        self.metrics.inc("serve.batches")
        self.metrics.observe("serve.batch_size", len(live))
        started = time.perf_counter()
        for request in live:
            request.dispatched = started
        trace_ctx = _TRACER.trace(
            "serve.batch",
            requests=len(live),
            metric=key.metric,
            threshold=key.threshold,
        )
        try:
            with trace_ctx:
                results = self._run_batch(queries, key)
            if len(results) != len(live):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results for "
                    f"{len(live)} queries"
                )
        # failure isolation: re-run each request alone so the raising
        # request gets its own exception and batchmates still succeed
        # repro: noqa RA07 -- every exception re-delivers via the rescue path
        except BaseException as error:
            self._rescue(live, key, error)
            return
        finally:
            self.metrics.record_time(
                "serve.batch.seconds", time.perf_counter() - started
            )
        batch_document = getattr(trace_ctx, "document", None)
        for request, result in zip(live, results):
            request.batch_document = batch_document
            request.future.set_result((result, len(live)))

    def _rescue(
        self, batch: List[_PendingRequest], key: BatchKey, error: BaseException
    ) -> None:
        if len(batch) == 1:
            batch[0].future.set_exception(error)
            return
        self.metrics.inc("serve.rescued_requests", len(batch))
        for request in batch:
            try:
                (result,) = self._run_batch([request.query], key)
            # repro: noqa RA07 -- the exception IS this request's answer
            except BaseException as single_error:
                request.future.set_exception(single_error)
            else:
                request.future.set_result((result, 1))
