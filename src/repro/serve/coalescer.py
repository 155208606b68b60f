"""Request coalescing: many concurrent single queries, one batch call.

A serving process sees traffic as N concurrent requests, each carrying one
query; the engines are fastest when handed a whole batch (the vectorized
T-occurrence kernels amortize planning, decoding and numpy dispatch across
rows).  :class:`BatchCoalescer` bridges the two shapes: callers
:meth:`~BatchCoalescer.submit` one query each and get a future, while a
drain callback on an asyncio event loop hands every pending compatible
request — same :class:`BatchKey`, i.e. same threshold/metric — to one
``search_batch`` call and demuxes the answers back.  There is no clock:
the first request of a loop turn schedules a drain with ``call_soon``, so
every request parsed in that turn shares the batch, and whatever arrives
while a batch runs waits in its socket and makes the next one.  Batches
grow with load and nothing waits for batchmates.

Where batches run
-----------------

:meth:`~BatchCoalescer.start` called on a running event loop binds the
coalescer to that loop.  :class:`ServeApp`'s lifespan does this, so the
serving loop parses a ``POST /search``, runs its batch and writes the
answer without changing threads.  ``start()`` called off any loop, and the
auto-start inside ``submit()``, run the coalescer's own loop on one daemon
thread instead; the coalescer never binds itself to a caller's loop, which
may be as short-lived as one ``asyncio.run``.  Either way one drain path
runs every batch, one at a time, and holds its loop while the engine
works: under the GIL a separate thread would hold the interpreter through
the same Python work and buy no concurrency.

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

Coalesced batches never overlap each other.  That is not a serialization
point for the whole serving layer: :class:`ServeApp` answers an explicit
``"queries"`` batch on an ``asyncio.to_thread`` worker, which can run the
same engine concurrently with a coalesced batch (the engines' shared
decode cache is lock-guarded for that).
"""

from __future__ import annotations

import asyncio
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
        #: notified when a drain ends, for a close() waiting off the loop
        self._wake = threading.Condition(self._lock)
        self._pending: List[_PendingRequest] = []
        #: the loop every drain runs on, and the thread running it when
        #: that loop is the coalescer's own
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        #: a drain is scheduled on ``_loop`` or running there
        self._draining = False
        self._closed = False
        self.metrics.register_gauge("serve.queue.depth", self.pending_count)

    # ------------------------------------------------------------------ #
    # caller side
    # ------------------------------------------------------------------ #
    def submit(self, query: str, key: BatchKey) -> Future:
        """Enqueue one request; the future resolves to ``(result, batch)``
        where ``batch`` is the size of the engine call it rode in.  Safe to
        call from any thread."""
        return self.submit_request(query, key).future

    def submit_request(self, query: str, key: BatchKey) -> _PendingRequest:
        """:meth:`submit`, but returning the whole :class:`_PendingRequest`
        ticket — the serving layer reads its queue/dispatch timestamps and
        batch trace document after the future resolves."""
        request = _PendingRequest(query, key)
        with self._wake:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            if self._loop is None:
                self._start_own_loop_locked()
            self._pending.append(request)
            self.metrics.inc("serve.requests")
            loop = None if self._draining else self._loop
            self._draining = True
        if loop is not None:
            try:
                if _running_loop() is loop:
                    loop.call_soon(self._drain)
                else:
                    loop.call_soon_threadsafe(self._drain)
            except RuntimeError:
                # the bound loop closed under us: nothing will run a
                # drain there, so answer on the caller's thread
                self._drain_here()
        return request

    def pending_count(self) -> int:
        """Requests submitted but not yet handed to the engine (the value
        the ``serve.queue.depth`` gauge and admission control read)."""
        with self._lock:
            return len(self._pending)

    def start(self) -> "BatchCoalescer":
        """Choose the loop batches run on (idempotent; submit() auto-starts).

        On a running event loop, bind to it; off any loop, start the
        coalescer's own loop on a daemon thread.
        """
        running = _running_loop()
        with self._wake:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            if self._loop is None:
                if running is not None:
                    self._loop = running
                else:
                    self._start_own_loop_locked()
        return self

    def _start_own_loop_locked(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=_run_forever,
            args=(self._loop,),
            name="repro-coalescer",
            daemon=True,
        )
        self._thread.start()

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests and answer or fail every pending one.

        On the coalescer's loop (a lifespan shutdown), or once a bound
        loop has stopped or closed, the pending requests are drained right
        here; otherwise close() waits up to ``timeout`` for the loop's
        drain to answer them, and fails what is still pending after that.
        The coalescer's own thread, if it has one, is stopped and joined.
        """
        with self._wake:
            self._closed = True
            loop = self._loop
            thread, self._thread = self._thread, None
        if loop is None:
            return
        here = _running_loop() is loop
        if here or (thread is None and not loop.is_running()):
            self._drain_here()
        else:
            with self._wake:
                if self._draining:
                    # notified once the drain finds nothing left to take
                    self._wake.wait(timeout)
            self._fail_pending()
        if thread is not None:
            if here:
                loop.stop()
            else:
                loop.call_soon_threadsafe(loop.stop)
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
    # drain side
    # ------------------------------------------------------------------ #
    def _drain(self) -> None:
        """The loop callback: one batch, then again next turn until no
        request is pending."""
        batch = self._take_batch()
        if batch is not None:
            self._flush(batch)
            asyncio.get_running_loop().call_soon(self._drain)

    def _drain_here(self) -> None:
        """Every pending batch, on the calling thread."""
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self._flush(batch)

    def _take_batch(self) -> Optional[List[_PendingRequest]]:
        """The oldest pending request and up to ``MAX_BATCH - 1`` more with
        its key; ``None`` when nothing is pending, which ends the drain."""
        with self._wake:
            if not self._pending:
                self._draining = False
                self._wake.notify_all()
                return None
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

    def _fail_pending(self) -> None:
        """Fail what a timed-out close() left pending."""
        with self._wake:
            stranded, self._pending = self._pending, []
        for request in stranded:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    RuntimeError("coalescer closed before the request ran")
                )

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


def _running_loop() -> Optional[asyncio.AbstractEventLoop]:
    """The event loop running on this thread, if any."""
    try:
        return asyncio.get_running_loop()
    except RuntimeError:
        return None


def _run_forever(loop: asyncio.AbstractEventLoop) -> None:
    """The coalescer's own thread: its loop until close() stops it."""
    asyncio.set_event_loop(loop)
    try:
        loop.run_forever()
    finally:
        loop.close()
