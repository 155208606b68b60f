"""Per-query trace trees: spans with ids/parents under a request id.

The registry's counters and timers aggregate *across* queries; traces keep
the *shape of one query* — which pipeline stages ran, nested how, for how
long — so a slow query can be explained after the fact without re-running
it under a profiler.  A :class:`Tracer` owns:

* a bounded in-memory ring buffer of finished traces (old traces fall off,
  a long-running serving process never grows without bound),
* a sampling policy — a deterministic ``sample_rate`` (every Nth trace by
  accumulated rate, so ``0.1`` keeps exactly 1 in 10 regardless of thread
  interleaving) plus **always-sample-slow**: a trace whose wall time
  reaches ``slow_ms`` is kept and logged even when the rate would drop it,
* a slow-query log (separate bounded ring of the slow traces' documents).

Spans are opened by the registry integration — instrumented code calls
``METRICS.span(name)`` exactly as before, and when a trace is active on
the current thread the same context manager also appends a node to the
trace tree.  Root traces are started by the searchers (one per query) and
the join drivers (one per join run) through the module-global
:data:`TRACER`.

Everything a trace retains is a plain JSON-ready dict, so traces ship
across process boundaries with the worker metric deltas (see
:meth:`repro.engine.core.SimilarityEngine.search_batch`) and dump to JSONL
unchanged (:mod:`repro.obs.export`).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Union

from .registry import _NULL_SPAN, _NullSpan

__all__ = ["Tracer", "TRACER", "trace_query"]


class _SpanNode:
    """One node of an in-flight trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end")

    def __init__(
        self, span_id: int, parent_id: Optional[int], name: str, start: float
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start

    def to_dict(self, origin: float) -> Dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ms": 1000 * (self.start - origin),
            "ms": 1000 * (self.end - self.start),
        }


class _ActiveTrace:
    """Per-thread trace state: the root span, the open-span stack, meta."""

    __slots__ = ("trace_id", "name", "meta", "spans", "stack", "_next_span")

    def __init__(self, trace_id: str, name: str, meta: Dict) -> None:
        self.trace_id = trace_id
        self.name = name
        self.meta = meta
        root = _SpanNode(1, None, name, time.perf_counter())
        self.spans: List[_SpanNode] = [root]
        self.stack: List[_SpanNode] = [root]
        self._next_span = itertools.count(2)

    def open_span(self, name: str, start: float) -> _SpanNode:
        node = _SpanNode(
            next(self._next_span), self.stack[-1].span_id, name, start
        )
        self.spans.append(node)
        self.stack.append(node)
        return node

    def close_span(self, node: _SpanNode, end: float) -> None:
        node.end = end
        # tolerate exits arriving out of stack order (a span leaked by an
        # exception path): pop back to — and including — the closed node
        while self.stack and self.stack[-1] is not node:
            self.stack.pop()
        if self.stack:
            self.stack.pop()

    def finish(self, end: float) -> Dict:
        root = self.spans[0]
        root.end = end
        origin = root.start
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "meta": self.meta,
            # absolute root-span start on the monotonic clock.  On the
            # platforms the engines fork on, ``perf_counter`` reads
            # CLOCK_MONOTONIC, which is shared by every process on the
            # host — so ``started_s`` totally orders traces drained from
            # different pool workers (see :meth:`Tracer.ingest`).
            "started_s": origin,
            "seconds": end - origin,
            "spans": [span.to_dict(origin) for span in self.spans],
        }


def _trace_started(document: Dict) -> float:
    """Merge key for :meth:`Tracer.ingest`: the root span's absolute start."""
    value = document.get("started_s")
    return float(value) if value is not None else float("-inf")


class _TraceContext:
    """Context manager for one root trace (``Tracer.trace``).

    After ``__exit__`` the finished trace document is kept on
    :attr:`document` — whether or not the sampling policy retained it in
    the buffer — so a caller that needs the span tree itself (the serve
    coalescer embeds the batch tree into every member request's trace)
    can hold the context manager and read it back.
    """

    __slots__ = ("_tracer", "_name", "_meta", "document")

    def __init__(self, tracer: "Tracer", name: str, meta: Dict) -> None:
        self._tracer = tracer
        self._name = name
        self._meta = meta
        self.document: Optional[Dict] = None

    def __enter__(self) -> _ActiveTrace:
        return self._tracer._begin(self._name, self._meta)

    def __exit__(self, *exc_info: object) -> None:
        self.document = self._tracer._end()


class Tracer:
    """Bounded trace collector with sampling and a slow-query log.

    ``enabled`` gates everything (off by default, like the metrics
    registry).  While a trace is active on the current thread, spans opened
    through the registry land in its tree; on finish the trace document is
    kept when the sampling policy says so — by rate, or unconditionally
    when its wall time reaches ``slow_ms``.
    """

    def __init__(
        self,
        buffer_size: int = 256,
        slow_log_size: int = 64,
        sample_rate: float = 1.0,
        slow_ms: Optional[float] = None,
    ) -> None:
        self.enabled = False
        self.buffer_size = buffer_size
        self.sample_rate = sample_rate
        self.slow_ms = slow_ms
        self.buffer: deque = deque(maxlen=buffer_size)
        self.slow_log: deque = deque(maxlen=slow_log_size)
        self.dropped = 0  # finished but not kept (sampled out)
        self._lock = threading.Lock()
        self._sampled_weight = 0.0  # accumulated sample_rate across traces
        self._sequence = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # configuration / lifecycle
    # ------------------------------------------------------------------ #
    def configure(
        self,
        enabled: Optional[bool] = None,
        sample_rate: Optional[float] = None,
        slow_ms: Optional[float] = ...,  # type: ignore[assignment]
        buffer_size: Optional[int] = None,
        slow_log_size: Optional[int] = None,
    ) -> "Tracer":
        """Adjust the policy in place (None/ellipsis leaves a knob alone)."""
        if enabled is not None:
            self.enabled = enabled
        if sample_rate is not None:
            if not 0.0 <= sample_rate <= 1.0:
                raise ValueError(
                    f"sample_rate must be in [0, 1], got {sample_rate}"
                )
            self.sample_rate = sample_rate
        if slow_ms is not ...:
            self.slow_ms = slow_ms
        # the retention deques are swapped under the ring lock so a
        # concurrent _admit/drain never writes into the discarded deque
        with self._lock:
            if buffer_size is not None and buffer_size != self.buffer.maxlen:
                self.buffer_size = buffer_size
                self.buffer = deque(self.buffer, maxlen=buffer_size)
            if (
                slow_log_size is not None
                and slow_log_size != self.slow_log.maxlen
            ):
                self.slow_log = deque(self.slow_log, maxlen=slow_log_size)
        return self

    def clear(self) -> None:
        """Drop every retained trace and reset the sampling accumulator."""
        with self._lock:
            self.buffer.clear()
            self.slow_log.clear()
            self.dropped = 0
            self._sampled_weight = 0.0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def is_tracing(self) -> bool:
        """Is a trace active on the current thread?"""
        return getattr(self._local, "trace", None) is not None

    def trace(
        self, name: str, **meta: object
    ) -> Union[_NullSpan, "_TracerSpan", "_TraceContext"]:
        """Start a root trace (or, nested inside one, just a child span)."""
        if not self.enabled:
            return _NULL_SPAN
        if self.is_tracing():
            return self.span(name)
        return _TraceContext(self, name, meta)

    def span(self, name: str) -> Union[_NullSpan, "_TracerSpan"]:
        """A child span of the current trace (no-op when none is active)."""
        active = getattr(self._local, "trace", None)
        if active is None:
            return _NULL_SPAN
        return _TracerSpan(self, name)

    def annotate(self, **meta: object) -> None:
        """Attach metadata to the active trace (no-op when none is active)."""
        active = getattr(self._local, "trace", None)
        if active is not None:
            active.meta.update(meta)

    # registry-span integration (see MetricsRegistry.span)
    def open_span(self, name: str, start: float) -> Optional[_SpanNode]:
        active = getattr(self._local, "trace", None)
        if active is None:
            return None
        return active.open_span(name, start)

    def close_span(self, node: Optional[_SpanNode], end: float) -> None:
        if node is None:
            return
        active = getattr(self._local, "trace", None)
        if active is not None:
            active.close_span(node, end)

    def _begin(self, name: str, meta: Dict) -> _ActiveTrace:
        trace_id = f"{os.getpid():x}-{next(self._sequence)}"
        active = _ActiveTrace(trace_id, name, meta)
        self._local.trace = active
        return active

    def _end(self) -> Optional[Dict]:
        active = getattr(self._local, "trace", None)
        self._local.trace = None
        if active is None:
            return None
        document = active.finish(time.perf_counter())
        self._admit(document)
        return document

    def offer(self, document: Dict) -> bool:
        """Run an externally-built trace document through the keep policy.

        The serving layer synthesizes request-scoped documents (an asyncio
        handler cannot host a thread-local trace — many request coroutines
        interleave on one event-loop thread) and hands them in here, so
        they obey the same sampling / always-keep-slow rules as traces the
        tracer recorded itself.  Returns whether the document was kept.
        """
        if not self.enabled:
            return False
        return self._admit(document)

    def _admit(self, document: Dict) -> bool:
        slow = (
            self.slow_ms is not None
            and 1000 * float(document.get("seconds", 0.0)) >= self.slow_ms
        )
        with self._lock:
            # deterministic rate sampling: keep a trace whenever the
            # accumulated rate crosses an integer, so rate=0.1 keeps
            # exactly every 10th finished trace in any interleaving
            before = int(self._sampled_weight)
            self._sampled_weight += self.sample_rate
            sampled = int(self._sampled_weight) > before
            if slow:
                document["slow"] = True
                self.slow_log.append(document)
            if sampled or slow:
                self.buffer.append(document)
            else:
                self.dropped += 1
        return sampled or slow

    # ------------------------------------------------------------------ #
    # draining / cross-process ingest
    # ------------------------------------------------------------------ #
    def drain(self) -> List[Dict]:
        """Retained trace documents, oldest first; the buffer is cleared.

        The slow-query log is left intact (slow traces appear in both)."""
        with self._lock:
            documents = list(self.buffer)
            self.buffer.clear()
        return documents

    def recent(self, n: int = 16) -> List[Dict]:
        """The newest ``n`` retained traces, oldest first, *without*
        draining — the ``GET /debug/trace`` read path must not consume the
        buffer other readers (the CLI dump, a second poll) rely on."""
        if n <= 0:
            return []
        with self._lock:
            return list(self.buffer)[-n:]

    def ingest(self, documents: Optional[Iterable[Dict]]) -> None:
        """Adopt trace documents drained from another process's tracer.

        The worker already applied the sampling policy; here they only
        re-enter the bounded buffer (and the slow log for slow ones).

        Because both rings are newest-wins (``deque(maxlen=...)`` evicts
        the oldest entry), adoption must not use arrival order: worker
        chunks drain in chunk-completion order, which interleaves across
        workers, and a plain ``append`` loop could evict a trace that
        *started later* than the ones kept.  Ingest therefore merges the
        retained documents with the incoming ones by root-span start time
        (``started_s``, a host-wide monotonic timestamp) and keeps the
        newest, so ``slow_log_size`` bounds hold the genuinely most recent
        slow queries in either process.  Documents from old dumps without
        ``started_s`` sort oldest (evicted first).
        """
        if not documents:
            return
        documents = list(documents)
        if not documents:
            return
        with self._lock:
            slow = [d for d in documents if d.get("slow")]
            if slow:
                merged = sorted(
                    list(self.slow_log) + slow, key=_trace_started
                )
                self.slow_log.clear()
                self.slow_log.extend(merged)
            merged = sorted(list(self.buffer) + documents, key=_trace_started)
            self.buffer.clear()
            self.buffer.extend(merged)


class _TracerSpan:
    """Context manager for an explicit child span (``Tracer.span``)."""

    __slots__ = ("_tracer", "_name", "_node")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Optional[_SpanNode]:
        self._node = self._tracer.open_span(self._name, time.perf_counter())
        return self._node

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.close_span(self._node, time.perf_counter())


#: the process-global tracer; ``METRICS.tracer`` points here so registry
#: spans feed the active trace (wired up in ``repro.obs.__init__``).
TRACER = Tracer()


def trace_query(
    query: str, threshold: float, kind: str = "search"
) -> Union[_NullSpan, "_TracerSpan", "_TraceContext"]:
    """Root trace for one query (the searchers' entry point)."""
    return TRACER.trace(kind, query=query, threshold=threshold)
