"""The ASGI application: HTTP in front of a similarity engine.

:class:`ServeApp` is a plain ASGI 3 callable — no framework, no
dependencies — so it runs under any ASGI server (uvicorn, hypercorn) and
under the bundled :mod:`repro.serve.server` when none is installed.

Routes
------

``POST /search``
    Body ``{"query": str, "threshold": num}`` (``"tau"`` is accepted as an
    alias).  The request is enqueued on the :class:`BatchCoalescer` and
    coalesced with concurrent compatible requests into one
    ``search_batch`` call; the response carries this request's own
    result — bit-identical to a direct ``engine.search``.  Once the
    lifespan has started, that batch runs on the serving loop itself.
    ``"metric"`` optionally overrides the engine's set-similarity metric
    per request (jaccard/cosine/dice interchange on the same index;
    ``ed`` needs an ed-built index).  A body with ``"queries": [...]``
    is answered as one explicit batch, bypassing the coalescer queue.

``GET /healthz``
    Liveness + integrity: re-runs the ``repro check`` structural bundle
    validator over the served bundle (cached for ``health_max_age_s``)
    and answers 200 with a summary, or 503 listing the violations.

``GET /metrics``
    Prometheus text exposition of the one serve-layer registry (per-route
    counters, the coalesced-batch-size histogram, batch timings, live
    gauges) and, when enabled, the engine registry.

``GET /``
    An info document: engine shape, records, admission limit and the
    achieved coalescing stats.

``GET /debug/vars``
    A JSON snapshot of every live gauge, counter and coalescing stat —
    the same registry ``/metrics`` renders, for quick ``curl | jq``
    introspection.

``GET /debug/trace?n=K``
    The newest ``K`` retained trace documents as JSONL (without draining
    the buffer).  A coalesced request's document is a full tree: its own
    queue wait, the shared batch execution subtree, and the demux tail.

Every ``POST /search`` response carries a W3C ``traceparent`` header; an
incoming ``traceparent`` is honoured, so the request's trace document
joins the caller's distributed trace id.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import re
import threading
import time
import uuid
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import __version__
from ..engine import SimilarityEngine
from ..obs import METRICS as _METRICS
from ..obs import TRACER as _TRACER
from ..obs.export import to_prometheus, traces_to_jsonl
from ..storage import check_path
from .coalescer import BatchCoalescer, BatchKey

__all__ = ["ServeApp"]

#: set-similarity metrics answerable on one token index interchangeably.
#: ``ed`` is excluded on purpose: edit-distance search needs the q-gram
#: tokenization and count thresholds it was indexed for, so it is only
#: honoured when the engine itself was built with ``metric="ed"``.
_SET_METRICS = ("jaccard", "cosine", "dice")

_MAX_BODY_BYTES = 1 << 20

#: every route and the one method it answers (anything else: 404 / 405)
_ROUTES = {
    "/search": "POST",
    "/healthz": "GET",
    "/metrics": "GET",
    "/debug/vars": "GET",
    "/debug/trace": "GET",
    "/": "GET",
}

#: W3C trace-context: version "00", 32-hex trace id, 16-hex parent span id
_TRACEPARENT = re.compile(
    r"^00-(?P<trace>[0-9a-f]{32})-(?P<parent>[0-9a-f]{16})-[0-9a-f]{2}$"
)


class _HttpError(Exception):
    """Maps straight to an error response (status + JSON message)."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Sequence[Tuple[bytes, bytes]] = (),
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = tuple(headers)


class ServeApp:
    """ASGI 3 application serving one engine (see module docstring).

    Parameters
    ----------
    engine:
        The :class:`SimilarityEngine` to serve.
    bundle_path:
        The bundle directory the engine was opened from, if any —
        ``/healthz`` runs the structural validator over it.
    slow_ms:
        When set, enables the global tracer with always-sample-slow:
        requests/batches slower than this land in ``TRACER.slow_log``
        (sampled at ``trace_sample`` when that is also set, else
        slow-only).
    trace_sample:
        When set, enables the global tracer at this sample rate so
        ``GET /debug/trace`` has request trees to show (``1.0`` keeps
        every request's trace in the bounded buffer).  ``repro serve``
        passes ``1.0`` by default; ``None`` leaves the tracer alone.
    max_pending:
        Admission control: when the coalescer holds at least this many
        pending requests — on the serving loop, those parsed in one loop
        turn and not yet batched — new ``POST /search`` requests are shed
        with ``429 Too Many Requests`` + ``Retry-After: 1`` (counted as
        ``serve.shed``).  A request that arrives while a batch runs waits
        in its socket, not in the queue.  ``None`` (default) never sheds.
    health_max_age_s:
        ``/healthz`` re-runs the bundle validator at most this often.
    """

    def __init__(
        self,
        engine,
        *,
        bundle_path=None,
        slow_ms: Optional[float] = None,
        trace_sample: Optional[float] = None,
        max_pending: Optional[int] = None,
        health_max_age_s: float = 15.0,
    ) -> None:
        self.engine = engine
        self.bundle_path = bundle_path
        self.max_pending = max_pending
        self.health_max_age_s = health_max_age_s
        self.started_at = time.time()
        self.coalescer = BatchCoalescer(self._run_batch)
        #: the one always-on serve-layer registry: route counters and the
        #: runtime gauges land next to the coalescer's own series
        self.metrics = self.coalescer.metrics
        # secondary searchers for per-request metric overrides, sharing
        # the primary engine's index (lazily built, at most one per metric)
        self._engines: Dict[str, SimilarityEngine] = {}
        self._engines_lock = threading.Lock()
        self._health: Optional[Tuple[float, List[str]]] = None
        self._health_lock = threading.Lock()
        if slow_ms is not None or trace_sample is not None:
            _TRACER.configure(
                enabled=True,
                sample_rate=(
                    trace_sample if trace_sample is not None else 0.0
                ),
                slow_ms=slow_ms,
            )
        # resolved at scrape time (`/metrics`, `/debug/vars`); survives reset()
        self.metrics.register_gauge("process.rss_bytes", _rss_bytes)

    # ------------------------------------------------------------------ #
    # engine access (the coalescer's loop — the serving loop once the
    # lifespan has started — or a to_thread worker for an explicit
    # "queries" batch; the two can overlap)
    # ------------------------------------------------------------------ #
    def _engine_for(self, metric: str):
        if metric == self.engine.metric:
            return self.engine
        if self.engine.metric == "ed" or metric not in _SET_METRICS:
            raise _HttpError(
                400,
                f"metric {metric!r} is not answerable on this index; the "
                f"engine serves {self.engine.metric!r}"
                + (
                    f" (per-request overrides: {', '.join(_SET_METRICS)})"
                    if self.engine.metric != "ed"
                    else " (edit-distance indexes answer only 'ed')"
                ),
            )
        with self._engines_lock:
            engine = self._engines.get(metric)
            if engine is None:
                engine = SimilarityEngine(
                    index=self.engine.index,
                    metric=metric,
                    algorithm=self.engine.algorithm,
                )
                self._engines[metric] = engine
        return engine

    def _run_batch(self, queries: List[str], key: BatchKey):
        engine = self._engine_for(key.metric)
        # child span under the coalescer's "serve.batch" trace (or a root
        # trace of its own on the explicit-batch and rescue paths) — either
        # way the engine's spans land in this request tree, and the engine
        # opens no root trace of its own
        with _TRACER.trace(
            "serve.execute",
            queries=len(queries),
            metric=key.metric,
            threshold=key.threshold,
        ):
            return engine.search_batch(queries, key.threshold)

    # ------------------------------------------------------------------ #
    # ASGI entry point
    # ------------------------------------------------------------------ #
    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            return
        method = scope["method"]
        path = scope["path"]
        started = time.perf_counter()
        route = path.strip("/").replace("/", "_") or "info"
        extra_headers: List[Tuple[bytes, bytes]] = []
        try:
            if path not in _ROUTES:
                raise _HttpError(404, f"no route for {path}")
            if method != _ROUTES[path]:
                raise _HttpError(405, f"{method} not allowed on {path}")
            if path == "/search":
                status, document = await self._search(
                    scope, receive, extra_headers
                )
            elif path == "/healthz":
                status, document = await self._healthz()
            elif path == "/debug/vars":
                status, document = 200, self._debug_vars()
            elif path == "/":
                status, document = 200, self._info()
            elif path == "/metrics":
                # counted before rendering, so a scrape includes itself
                self._count_route(route, 200, time.perf_counter() - started)
                body = self._render_metrics().encode()
                await _send_bytes(send, 200, body, b"text/plain; version=0.0.4")
                return
            else:
                body = self._debug_trace(scope).encode()
                self._count_route(route, 200, time.perf_counter() - started)
                await _send_bytes(send, 200, body, b"application/x-ndjson")
                return
        except _HttpError as error:
            status, document = error.status, {"error": error.message}
            extra_headers.extend(error.headers)
        except ValueError as error:
            # engine-side input validation (out-of-range threshold, bad
            # query shape) is the client's fault, not a server failure
            status, document = 400, {"error": str(error)}
        # the serving loop must answer 500, not die; the error text is
        # returned to the caller and counted per route
        # repro: noqa RA07 -- every handler failure becomes a 500 response
        except Exception as error:
            status = 500
            document = {"error": f"{type(error).__name__}: {error}"}
        self._count_route(route, status, time.perf_counter() - started)
        await _send_json(send, status, document, extra_headers)

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                # on the serving loop: every coalesced batch runs here, so
                # a POST /search never changes threads
                self.coalescer.start()
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                # on the loop, close() answers what is pending right here
                self.coalescer.close()
                await send({"type": "lifespan.shutdown.complete"})
                return

    def close(self) -> None:
        """Shut the coalescer down, answering every pending request —
        also after the serving loop has closed without a lifespan
        shutdown (a SIGINT on Python 3.10)."""
        self.coalescer.close()

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    async def _search(
        self, scope, receive, extra_headers: List[Tuple[bytes, bytes]]
    ) -> Tuple[int, Dict]:
        document = await _read_json(receive)
        threshold = document.get("threshold", document.get("tau"))
        if not isinstance(threshold, (int, float)) or isinstance(
            threshold, bool
        ):
            raise _HttpError(
                400, "body must carry a numeric 'threshold' (alias 'tau')"
            )
        metric = document.get("metric", self.engine.metric)
        if not isinstance(metric, str):
            raise _HttpError(400, "'metric' must be a string")
        key = BatchKey(metric=metric, threshold=threshold)

        if "queries" in document:
            queries = document["queries"]
            if not isinstance(queries, list) or not all(
                isinstance(query, str) for query in queries
            ):
                raise _HttpError(400, "'queries' must be a list of strings")
            results = await asyncio.to_thread(self._run_batch, queries, key)
            return 200, {
                "threshold": threshold,
                "metric": metric,
                "results": [
                    {"query": query, "count": len(result), "ids": list(result)}
                    for query, result in zip(queries, results)
                ],
            }

        query = document.get("query")
        if not isinstance(query, str):
            raise _HttpError(
                400, "body must carry a 'query' string (or a 'queries' list)"
            )
        if (
            self.max_pending is not None
            and self.coalescer.pending_count() >= self.max_pending
        ):
            # shed instead of queueing without bound
            self.metrics.inc("serve.shed")
            raise _HttpError(
                429,
                f"pending queue at max_pending={self.max_pending}; "
                "retry shortly",
                headers=((b"retry-after", b"1"),),
            )
        trace_id, parent_span = _parse_traceparent(scope.get("headers"))
        received = time.perf_counter()
        request = self.coalescer.submit_request(query, key)
        result, batch_size = await asyncio.wrap_future(request.future)
        finished = time.perf_counter()
        if trace_id is None:
            trace_id = uuid.uuid4().hex
        if _TRACER.enabled:
            _TRACER.offer(
                _request_trace_document(
                    trace_id,
                    parent_span,
                    request,
                    batch_size,
                    received,
                    finished,
                )
            )
        extra_headers.append(
            (
                b"traceparent",
                f"00-{trace_id}-{uuid.uuid4().hex[:16]}-01".encode(),
            )
        )
        return 200, {
            "query": query,
            "threshold": threshold,
            "metric": metric,
            "count": len(result),
            "ids": list(result),
            "seconds": result.seconds,
            "batch_size": batch_size,
            "trace_id": trace_id,
        }

    async def _healthz(self) -> Tuple[int, Dict]:
        issues = await asyncio.to_thread(self._check_health)
        document = {
            "status": "ok" if not issues else "unhealthy",
            "records": self.engine.num_records,
            "bundle": str(self.bundle_path) if self.bundle_path else None,
            "issues": issues[:20],
        }
        return (200 if not issues else 503), document

    def _check_health(self) -> List[str]:
        """The ``repro check`` structural validator, cached briefly."""
        if self.bundle_path is None:
            return []
        with self._health_lock:
            now = time.monotonic()
            if (
                self._health is not None
                and now - self._health[0] < self.health_max_age_s
            ):
                return self._health[1]
            try:
                issues = check_path(self.bundle_path)
            # repro: noqa RA07 -- a validator crash IS the health finding
            except Exception as error:
                issues = [f"health check failed ({type(error).__name__}): {error}"]
            self._health = (now, issues)
            return issues

    def _render_metrics(self) -> str:
        parts = [_build_info_exposition(), to_prometheus(self.metrics)]
        if _METRICS.enabled:
            parts.append(to_prometheus(_METRICS))
        return "".join(parts)

    def _debug_vars(self) -> Dict:
        """A JSON snapshot of the live runtime state (`GET /debug/vars`)."""
        serve = self.metrics.snapshot(full=True)
        return {
            "service": "repro.serve",
            "version": __version__,
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "engine": type(self.engine).__name__,
            "max_pending": self.max_pending,
            "shed": self.metrics.counter("serve.shed"),
            "gauges": serve["gauges"],
            "serve": serve,
            "coalescing": self.coalescer.stats(),
            "cache": self.engine.cache_stats(),
            "engine_metrics": (
                _METRICS.snapshot(full=True) if _METRICS.enabled else None
            ),
            "traces": {
                "enabled": _TRACER.enabled,
                "buffered": len(_TRACER.buffer),
                "slow_log": len(_TRACER.slow_log),
                "dropped": _TRACER.dropped,
            },
        }

    def _debug_trace(self, scope) -> str:
        """`GET /debug/trace?n=K` — newest K trace trees as JSONL."""
        n = 16
        query_string = scope.get("query_string") or b""
        for pair in query_string.decode("latin-1").split("&"):
            name, separator, value = pair.partition("=")
            if name == "n" and separator:
                try:
                    n = int(value)
                except ValueError:
                    raise _HttpError(400, f"n must be an integer, got {value!r}")
        if n < 0:
            raise _HttpError(400, f"n must be >= 0, got {n}")
        return traces_to_jsonl(_TRACER.recent(n))

    def _info(self) -> Dict:
        engine = self.engine
        return {
            "service": "repro.serve",
            "engine": type(engine).__name__,
            "metric": engine.metric,
            "algorithm": engine.algorithm,
            "records": engine.num_records,
            "bundle": str(self.bundle_path) if self.bundle_path else None,
            "max_pending": self.max_pending,
            "uptime_s": round(time.time() - self.started_at, 3),
            "coalescing": self.coalescer.stats(),
        }

    def _count_route(
        self, route: str, status: int, seconds: Optional[float] = None
    ) -> None:
        self.metrics.inc(f"serve.route.{route}.requests")
        self.metrics.inc(f"serve.route.{route}.status_{status}")
        if seconds is not None:
            # log2-bucketed latency histogram: the difference of two
            # scrapes' cumulative buckets gives a route's p50/p99
            self.metrics.observe(
                f"serve.route.{route}.latency_ms", 1000.0 * seconds
            )


def _rss_bytes() -> float:
    """Resident set size of this process (0.0 when unreadable)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = float(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        try:
            import resource
        except ImportError:
            return 0.0
        # ru_maxrss is KiB on linux (high-water, not current — good enough
        # for the fallback path)
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024.0


def _build_info_exposition() -> str:
    """The conventional ``*_build_info`` gauge: labels carry the metadata,
    the value is always 1."""
    return (
        "# HELP repro_build_info repro build metadata (value is always 1)\n"
        "# TYPE repro_build_info gauge\n"
        f'repro_build_info{{version="{__version__}",'
        f'python="{platform.python_version()}"}} 1\n'
    )


def _parse_traceparent(
    headers: Optional[Iterable[Tuple[bytes, bytes]]],
) -> Tuple[Optional[str], Optional[str]]:
    """W3C ``traceparent`` from the request headers: (trace_id, span_id).

    ``(None, None)`` when absent or malformed — a bad header joins no
    distributed trace but must never fail the request.
    """
    for name, value in headers or ():
        if bytes(name).lower() != b"traceparent":
            continue
        match = _TRACEPARENT.match(
            bytes(value).decode("latin-1").strip().lower()
        )
        if match and match.group("trace") != "0" * 32:
            return match.group("trace"), match.group("parent")
    return None, None


def _request_trace_document(
    trace_id: str,
    parent_span: Optional[str],
    request,
    batch_size: int,
    received: float,
    finished: float,
) -> Dict:
    """One request's full trace tree, synthesized after its future resolved.

    An asyncio handler cannot host a thread-local tracer trace (request
    coroutines interleave on one event-loop thread), so the tree is built
    from the coalescer ticket's timestamps instead: a ``serve.request``
    root, a ``serve.queue`` child covering the wait for its loop turn's
    batch to start, the shared batch's span tree grafted in (id-renumbered,
    time-rebased onto this request's origin), and a ``serve.demux`` tail.
    """
    duration = max(0.0, finished - received)
    dispatched = (
        request.dispatched if request.dispatched is not None else finished
    )
    spans: List[Dict] = [
        {
            "id": 1,
            "parent": None,
            "name": "serve.request",
            "start_ms": 0.0,
            "ms": 1000.0 * duration,
        },
        {
            "id": 2,
            "parent": 1,
            "name": "serve.queue",
            "start_ms": max(0.0, 1000.0 * (request.arrived - received)),
            "ms": max(0.0, 1000.0 * (dispatched - request.arrived)),
        },
    ]
    next_id, batch_end = 3, dispatched
    if request.batch_document is not None:
        next_id, batch_end = _graft_spans(
            spans, next_id, 1, request.batch_document, received
        )
    spans.append(
        {
            "id": next_id,
            "parent": 1,
            "name": "serve.demux",
            "start_ms": max(0.0, 1000.0 * (batch_end - received)),
            "ms": max(0.0, 1000.0 * (finished - batch_end)),
        }
    )
    meta: Dict = {
        "query": request.query,
        "metric": request.key.metric,
        "threshold": request.key.threshold,
        "batch_size": batch_size,
    }
    if parent_span is not None:
        meta["parent_span"] = parent_span
    return {
        "trace_id": trace_id,
        "name": "serve.request",
        "meta": meta,
        "started_s": received,
        "seconds": duration,
        "spans": spans,
    }


def _graft_spans(
    spans: List[Dict],
    next_id: int,
    root_id: int,
    batch_document: Dict,
    origin: float,
) -> Tuple[int, float]:
    """Embed a finished trace document's span tree under ``root_id``.

    Span ids are renumbered past ``next_id`` and start times rebased from
    the batch trace's own origin onto ``origin`` (both are perf_counter
    readings, so the offset is exact).  Returns the next free span id and
    the batch's absolute end time.
    """
    batch_started = float(batch_document.get("started_s", origin))
    offset_ms = 1000.0 * (batch_started - origin)
    mapping: Dict[int, int] = {}
    for span in batch_document.get("spans", ()):
        new_id = next_id
        next_id += 1
        mapping[span["id"]] = new_id
        spans.append(
            {
                "id": new_id,
                "parent": mapping.get(span.get("parent"), root_id),
                "name": span["name"],
                "start_ms": float(span.get("start_ms", 0.0)) + offset_ms,
                "ms": float(span.get("ms", 0.0)),
            }
        )
    batch_end = batch_started + float(batch_document.get("seconds", 0.0))
    return next_id, batch_end


async def _read_json(receive) -> Dict:
    chunks = []
    total = 0
    while True:
        message = await receive()
        if message["type"] == "http.disconnect":
            raise _HttpError(400, "client disconnected mid-request")
        chunks.append(message.get("body", b""))
        total += len(chunks[-1])
        if total > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body over 1 MiB")
        if not message.get("more_body"):
            break
    body = b"".join(chunks)
    if not body:
        raise _HttpError(400, "request body must be a JSON object")
    try:
        document = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _HttpError(400, f"request body is not valid JSON: {error}")
    if not isinstance(document, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return document


async def _send_json(
    send,
    status: int,
    document: Dict,
    extra_headers: Sequence[Tuple[bytes, bytes]] = (),
) -> None:
    body = json.dumps(document, sort_keys=True, default=float).encode()
    await _send_bytes(send, status, body, b"application/json", extra_headers)


async def _send_bytes(
    send,
    status: int,
    body: bytes,
    ctype: bytes,
    extra_headers: Sequence[Tuple[bytes, bytes]] = (),
) -> None:
    await send(
        {
            "type": "http.response.start",
            "status": status,
            "headers": [
                (b"content-type", ctype),
                (b"content-length", str(len(body)).encode()),
                *extra_headers,
            ],
        }
    )
    await send({"type": "http.response.body", "body": body})
