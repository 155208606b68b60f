"""Tests for the HTTP serving layer: coalescer, ASGI app, socket server.

The coalescer is exercised first in isolation with scripted runners
(batch grouping, batch splitting, failure isolation), then the
whole stack: the ASGI app invoked directly (no sockets) for routing and
parity, :class:`ServerThread` over real HTTP for the wire protocol, and
``python -m repro serve`` as a subprocess for the shipped entry point.

Without a lifespan the coalescer runs its batches on its own loop
thread, so a gate that holds the engine leaves the caller's loop free;
under a lifespan-started server the batches run on the serving loop, and
a held batch holds the whole server (see :func:`_held_posts`).
"""

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.engine import SimilarityEngine
from repro.serve import BatchCoalescer, BatchKey, ServeApp, ServerThread
from repro.serve.coalescer import MAX_BATCH
from repro.serve.server import _Lifespan
from repro.similarity import tokenize_collection

_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def engine(word_strings):
    with SimilarityEngine(tokenize_collection(word_strings)) as engine:
        yield engine


@pytest.fixture
def app(engine):
    app = ServeApp(engine)
    yield app
    app.close()


@pytest.fixture
def gate(engine, monkeypatch):
    """Holds the engine's first ``search_batch`` call (see :class:`_Gate`)."""
    gate = _Gate(engine.search_batch)
    monkeypatch.setattr(engine, "search_batch", gate)
    return gate


# ---------------------------------------------------------------------- #
# scripted runners for coalescer-only tests
# ---------------------------------------------------------------------- #
class _Gate:
    """Wraps a batch runner so that its first call blocks until
    :meth:`release`: whatever a test submits meanwhile queues behind that
    batch in flight and, with no clock in the coalescer, forms the next
    batches deterministically."""

    def __init__(self, run_batch):
        self._run_batch = run_batch
        self.entered = threading.Event()
        self._released = threading.Event()

    def __call__(self, queries, *args):
        if not self.entered.is_set():
            self.entered.set()
            assert self._released.wait(30), "gate never released"
        return self._run_batch(queries, *args)

    def wait_entered(self):
        assert self.entered.wait(30), "first batch never reached the runner"

    def release(self):
        self._released.set()


class _Runner:
    """Records every batch call; a batch holding a query named 'poison'
    raises naming it."""

    def __init__(self):
        self.batches = []
        self.lock = threading.Lock()

    def run_batch(self, queries, key):
        with self.lock:
            self.batches.append((list(queries), key))
        for query in queries:
            if "poison" in query:
                raise ValueError(f"bad query: {query}")
        return [f"{query}@{key.metric}/{key.threshold}" for query in queries]


@pytest.fixture
def gated():
    """``(runner, coalescer, hold)``: ``hold(submit)`` parks a first
    request in the runner, calls ``submit()`` while it is held, then lets
    everything through; the held request is batch 0."""
    runner = _Runner()
    gate = _Gate(runner.run_batch)
    coalescer = BatchCoalescer(gate)

    def hold(submit):
        head = coalescer.submit("head", BatchKey("jaccard", 0.8))
        gate.wait_entered()
        try:
            return submit()
        finally:
            gate.release()
            assert head.result(timeout=30) == ("head@jaccard/0.8", 1)

    with coalescer:
        yield runner, coalescer, hold


class TestCoalescer:
    def test_same_key_requests_share_one_batch(self, gated):
        runner, coalescer, hold = gated
        key = BatchKey("jaccard", 0.8)
        futures = hold(
            lambda: [coalescer.submit(f"q{i}", key) for i in range(5)]
        )
        answers = [future.result(timeout=5) for future in futures]
        assert [queries for queries, _ in runner.batches] == [
            ["head"],
            [f"q{i}" for i in range(5)],
        ]
        for i, (result, batch_size) in enumerate(answers):
            assert result == f"q{i}@jaccard/0.8"
            assert batch_size == 5

    def test_distinct_keys_never_share_a_batch(self, gated):
        runner, coalescer, hold = gated
        keys = [
            BatchKey(metric, threshold)
            for metric in ("jaccard", "cosine")
            for threshold in (0.5, 0.9)
        ]
        # interleaved: each key's requests are not adjacent in the queue
        futures = hold(
            lambda: [
                (key, coalescer.submit(f"q{turn}", key))
                for turn in range(2)
                for key in keys
            ]
        )
        for key, future in futures:
            result, batch_size = future.result(timeout=5)
            assert result.endswith(f"@{key.metric}/{key.threshold}")
            assert batch_size == 2
        # the held head, then one batch per key, oldest key first
        assert runner.batches[1:] == [(["q0", "q1"], key) for key in keys]

    def test_more_than_max_batch_splits_into_full_batches(self, gated):
        runner, coalescer, hold = gated
        key = BatchKey("jaccard", 0.8)
        futures = hold(
            lambda: [
                coalescer.submit(f"q{i}", key)
                for i in range(2 * MAX_BATCH + 1)
            ]
        )
        sizes = [future.result(timeout=5)[1] for future in futures]
        assert sizes == [MAX_BATCH] * (2 * MAX_BATCH) + [1]
        assert [len(queries) for queries, _ in runner.batches] == [
            1,
            MAX_BATCH,
            MAX_BATCH,
            1,
        ]
        # the queue drains oldest first
        assert runner.batches[1][0][0] == "q0"
        assert coalescer.stats()["max_batch_size"] == MAX_BATCH

    def test_idle_coalescer_dispatches_a_lone_request(self):
        runner = _Runner()
        with BatchCoalescer(runner.run_batch) as coalescer:
            future = coalescer.submit("solo", BatchKey("jaccard", 0.8))
            result, batch_size = future.result(timeout=5)
        assert (result, batch_size) == ("solo@jaccard/0.8", 1)
        assert runner.batches == [(["solo"], BatchKey("jaccard", 0.8))]

    def test_poisoned_request_fails_alone_batchmates_succeed(self, gated):
        # a request that raises mid-batch must receive its own exception
        # while its innocent batchmates still get their results
        runner, coalescer, hold = gated
        key = BatchKey("jaccard", 0.8)
        good, bad = hold(
            lambda: (
                [coalescer.submit(f"q{i}", key) for i in range(3)],
                coalescer.submit("poison", key),
            )
        )
        for i, future in enumerate(good):
            result, batch_size = future.result(timeout=5)
            assert result == f"q{i}@jaccard/0.8"
            assert batch_size == 1  # answered via the rescue path
        with pytest.raises(ValueError, match="bad query: poison"):
            bad.result(timeout=5)
        # every batchmate re-ran alone, as a batch of one
        sizes = [len(queries) for queries, _ in runner.batches]
        assert sizes == [1, 4, 1, 1, 1, 1]
        assert coalescer.stats()["rescued_requests"] == 4

    def test_wrong_length_rescue_is_that_requests_error(self):
        calls = []

        def run_batch(queries, key):
            calls.append(list(queries))
            if len(queries) > 1:
                raise RuntimeError("batch failed")
            return [] if queries == ["empty"] else [f"{queries[0]}!"]

        gate = _Gate(run_batch)
        with BatchCoalescer(gate) as coalescer:
            key = BatchKey("jaccard", 0.8)
            head = coalescer.submit("head", key)
            gate.wait_entered()
            good = coalescer.submit("q", key)
            bad = coalescer.submit("empty", key)
            gate.release()
            assert head.result(timeout=5) == ("head!", 1)
            assert good.result(timeout=5) == ("q!", 1)
            with pytest.raises(ValueError):
                bad.result(timeout=5)
        assert calls == [["head"], ["q", "empty"], ["q"], ["empty"]]

    def test_lone_poisoned_request_gets_the_batch_error_directly(self):
        runner = _Runner()
        with BatchCoalescer(runner.run_batch) as coalescer:
            future = coalescer.submit("poison", BatchKey("jaccard", 0.8))
            with pytest.raises(ValueError, match="bad query: poison"):
                future.result(timeout=5)
        assert len(runner.batches) == 1  # nothing to isolate: no re-run

    def test_close_flushes_pending_then_rejects(self):
        runner = _Runner()
        gate = _Gate(runner.run_batch)
        coalescer = BatchCoalescer(gate)
        key = BatchKey("jaccard", 0.8)
        head = coalescer.submit("head", key)
        gate.wait_entered()
        queued = coalescer.submit("q", key)
        closer = threading.Thread(target=coalescer.close)
        closer.start()
        gate.release()
        closer.join(30)
        assert not closer.is_alive()
        assert head.result(timeout=5)[0] == "head@jaccard/0.8"
        assert queued.result(timeout=5)[0] == "q@jaccard/0.8"
        with pytest.raises(RuntimeError, match="closed"):
            coalescer.submit("late", key)

    def test_stats_shape(self, gated):
        runner, coalescer, hold = gated
        key = BatchKey("jaccard", 0.8)
        futures = hold(
            lambda: [coalescer.submit(f"q{i}", key) for i in range(4)]
        )
        for future in futures:
            future.result(timeout=5)
        stats = coalescer.stats()
        assert stats == {
            "requests": 5,
            "batches": 2,
            "coalescing_ratio": 2.5,
            "mean_batch_size": 2.5,
            "max_batch_size": 4,
            "rescued_requests": 0,
            "pending": 0,
        }


class TestCoalescedParity:
    def test_concurrent_distinct_thresholds_get_their_own_results(
        self, engine, word_strings
    ):
        # N concurrent clients, each with its own tau — every future must
        # resolve to exactly its own query's direct answer
        gate = _Gate(
            lambda queries, key: engine.search_batch(queries, key.threshold)
        )
        coalescer = BatchCoalescer(gate)
        jobs = [
            (word_strings[i % 40], BatchKey("jaccard", 0.4 + 0.1 * (i % 5)))
            for i in range(30)
        ]
        with coalescer:
            first = coalescer.submit(*jobs[0])
            gate.wait_entered()
            with ThreadPoolExecutor(10) as pool:
                futures = [first] + list(
                    pool.map(lambda job: coalescer.submit(*job), jobs[1:])
                )
            gate.release()
            answers = [future.result(timeout=30) for future in futures]
        for (query, key), (result, _) in zip(jobs, answers):
            direct = engine.search(query, key.threshold)
            assert list(result) == list(direct), (query, key)
        stats = coalescer.stats()
        assert stats["requests"] == 30
        # the held first request, then one batch per distinct threshold
        assert stats["batches"] == 6


# ---------------------------------------------------------------------- #
# the ASGI app, invoked directly (no sockets)
# ---------------------------------------------------------------------- #
def _call(app, method, path, document=None):
    """Drive one request through the ASGI interface; (status, body)."""

    async def _run():
        body = b"" if document is None else json.dumps(document).encode()
        raw_path, separator, query = path.partition("?")
        scope = {
            "type": "http",
            "method": method,
            "path": raw_path,
            "query_string": query.encode() if separator else b"",
            "headers": [],
        }
        messages = [
            {"type": "http.request", "body": body, "more_body": False}
        ]
        sent = []

        async def receive():
            return (
                messages.pop(0)
                if messages
                else {"type": "http.disconnect"}
            )

        async def send(message):
            sent.append(message)

        await app(scope, receive, send)
        return sent

    sent = asyncio.run(_run())
    status = sent[0]["status"]
    payload = b"".join(
        message.get("body", b"")
        for message in sent
        if message["type"] == "http.response.body"
    )
    return status, payload


def _call_json(app, method, path, document=None):
    status, payload = _call(app, method, path, document)
    return status, json.loads(payload)


class TestServeApp:
    def test_single_search_parity(self, app, engine, word_strings):
        query = word_strings[0]
        status, document = _call_json(
            app, "POST", "/search", {"query": query, "tau": 0.6}
        )
        direct = engine.search(query, 0.6)
        assert status == 200
        assert document["ids"] == list(direct)
        assert document["count"] == len(direct)
        assert document["metric"] == "jaccard"
        assert document["batch_size"] >= 1

    def test_concurrent_searches_coalesce_with_parity(
        self, app, engine, gate, word_strings
    ):
        queries = word_strings[:12]
        documents = [
            document for _, document in _gather(app, queries, gate=gate)
        ]
        for query, document in zip(queries, documents):
            assert document["ids"] == list(engine.search(query, 0.5))
        # the held first request, then everything that queued behind it
        assert [document["batch_size"] for document in documents] == [1] + [
            11
        ] * 11

    def test_explicit_batch_bypasses_coalescer(
        self, app, engine, word_strings
    ):
        queries = word_strings[:4]
        status, document = _call_json(
            app,
            "POST",
            "/search",
            {"queries": queries, "threshold": 0.5, "metric": "cosine"},
        )
        assert status == 200
        cosine = SimilarityEngine(index=engine.index, metric="cosine")
        for row, query in zip(document["results"], queries):
            assert row["ids"] == list(cosine.search(query, 0.5))

    def test_per_request_metric_override(self, app, engine, word_strings):
        query = word_strings[0]
        status, document = _call_json(
            app,
            "POST",
            "/search",
            {"query": query, "threshold": 0.5, "metric": "dice"},
        )
        assert status == 200
        dice = SimilarityEngine(index=engine.index, metric="dice")
        assert document["ids"] == list(dice.search(query, 0.5))

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"query": "x"}, "threshold"),
            ({"query": "x", "threshold": "high"}, "threshold"),
            ({"query": "x", "threshold": True}, "threshold"),
            ({"threshold": 0.5}, "query"),
            ({"query": 7, "threshold": 0.5}, "query"),
            ({"queries": "not-a-list", "threshold": 0.5}, "queries"),
            ({"query": "x", "threshold": 0.5, "metric": 3}, "metric"),
            # out of range for a set metric: the engine's own ValueError
            # must surface as a 400, not a 500 (the client sent it)
            ({"query": "x", "threshold": 5.0}, "threshold"),
            ({"queries": ["x", "y"], "threshold": -0.25}, "threshold"),
        ],
    )
    def test_bad_search_bodies_answer_400(self, app, body, fragment):
        status, document = _call_json(app, "POST", "/search", body)
        assert status == 400
        assert fragment in document["error"]

    def test_unknown_metric_answers_400(self, app):
        status, document = _call_json(
            app,
            "POST",
            "/search",
            {"query": "x", "threshold": 0.5, "metric": "hamming"},
        )
        assert status == 400
        assert "hamming" in document["error"]

    def test_invalid_json_answers_400(self, app):
        status, payload = _call(app, "POST", "/search")
        assert status == 400
        status, document = _call_json(app, "POST", "/search", [1, 2, 3])
        assert status == 400
        assert "JSON object" in document["error"]

    def test_routing(self, app):
        assert _call(app, "GET", "/nope")[0] == 404
        assert _call(app, "GET", "/search")[0] == 405
        assert _call(app, "POST", "/healthz")[0] == 405

    def test_info_document(self, app, word_strings):
        status, document = _call_json(app, "GET", "/")
        assert status == 200
        assert document["engine"] == "SimilarityEngine"
        assert document["records"] == len(word_strings)
        assert document["metric"] == "jaccard"
        assert set(document["coalescing"]) >= {
            "requests",
            "batches",
            "coalescing_ratio",
            "mean_batch_size",
        }

    def test_metrics_exposition(self, app):
        _call_json(app, "POST", "/search", {"query": "x", "threshold": 0.9})
        status, payload = _call(app, "GET", "/metrics")
        text = payload.decode()
        assert status == 200
        assert "repro_serve_batch_size" in text
        assert "repro_serve_route_search_requests_total 1" in text

    def test_healthz_without_bundle(self, app):
        status, document = _call_json(app, "GET", "/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["bundle"] is None

    def test_lifespan_starts_and_stops_the_coalescer(self, engine):
        app = ServeApp(engine)

        async def _run():
            messages = [
                {"type": "lifespan.startup"},
                {"type": "lifespan.shutdown"},
            ]
            sent = []

            async def receive():
                return messages.pop(0)

            async def send(message):
                sent.append(message)

            await app({"type": "lifespan"}, receive, send)
            return sent

        sent = asyncio.run(_run())
        assert [message["type"] for message in sent] == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]
        with pytest.raises(RuntimeError, match="closed"):
            app.coalescer.submit("q", BatchKey("jaccard", 0.5))


class TestHealthz:
    def test_bundle_health_ok_and_cached(
        self, tmp_path, word_strings, monkeypatch
    ):
        bundle = tmp_path / "bundle"
        with SimilarityEngine(tokenize_collection(word_strings)) as engine:
            engine.save(bundle)
        app = ServeApp(
            SimilarityEngine.open(bundle), bundle_path=bundle
        )
        try:
            status, document = _call_json(app, "GET", "/healthz")
            assert status == 200
            assert document["status"] == "ok"
            assert document["issues"] == []
            # a second probe within max-age reuses the cached verdict
            calls = []
            import repro.serve.app as serve_app

            monkeypatch.setattr(
                serve_app,
                "check_path",
                lambda path, **kw: calls.append(path) or [],
            )
            assert _call_json(app, "GET", "/healthz")[0] == 200
            assert calls == []
        finally:
            app.close()
            app.engine.close()

    def test_corrupted_bundle_answers_503(self, tmp_path, word_strings):
        bundle = tmp_path / "bundle"
        with SimilarityEngine(tokenize_collection(word_strings)) as engine:
            engine.save(bundle)
        # mmap=False: the validator re-reads the files we are corrupting
        app = ServeApp(
            SimilarityEngine.open(bundle, mmap=False),
            bundle_path=bundle,
            health_max_age_s=0.0,
        )
        try:
            manifest = bundle / "manifest.json"
            document = json.loads(manifest.read_text())
            document["num_records"] = 999999
            manifest.write_text(json.dumps(document))
            status, body = _call_json(app, "GET", "/healthz")
            assert status == 503
            assert body["status"] == "unhealthy"
            assert body["issues"]
        finally:
            app.close()
            app.engine.close()


# ---------------------------------------------------------------------- #
# the real socket server
# ---------------------------------------------------------------------- #
def _post(url, document, timeout=10):
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _held_posts(port, queries, gate):
    """POST /search every query at 0.5, one keep-alive connection each,
    while the first is held in the engine by ``gate``.

    The server's loop runs the batch, so while the gate holds it nothing
    else is read.  The connections are opened first (a ``GET /healthz``
    on each proves the server took it), the first request is sent and
    held, the rest are written to their sockets, and only then does the
    gate open: the loop reads and parses every one of them in its next
    turn.  Returns ``(status, retry_after, document)`` in query order."""
    connections = [
        http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        for _ in queries
    ]
    try:
        for connection in connections:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200

        def send(connection, query):
            connection.request(
                "POST",
                "/search",
                body=json.dumps({"query": query, "threshold": 0.5}),
                headers={"Content-Type": "application/json"},
            )

        send(connections[0], queries[0])
        gate.wait_entered()
        try:
            for connection, query in zip(connections[1:], queries[1:]):
                send(connection, query)
        finally:
            gate.release()
        replies = []
        for connection in connections:
            response = connection.getresponse()
            replies.append(
                (
                    response.status,
                    response.getheader("Retry-After"),
                    json.loads(response.read()),
                )
            )
        return replies
    finally:
        for connection in connections:
            connection.close()


class TestServerThread:
    def test_parallel_clients_coalesce_with_parity(
        self, engine, gate, word_strings
    ):
        app = ServeApp(engine)
        queries = [word_strings[i % 30] for i in range(16)]
        with ServerThread(app) as server:
            replies = _held_posts(server.port, queries, gate)
            for query, (status, _, document) in zip(queries, replies):
                assert status == 200
                assert document["ids"] == list(engine.search(query, 0.5))
            stats = app.coalescer.stats()
        # the held first request, then everything that queued behind it
        assert stats["requests"] == 16
        assert stats["batches"] == 2
        assert stats["max_batch_size"] == 15

    def test_http_error_statuses_reach_the_wire(self, engine):
        app = ServeApp(engine)
        with ServerThread(app) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                _post(f"{server.url}/search", {"query": "x"})
            assert caught.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(f"{server.url}/nope", timeout=10)
            assert caught.value.code == 404

    def test_keep_alive_serves_sequential_requests(self, engine):
        app = ServeApp(engine)
        with ServerThread(app) as server:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            try:
                for _ in range(3):
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                connection.close()

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"NOT-HTTP", 400),
            (b"POST /search HTTP/1.1\r\nContent-Length: -5", 400),
            (b"POST /search HTTP/1.1\r\nContent-Length: abc", 400),
            # a head over 64 KiB
            (b"GET / HTTP/1.1\r\nX-Pad: " + b"x" * (64 << 10), 431),
            # a declared body over 1 MiB is refused before it is read
            (b"POST /search HTTP/1.1\r\nContent-Length: 1048577", 413),
            (b"POST /search HTTP/1.1\r\nTransfer-Encoding: chunked", 411),
        ],
        ids=[
            "not-http",
            "negative-length",
            "non-numeric-length",
            "oversized-head",
            "oversized-body",
            "chunked",
        ],
    )
    def test_malformed_http_answers_400_family(self, engine, head, status):
        app = ServeApp(engine)
        with ServerThread(app) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(head + b"\r\n\r\n")
                reply = sock.recv(4096)
            assert reply.startswith(b"HTTP/1.1 %d" % status)

    def test_server_shutdown_closes_coalescer(self, engine):
        app = ServeApp(engine)
        server = ServerThread(app).start()
        try:
            assert _post(
                f"{server.url}/search", {"query": "x", "threshold": 0.9}
            )[0] == 200
        finally:
            server.stop()
        with pytest.raises(RuntimeError, match="closed"):
            app.coalescer.submit("q", BatchKey("jaccard", 0.5))


async def _with_lifespan(app, body):
    """``await body()`` between the app's lifespan startup and shutdown,
    on the running loop — what a server does around its traffic."""
    lifespan = _Lifespan(app)
    await lifespan.startup()
    try:
        return await body()
    finally:
        await lifespan.shutdown()


class TestServingLoop:
    def test_lifespan_started_app_runs_batches_on_the_loop_thread(
        self, engine, word_strings, monkeypatch
    ):
        app = ServeApp(engine)
        search_batch = engine.search_batch
        threads = []

        def recording(queries, threshold):
            threads.append(threading.get_ident())
            return search_batch(queries, threshold)

        monkeypatch.setattr(engine, "search_batch", recording)

        async def body():
            _, document = await _search_once(app, word_strings[0])
            return threading.get_ident(), document

        loop_thread, document = asyncio.run(_with_lifespan(app, body))
        assert threads == [loop_thread]
        assert document["ids"] == list(engine.search(word_strings[0], 0.5))

    def test_requests_of_one_loop_turn_make_one_batch(
        self, engine, word_strings
    ):
        app = ServeApp(engine)
        queries = word_strings[:9]

        async def body():
            return await asyncio.gather(
                *(_search_once(app, query) for query in queries)
            )

        replies = asyncio.run(_with_lifespan(app, body))
        for query, (_, document) in zip(queries, replies):
            assert document["ids"] == list(engine.search(query, 0.5))
            assert document["batch_size"] == len(queries)
        stats = app.coalescer.stats()
        assert (stats["requests"], stats["batches"]) == (len(queries), 1)

    def test_close_after_the_loop_closed_answers_every_pending_request(self):
        # a SIGINT can end the serving loop before the lifespan shutdown
        # runs; the close() after it must still answer what was pending
        runner = _Runner()
        coalescer = BatchCoalescer(runner.run_batch)
        loop = asyncio.new_event_loop()

        async def bind():
            coalescer.start()

        loop.run_until_complete(bind())
        key = BatchKey("jaccard", 0.8)
        futures = [coalescer.submit(f"q{i}", key) for i in range(3)]
        loop.close()  # drops the drain the submits scheduled
        assert not any(future.done() for future in futures)
        coalescer.close()
        assert [future.result(timeout=0) for future in futures] == [
            (f"q{i}@jaccard/0.8", 3) for i in range(3)
        ]
        assert runner.batches == [(["q0", "q1", "q2"], key)]

    def test_submit_after_the_bound_loop_closed_answers_in_place(self):
        runner = _Runner()
        coalescer = BatchCoalescer(runner.run_batch)
        loop = asyncio.new_event_loop()

        async def bind():
            coalescer.start()

        loop.run_until_complete(bind())
        loop.close()
        try:
            future = coalescer.submit("late", BatchKey("jaccard", 0.8))
            assert future.result(timeout=0) == ("late@jaccard/0.8", 1)
        finally:
            coalescer.close()


class TestSlowClients:
    def test_trickled_request_is_answered_and_stalls_no_one(
        self, engine, word_strings
    ):
        # one byte every ~10 ms, head and body: the loop that runs the
        # batches must keep answering other clients while it waits
        app = ServeApp(engine)
        query = word_strings[3]
        body = json.dumps({"query": query, "threshold": 0.5}).encode()
        request = (
            b"POST /search HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        with ServerThread(app) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as slow:
                slow.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                trickled = threading.Event()

                def trickle():
                    for byte in request:
                        slow.sendall(bytes([byte]))
                        time.sleep(0.01)
                    trickled.set()

                trickler = threading.Thread(target=trickle)
                trickler.start()
                try:
                    for other in word_strings[:5]:
                        status, document = _post(
                            f"{server.url}/search",
                            {"query": other, "threshold": 0.5},
                        )
                        assert status == 200
                        assert document["ids"] == list(
                            engine.search(other, 0.5)
                        )
                        assert not trickled.is_set(), "answered only after"
                finally:
                    trickler.join(60)
                response = http.client.HTTPResponse(slow)
                response.begin()
                assert response.status == 200
                document = json.loads(response.read())
        assert document["ids"] == list(engine.search(query, 0.5))

    def test_half_a_head_then_close_gets_no_reply(self, engine):
        app = ServeApp(engine)
        with ServerThread(app) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(b"POST /search HTTP/1.1\r\nContent-Le")
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(4096) == b""
            status, _ = _post(
                f"{server.url}/search", {"query": "x", "threshold": 0.9}
            )
            assert status == 200


class TestServeEntryPoint:
    def test_repro_serve_answers_then_exits_cleanly_on_sigint(
        self, tmp_path, engine, word_strings
    ):
        bundle = tmp_path / "bundle"
        engine.save(bundle)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_SRC), environment.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(bundle),
             "--port", str(port), "--mmap"],
            env=environment,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        url = f"http://127.0.0.1:{port}"
        try:
            deadline = time.monotonic() + 60
            while True:
                assert process.poll() is None, process.communicate()
                try:
                    urllib.request.urlopen(f"{url}/healthz", timeout=5).close()
                    break
                except OSError:
                    assert time.monotonic() < deadline, "no /healthz answer"
                    time.sleep(0.05)
            query = word_strings[0]
            status, document = _post(
                f"{url}/search", {"query": query, "threshold": 0.5}
            )
            assert status == 200
            assert document["ids"] == list(engine.search(query, 0.5))
            process.send_signal(signal.SIGINT)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr.decode()
        assert b"Traceback" not in stderr, stderr.decode()
        assert b"serving" in stdout


# ---------------------------------------------------------------------- #
# observability: traces, gauges, debug routes, backpressure
# ---------------------------------------------------------------------- #
@pytest.fixture
def traced_app(engine):
    from repro.obs import TRACER

    app = ServeApp(engine, trace_sample=1.0)
    TRACER.clear()
    yield app
    app.close()
    TRACER.configure(enabled=False, sample_rate=1.0, slow_ms=None)
    TRACER.clear()


async def _search_once(app, query, threshold=0.5, headers=()):
    """One ``POST /search`` through the ASGI app on the running loop;
    ``(response_headers, body_document)``."""
    body = json.dumps({"query": query, "threshold": threshold}).encode()
    scope = {
        "type": "http",
        "method": "POST",
        "path": "/search",
        "headers": list(headers),
    }
    sent = []

    async def receive():
        return {"type": "http.request", "body": body, "more_body": False}

    async def send(message):
        sent.append(message)

    await app(scope, receive, send)
    return dict(sent[0].get("headers", [])), json.loads(sent[1]["body"])


def _gather(app, queries, threshold=0.5, headers=(), gate=None):
    """Run concurrent /search requests through the ASGI app; returns
    [(response_headers, body_document)] in request order.

    With a ``gate`` on the engine, the first request is held in the engine
    until every other one is pending, so those share the next batch."""

    async def _until(condition):
        deadline = time.monotonic() + 30
        while not condition():
            assert time.monotonic() < deadline, "requests never arrived"
            await asyncio.sleep(0.001)

    async def _all():
        if gate is None:
            return await asyncio.gather(
                *(_search_once(app, q, threshold, headers) for q in queries)
            )
        first = asyncio.ensure_future(
            _search_once(app, queries[0], threshold, headers)
        )
        try:
            await _until(gate.entered.is_set)
            rest = [
                asyncio.ensure_future(
                    _search_once(app, q, threshold, headers)
                )
                for q in queries[1:]
            ]
            await _until(lambda: app.coalescer.pending_count() == len(rest))
        finally:
            gate.release()
        return await asyncio.gather(first, *rest)

    return asyncio.run(_all())


class TestRequestTracing:
    def test_response_carries_traceparent_and_trace_id(
        self, traced_app, word_strings
    ):
        ((headers, document),) = _gather(traced_app, word_strings[:1])
        trace_id = document["trace_id"]
        assert len(trace_id) == 32
        assert headers[b"traceparent"].startswith(b"00-" + trace_id.encode())

    def test_untraced_request_builds_no_trace_document(
        self, app, word_strings, monkeypatch
    ):
        # tracer off is what the e2e serve_http workload times: the request
        # must not pay for a span tree the tracer would drop on arrival
        import repro.serve.app as serve_app

        monkeypatch.setattr(
            serve_app,
            "_request_trace_document",
            lambda *args: pytest.fail("built a trace document, tracer off"),
        )
        ((headers, document),) = _gather(app, word_strings[:1])
        trace_id = document["trace_id"]
        assert len(trace_id) == 32
        assert headers[b"traceparent"].startswith(b"00-" + trace_id.encode())

    def test_incoming_traceparent_is_honoured(self, traced_app, word_strings):
        upstream = b"00-" + b"ab" * 16 + b"-" + b"cd" * 8 + b"-01"
        ((headers, document),) = _gather(
            traced_app,
            word_strings[:1],
            headers=[(b"traceparent", upstream)],
        )
        assert document["trace_id"] == "ab" * 16
        assert headers[b"traceparent"].startswith(b"00-" + b"ab" * 16)

    def test_malformed_traceparent_is_ignored(self, traced_app, word_strings):
        ((_, document),) = _gather(
            traced_app,
            word_strings[:1],
            headers=[(b"traceparent", b"not-a-traceparent")],
        )
        assert len(document["trace_id"]) == 32

    def test_coalesced_request_trace_is_one_tree_with_all_stages(
        self, traced_app, gate, word_strings
    ):
        # THE tentpole acceptance: one coalesced POST /search produces one
        # trace tree whose queue-wait, batch-execute and demux stages are
        # distinct spans, retrievable via GET /debug/trace
        results = _gather(traced_app, word_strings[:6], gate=gate)
        assert max(doc["batch_size"] for _, doc in results) == 5
        status, payload = _call(traced_app, "GET", "/debug/trace")
        assert status == 200
        documents = [
            json.loads(line) for line in payload.decode().splitlines()
        ]
        requests = [d for d in documents if d["name"] == "serve.request"]
        assert len(requests) == 6
        batches = [d for d in documents if d["name"] == "serve.batch"]
        assert len(batches) >= 1  # the shared batch span is also retained
        # a request that rode the five-query batch
        (document, *_) = [
            d for d in requests if d["meta"]["batch_size"] == 5
        ]
        by_name = {}
        for span in document["spans"]:
            by_name.setdefault(span["name"], span)
        for stage in ("serve.request", "serve.queue", "serve.batch",
                      "serve.execute", "serve.demux"):
            assert stage in by_name, f"missing {stage} span"
        root = by_name["serve.request"]
        assert root["parent"] is None
        assert by_name["serve.queue"]["parent"] == root["id"]
        assert by_name["serve.demux"]["parent"] == root["id"]
        assert by_name["serve.batch"]["parent"] == root["id"]
        assert (
            by_name["serve.execute"]["parent"] == by_name["serve.batch"]["id"]
        )
        # ids are unique and every parent exists in the same tree
        ids = [span["id"] for span in document["spans"]]
        assert len(ids) == len(set(ids))
        for span in document["spans"]:
            assert span["parent"] is None or span["parent"] in ids
        # the batched kernel stays engaged under the batch trace: the five
        # coalesced queries share ONE batched filter stage
        names = [span["name"] for span in document["spans"]]
        assert names.count("search.filter") == 1


class TestDebugRoutes:
    def test_debug_vars_snapshot(self, traced_app, word_strings):
        _gather(traced_app, word_strings[:2])
        status, document = _call_json(traced_app, "GET", "/debug/vars")
        assert status == 200
        assert document["service"] == "repro.serve"
        assert document["engine"] == "SimilarityEngine"
        assert document["traces"]["enabled"] is True
        assert document["traces"]["buffered"] >= 1
        gauges = document["gauges"]
        assert set(gauges) == {"serve.queue.depth", "process.rss_bytes"}
        assert gauges["process.rss_bytes"] > 0
        assert document["coalescing"]["requests"] == 2
        # uptime and cache occupancy ship as fields, not gauges
        assert document["uptime_s"] >= 0
        assert {"entries", "bytes"} <= set(document["cache"])

    def test_debug_vars_agrees_with_metrics(self, traced_app, word_strings):
        # both endpoints read the one serve registry: every counter and
        # gauge /debug/vars reports is the sample /metrics exposes
        from repro.obs import parse_prometheus

        _gather(traced_app, word_strings[:5])
        assert _call(traced_app, "GET", "/healthz")[0] == 200
        _, document = _call_json(traced_app, "GET", "/debug/vars")
        samples = parse_prometheus(
            _call(traced_app, "GET", "/metrics")[1].decode()
        )
        counters = document["serve"]["counters"]
        assert counters["serve.requests"] == 5
        assert "serve.route.search.requests" in counters
        for name, value in counters.items():
            sample = "repro_" + name.replace(".", "_") + "_total"
            assert samples[sample] == value, name
        assert document["shed"] == samples.get("repro_serve_shed_total", 0)
        # RSS is read live at each scrape, microseconds apart
        live = {"process.rss_bytes": 64 << 20}
        gauges = document["gauges"]
        assert "serve.queue.depth" in gauges and "process.rss_bytes" in gauges
        for name, value in gauges.items():
            sample = samples["repro_" + name.replace(".", "_")]
            assert sample == pytest.approx(value, abs=live.get(name, 0)), name

    def test_debug_trace_n_parameter_and_validation(
        self, traced_app, word_strings
    ):
        _gather(traced_app, word_strings[:4])
        status, payload = _call(traced_app, "GET", "/debug/trace?n=2")
        assert status == 200
        assert len(payload.decode().splitlines()) == 2
        assert _call(traced_app, "GET", "/debug/trace?n=bogus")[0] == 400
        assert _call(traced_app, "GET", "/debug/trace?n=-1")[0] == 400

    def test_debug_routes_reject_other_methods(self, app):
        assert _call(app, "POST", "/debug/vars")[0] == 405
        assert _call(app, "POST", "/debug/trace")[0] == 405

    def test_metrics_exposition_passes_the_checker(
        self, traced_app, word_strings
    ):
        from repro.obs import check_exposition, parse_prometheus

        _gather(traced_app, word_strings[:3])
        status, payload = _call(traced_app, "GET", "/metrics")
        text = payload.decode()
        assert status == 200
        assert check_exposition(text) == []
        samples = parse_prometheus(text)
        assert samples["repro_serve_requests_total"] == 3.0
        assert "repro_serve_queue_depth" in samples
        assert "repro_process_rss_bytes" in samples
        assert 'repro_build_info{version=' in text
        # per-route latency histograms back the runbook's p50/p99
        assert any(
            key.startswith("repro_serve_route_search_latency_ms_bucket")
            for key in samples
        )


class TestBackpressure:
    def test_shed_answers_429_with_retry_after(self, engine, word_strings):
        app = ServeApp(engine, max_pending=0)
        try:

            async def _run():
                body = json.dumps(
                    {"query": word_strings[0], "threshold": 0.5}
                ).encode()
                scope = {
                    "type": "http",
                    "method": "POST",
                    "path": "/search",
                    "headers": [],
                }
                sent = []

                async def receive():
                    return {
                        "type": "http.request",
                        "body": body,
                        "more_body": False,
                    }

                async def send(message):
                    sent.append(message)

                await app(scope, receive, send)
                return sent

            sent = asyncio.run(_run())
            assert sent[0]["status"] == 429
            headers = dict(sent[0]["headers"])
            assert headers[b"retry-after"] == b"1"
            document = json.loads(sent[1]["body"])
            assert "max_pending" in document["error"]
            assert app.metrics.counter("serve.shed") == 1
            status, payload = _call(app, "GET", "/metrics")
            assert "repro_serve_shed_total 1" in payload.decode()
            status, vars_doc = _call_json(app, "GET", "/debug/vars")
            assert vars_doc["shed"] == 1
        finally:
            app.close()

    def test_unbounded_by_default(self, app, word_strings):
        results = _gather(app, word_strings[:4])
        assert all(doc["count"] >= 1 for _, doc in results)
        assert app.metrics.counter("serve.shed") == 0

    def test_sustained_load_past_max_pending(
        self, engine, gate, word_strings
    ):
        # the held first batch holds the server's loop: the twelve requests
        # written meanwhile are parsed in one turn, the first four fill the
        # pending queue to max_pending and the other eight are shed, never
        # reaching the engine
        app = ServeApp(engine, max_pending=4)
        queries = word_strings[:13]
        with ServerThread(app) as server:
            replies = _held_posts(server.port, queries, gate)
            stats = app.coalescer.stats()
        admitted = 0
        for query, (status, retry_after, document) in zip(queries, replies):
            if status == 200:
                admitted += 1
                assert retry_after is None
                assert document["ids"] == list(engine.search(query, 0.5))
            else:
                assert status == 429
                assert retry_after == "1"
                assert "max_pending" in document["error"]
        assert admitted == 1 + 4  # the held request and a full queue
        assert stats["requests"] == admitted

    def test_shed_requests_never_reach_the_engine(self, engine):
        app = ServeApp(engine, max_pending=0)
        try:
            status, document = _call_json(
                app, "POST", "/search", {"query": "x", "threshold": 0.5}
            )
            assert status == 429
            assert app.coalescer.stats()["requests"] == 0
        finally:
            app.close()
