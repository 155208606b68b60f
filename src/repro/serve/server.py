"""A dependency-free asyncio HTTP/1.1 server speaking ASGI 3.

``repro serve`` must work on a bare python install, and this container
ships no ASGI server — so this module is the fallback uvicorn: an
``asyncio.start_server`` loop that parses HTTP/1.1 requests, drives the
ASGI app (scope → receive → send), and writes responses back with
keep-alive.  It implements exactly what the :class:`~repro.serve.app.ServeApp`
routes need — small JSON bodies, Content-Length framing — and answers
411/431/400 for the rest; it is not a general-purpose web server.

Two entry points:

* :func:`run` — blocking serve-forever (what ``repro serve`` calls).
* :class:`ServerThread` — the same server on a background thread with an
  OS-assigned port, for tests and the load bench::

      with ServerThread(app) as server:
          requests.post(f"http://127.0.0.1:{server.port}/search", ...)
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["ServerThread", "run"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _ParseError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, List[Tuple[bytes, bytes]], bytes]]:
    """One request off the wire: (method, target, headers, body).

    ``None`` means the client closed the connection between requests.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between keep-alive requests
        raise _ParseError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise _ParseError(431, "request head too large")
    if len(head) > _MAX_HEADER_BYTES:
        raise _ParseError(431, "request head too large")
    lines = head.split(b"\r\n")
    try:
        method, target, version = lines[0].decode("latin-1").split(" ", 2)
    except ValueError:
        raise _ParseError(400, f"malformed request line: {lines[0]!r}")
    if not version.startswith("HTTP/1."):
        raise _ParseError(400, f"unsupported protocol {version!r}")
    headers: List[Tuple[bytes, bytes]] = []
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(b":")
        if not separator:
            raise _ParseError(400, f"malformed header line: {line!r}")
        headers.append((name.strip().lower(), value.strip()))
    header_map: Dict[bytes, bytes] = dict(headers)
    if b"transfer-encoding" in header_map:
        # chunked bodies are out of scope for this tiny server
        raise _ParseError(411, "chunked bodies unsupported; send Content-Length")
    body = b""
    if b"content-length" in header_map:
        try:
            length = int(header_map[b"content-length"])
        except ValueError:
            length = -1
        if length < 0:
            raise _ParseError(400, "malformed Content-Length")
        if length > _MAX_BODY_BYTES:
            raise _ParseError(413, "request body over 1 MiB")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _ParseError(400, "truncated request body")
    return method, target, headers, body


def _scope(
    method: str, target: str, headers: List[Tuple[bytes, bytes]]
) -> Dict:
    path, separator, query = target.partition("?")
    return {
        "type": "http",
        "asgi": {"version": "3.0", "spec_version": "2.3"},
        "http_version": "1.1",
        "method": method.upper(),
        "scheme": "http",
        "path": path,
        "raw_path": path.encode("latin-1"),
        "query_string": query.encode("latin-1") if separator else b"",
        "headers": headers,
        "server": None,
        "client": None,
    }


async def _handle_connection(app, reader, writer) -> None:
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _ParseError as error:
                _write_response(
                    writer,
                    error.status,
                    [(b"content-type", b"text/plain")],
                    error.message.encode(),
                    keep_alive=False,
                )
                await writer.drain()
                return
            if request is None:
                return
            method, target, headers, body = request
            header_map = dict(headers)
            keep_alive = (
                header_map.get(b"connection", b"keep-alive").lower()
                != b"close"
            )
            if not await _dispatch(
                app, writer, _scope(method, target, headers), body, keep_alive
            ):
                return
            if not keep_alive:
                return
    # a misbehaving client connection must never take the server down
    # repro: noqa RA07 -- the connection is simply dropped
    except Exception:
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _dispatch(app, writer, scope, body: bytes, keep_alive: bool) -> bool:
    """Run the ASGI app for one request; False ends the connection."""
    received = False

    async def receive() -> Dict:
        nonlocal received
        if received:
            await asyncio.sleep(3600)  # the app over-read; park forever
            return {"type": "http.disconnect"}
        received = True
        return {"type": "http.request", "body": body, "more_body": False}

    state = {"status": None, "headers": [], "sent": False}
    chunks: List[bytes] = []

    async def send(message: Dict) -> None:
        if message["type"] == "http.response.start":
            state["status"] = message["status"]
            state["headers"] = list(message.get("headers", []))
        elif message["type"] == "http.response.body":
            chunks.append(message.get("body", b""))
            if not message.get("more_body"):
                state["sent"] = True

    try:
        await app(scope, receive, send)
    # an app crash answers 500; the traceback belongs to the app's own
    # error handling, not the transport
    # repro: noqa RA07 -- the failure is answered as a 500, not swallowed
    except Exception as error:
        if state["sent"]:
            return False  # response already committed; drop the connection
        _write_response(
            writer,
            500,
            [(b"content-type", b"text/plain")],
            f"{type(error).__name__}: {error}".encode(),
            keep_alive=False,
        )
        await writer.drain()
        return False
    if state["status"] is None:
        state["status"] = 500
        chunks = [b"app returned no response"]
        state["headers"] = [(b"content-type", b"text/plain")]
    _write_response(
        writer,
        int(state["status"]),
        state["headers"],
        b"".join(chunks),
        keep_alive=keep_alive,
    )
    await writer.drain()
    return True


def _write_response(
    writer, status: int, headers, body: bytes, *, keep_alive: bool
) -> None:
    reason = _REASONS.get(status, "Unknown")
    parts = [f"HTTP/1.1 {status} {reason}\r\n".encode("latin-1")]
    seen = set()
    for name, value in headers:
        seen.add(bytes(name).lower())
        parts.append(bytes(name) + b": " + bytes(value) + b"\r\n")
    if b"content-length" not in seen:
        parts.append(b"content-length: " + str(len(body)).encode() + b"\r\n")
    parts.append(
        b"connection: keep-alive\r\n" if keep_alive else b"connection: close\r\n"
    )
    parts.append(b"\r\n")
    parts.append(body)
    writer.write(b"".join(parts))


class _Lifespan:
    """Drives the app's single long-lived lifespan call.

    The ASGI spec gives an app ONE lifespan invocation that receives
    ``lifespan.startup`` and, much later, ``lifespan.shutdown`` — so the
    driver keeps the app task parked on ``receive()`` between the two
    phases instead of invoking the app twice.
    """

    def __init__(self, app) -> None:
        self._app = app
        self._to_app: asyncio.Queue = asyncio.Queue()
        self._from_app: asyncio.Queue = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None

    async def startup(self) -> None:
        self._task = asyncio.ensure_future(
            self._app(
                {"type": "lifespan", "asgi": {"version": "3.0"}},
                self._to_app.get,
                self._from_app.put,
            )
        )
        await self._phase("startup")

    async def shutdown(self) -> None:
        if self._task is None or self._task.done():
            return
        await self._phase("shutdown")
        await self._task

    async def _phase(self, phase: str) -> None:
        if self._task is None:
            raise RuntimeError("lifespan phase before startup()")
        await self._to_app.put({"type": f"lifespan.{phase}"})
        reply = asyncio.ensure_future(self._from_app.get())
        await asyncio.wait(
            [reply, self._task], return_when=asyncio.FIRST_COMPLETED
        )
        if not reply.done():
            # the app returned (or raised) without completing the phase
            reply.cancel()
            error = self._task.exception()
            raise RuntimeError(
                f"app ended lifespan during {phase}"
                + (f": {error}" if error else "")
            )
        # repro: noqa RA11 -- reply is an asyncio task awaited to
        # completion just above; result() on a done task cannot block
        message = reply.result()
        if message["type"].endswith(".failed"):
            raise RuntimeError(
                f"app lifespan.{phase} failed: {message.get('message', '')}"
            )


async def serve(
    app,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    ready: Optional["threading.Event"] = None,
    port_holder: Optional[list] = None,
    stop: Optional[asyncio.Event] = None,
) -> None:
    """Serve ``app`` until ``stop`` is set (forever when ``stop`` is None)."""
    lifespan = _Lifespan(app)
    await lifespan.startup()
    server = await asyncio.start_server(
        lambda reader, writer: _handle_connection(app, reader, writer),
        host,
        port,
        limit=_MAX_HEADER_BYTES,
    )
    try:
        if port_holder is not None:
            port_holder.append(server.sockets[0].getsockname()[1])
        if ready is not None:
            ready.set()
        async with server:
            if stop is None:
                await server.serve_forever()
            else:
                await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await lifespan.shutdown()


def run(app, host: str = "127.0.0.1", port: int = 8080) -> None:
    """Blocking serve-forever (the ``repro serve`` entry point)."""
    try:
        asyncio.run(serve(app, host, port))
    except KeyboardInterrupt:
        pass


class ServerThread:
    """The server on a daemon thread — tests and benches talk real HTTP.

    ``port=0`` (the default) binds an OS-assigned free port, published as
    ``.port`` once ``__enter__``/``start`` returns.
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, timeout: float = 10.0) -> "ServerThread":
        ready = threading.Event()
        ports: list = []

        def _main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self._stop = asyncio.Event()
            try:
                loop.run_until_complete(
                    serve(
                        self.app,
                        self.host,
                        self.port,
                        ready=ready,
                        port_holder=ports,
                        stop=self._stop,
                    )
                )
            # repro: noqa RA07 -- surfaced to start()/stop() callers below
            except BaseException as error:
                self._error = error
                ready.set()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("server failed to start within timeout")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        if ports:
            self.port = ports[0]
        return self

    def stop(self, timeout: float = 10.0) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
