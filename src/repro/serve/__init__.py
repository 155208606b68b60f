"""``repro.serve`` — the async HTTP serving layer.

The batch kernels made *batches* fast; this package makes that speed
reachable from the network, where traffic arrives as many concurrent
single-query requests.  Three pieces:

* :mod:`repro.serve.coalescer` — a micro-batching queue.  Concurrent
  ``POST /search`` requests that queue while a batch runs are coalesced
  into the next
  :meth:`~repro.engine.core.SimilarityEngine.search_batch` call, with the
  answers demuxed back per request — bit-identical to direct engine calls.
* :mod:`repro.serve.app` — a framework-free ASGI 3 application fronting a
  :class:`~repro.engine.core.SimilarityEngine`: ``POST /search``,
  ``GET /metrics`` (Prometheus text via
  :func:`repro.obs.export.to_prometheus`), ``GET /healthz`` (the
  ``repro check`` bundle validator) and ``GET /`` (an info document).
  Runnable under any ASGI server: ``ServeApp(SimilarityEngine.open(path))``.
* :mod:`repro.serve.server` — a dependency-free asyncio HTTP/1.1 server
  speaking the ASGI protocol, so ``repro serve`` works on a bare python
  install; it is what the CLI boots when uvicorn is not around.

Quick start::

    repro index corpus.txt corpus.bundle
    repro serve corpus.bundle --port 8080 --mmap

    curl -s localhost:8080/search -d '{"query": "similar string", "threshold": 0.8}'
    curl -s localhost:8080/metrics | grep serve_
    curl -s localhost:8080/healthz
"""

from .app import ServeApp
from .coalescer import BatchCoalescer, BatchKey
from .server import ServerThread, run

__all__ = [
    "BatchCoalescer",
    "BatchKey",
    "ServeApp",
    "ServerThread",
    "run",
]
