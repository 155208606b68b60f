"""The four workloads: set-up, the timed closed loop, and the oracle check.

Every workload is closed loop (library callers and RPC callers wait for
their reply) and runs with ``METRICS``/``TRACER`` off.  The timed loop
issues fixed-size operations — one ``search_batch`` of 64, one ``POST
/search``, one whole self-join — until ``--seconds`` have passed, so a run
is a whole number of identical-shaped operations and the reported medians
do not depend on how many of them fitted.

``--seed`` feeds the raw generators and the query sampler
(``default_rng(seed + 1)``, the paper's protocol: random corpus strings as
queries); the program only ever receives the generated inputs.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import resource
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.datasets.text import dblp_like, tweet_like
from repro.engine import SimilarityEngine
from repro.join import PositionFilterJoin, PrefixFilterJoin
from repro.join.brute import brute_similarity_join
from repro.search import InvertedIndex
from repro.search.brute import brute_similarity_search
from repro.similarity import tokenize_collection

from spans import SILENT, Recorder

TAU = 0.8
BATCH = 64
#: load-generating threads/connections; fixed (not nproc) so numbers stay
#: comparable on bigger machines
CLIENTS = 2
REQUEST_TIMEOUT_S = 10.0
ORACLE_QUERIES = 50
SRC_DIR = Path(__file__).resolve().parents[2] / "src"


@dataclass(frozen=True)
class Config:
    seed: int
    seconds: float
    scale: float
    out_dir: Path

    def scaled(self, cardinality: int) -> int:
        return max(200, int(cardinality * self.scale))


@dataclass
class Measured:
    """What one timed loop produced."""

    operations: int = 0  # timed operations attempted (queries / records)
    per_sample: int = 1  # operations behind one latency sample
    failed: int = 0  # raised, timed out, non-200
    wall_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: when each latency sample ended, seconds since the loop started
    stamps: List[float] = field(default_factory=list)
    #: batch_hot: which batch of its pool each sample timed (repetitions
    #: of one batch share a key); empty when no operation is repeated
    keys: List[int] = field(default_factory=list)
    #: (query, answer ids) per timed query, for the oracle
    answers: List[tuple] = field(default_factory=list)
    #: serve_http: the ``batch_size`` each reply says it rode in
    batch_sizes: List[int] = field(default_factory=list)
    notes: Dict[str, float] = field(default_factory=dict)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


def query_batches(strings: Sequence[str], seed: int) -> Iterator[List[str]]:
    """The workload's query stream: endless seeded batches of corpus strings."""
    rng = np.random.default_rng(seed + 1)
    while True:
        yield [strings[i] for i in rng.integers(0, len(strings), BATCH).tolist()]


def sampled(answers: Sequence[tuple], seed: int, count: int) -> List[tuple]:
    """``count`` seeded picks (without replacement) of ``(query, ids)``."""
    rng = np.random.default_rng(seed + 2)
    picks = rng.choice(len(answers), size=min(count, len(answers)), replace=False)
    return [answers[pick] for pick in picks.tolist()]


def oracle_mismatches(collection, answers: Sequence[tuple], seed: int) -> int:
    """Sampled timed answers that differ from ``brute_similarity_search``."""
    return sum(
        list(ids) != brute_similarity_search(collection, query, TAU)
        for query, ids in sampled(answers, seed, ORACLE_QUERIES)
    )


# ---------------------------------------------------------------------- #
# batch_hot / batch_cold — offline batches through the engine
# ---------------------------------------------------------------------- #
class BatchWorkload:
    """``search_batch`` of 64 queries, one caller, ``workers=1``."""

    warmup_batches = 3
    trace_batches = 20
    rounds = 12

    def __init__(
        self,
        name: str,
        config: Config,
        *,
        generator,
        cardinality: int,
        tokenize: dict,
        engine: dict,
        pool: int = 0,
        corpus_seed: Optional[int] = None,
    ) -> None:
        self.name = name
        self.config = config
        self.generator = generator
        self.cardinality = config.scaled(cardinality)
        self.tokenize = tokenize
        self.engine_kwargs = engine
        self.pool = pool
        self.corpus_seed = config.seed if corpus_seed is None else corpus_seed
        self.engine: Optional[SimilarityEngine] = None
        self.strings: List[str] = []
        self._rss = 0.0

    def build(self, recorder: Recorder) -> None:
        """Generate, tokenize, index; the spans are the set-up layers."""
        self.strings = self.generator(self.cardinality, self.corpus_seed)
        with recorder.span("similarity.tokenize_collection", "setup"):
            collection = tokenize_collection(self.strings, **self.tokenize)
        with recorder.span("search.InvertedIndex", "setup"):
            index = InvertedIndex(collection, scheme="css")
        self.engine = SimilarityEngine(index=index, **self.engine_kwargs)

    def setup(self, recorder: Recorder) -> None:
        self.build(recorder)
        self.batches = query_batches(self.strings, self.config.seed)
        for _ in range(self.warmup_batches):
            self.engine.search_batch(next(self.batches), TAU, workers=1)
        if self.pool:
            self.batches = itertools.cycle(
                [next(self.batches) for _ in range(self.pool)]
            )

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None
        gc.collect()

    def measure(self) -> Measured:
        measured = Measured(per_sample=BATCH)
        engine = self.engine
        started = time.perf_counter()
        deadline = started + self.config.seconds
        while True:
            batch = next(self.batches)
            begin = time.perf_counter()
            try:
                results = engine.search_batch(batch, TAU, workers=1)
            # repro: noqa RA07 -- any engine failure is a failed operation
            except Exception:
                measured.failed += len(batch)
                results = []
            end = time.perf_counter()
            measured.operations += len(batch)
            if self.pool:
                measured.keys.append(len(measured.latencies_ms) % self.pool)
            measured.latencies_ms.append(1000.0 * (end - begin))
            measured.stamps.append(end - started)
            measured.answers.extend(
                (query, result.ids) for query, result in zip(batch, results)
            )
            if end >= deadline:
                break
        measured.wall_s = end - started
        self._rss = peak_rss_mb()
        return measured

    def check(self, measured: Measured) -> int:
        return oracle_mismatches(
            self.engine.index.collection, measured.answers, self.config.seed
        )

    def index_mb(self) -> float:
        return self.engine.index.size_mb()

    def peak_rss_mb(self) -> float:
        return self._rss


# ---------------------------------------------------------------------- #
# serve_http — single queries over the real HTTP server
# ---------------------------------------------------------------------- #
def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """``python -m repro serve`` as a subprocess (its own GIL)."""

    def __init__(self, bundle: Path, trace_sample: float = 0.0) -> None:
        self.port = free_port()
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(SRC_DIR)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(bundle),
                "--port",
                str(self.port),
                "--mmap",
                "--algorithm",
                "scancount",
                "--trace-sample",
                str(trace_sample),
            ],
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.process.returncode}"
                )
            try:
                status, _ = self.get("/healthz")
            except (OSError, http.client.HTTPException):
                time.sleep(0.01)
                continue
            if status == 200:
                return
            time.sleep(0.01)
        raise RuntimeError("server did not answer /healthz in time")

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )

    def get(self, path: str):
        connection = self.connection()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self) -> None:
        """Terminate and reap, so RUSAGE_CHILDREN holds its peak RSS."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


def post_search(connection, document: dict):
    """One ``POST /search``; returns ``(status, body bytes)``."""
    connection.request(
        "POST",
        "/search",
        body=json.dumps(document),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, response.read()


def drive_clients(
    port: int,
    streams,
    stop_after,
    recorder: Recorder = SILENT,
    span_name: str = "serve.socket",
) -> Measured:
    """``CLIENTS`` closed-loop threads, one keep-alive connection each.

    ``streams[i]`` yields thread *i*'s queries; ``stop_after(sent)`` says
    when a thread is done.  Non-200, timeout and connection reset each
    count as one failed operation; latency is client-observed (request
    written to reply body read).
    """
    results = [Measured() for _ in streams]
    started = time.perf_counter()

    def client(index: int) -> None:
        mine = results[index]
        connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )
        sent = 0
        try:
            for query in streams[index]:
                if stop_after(sent):
                    break
                sent += 1
                begin = time.perf_counter()
                try:
                    with recorder.span(span_name, (index, sent)):
                        status, body = post_search(
                            connection, {"query": query, "threshold": TAU}
                        )
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                    connection.close()  # reconnects on the next request
                end = time.perf_counter()
                mine.operations += 1
                if status != 200:
                    mine.failed += 1
                    continue
                mine.latencies_ms.append(1000.0 * (end - begin))
                mine.stamps.append(end - started)
                document = json.loads(body)
                mine.answers.append((query, tuple(document["ids"])))
                mine.batch_sizes.append(document["batch_size"])
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, args=(index,), name=f"client-{index}")
        for index in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = Measured(wall_s=time.perf_counter() - started)
    for part in results:
        merged.operations += part.operations
        merged.failed += part.failed
        merged.latencies_ms.extend(part.latencies_ms)
        merged.stamps.extend(part.stamps)
        merged.answers.extend(part.answers)
        merged.batch_sizes.extend(part.batch_sizes)
    return merged


def client_streams(strings: Sequence[str], seed: int) -> List[Iterator[str]]:
    """One seeded query stream per client thread."""
    def stream(offset: int) -> Iterator[str]:
        rng = np.random.default_rng(seed + 1 + 1000 * offset)
        while True:
            for i in rng.integers(0, len(strings), 256).tolist():
                yield strings[i]

    return [stream(offset) for offset in range(CLIENTS)]


class ServeWorkload:
    """2 clients posting single queries at a coalescing server subprocess."""

    name = "serve_http"
    warmup_requests = 200
    rounds = 12

    def __init__(self, config: Config) -> None:
        self.config = config
        self.cardinality = config.scaled(9_000)
        self.engine: Optional[SimilarityEngine] = None
        self.server: Optional[Server] = None
        self.workdir: Optional[Path] = None
        self.strings: List[str] = []
        self.debug_vars: dict = {}

    def build(self, recorder: Recorder) -> Path:
        """Corpus → engine → bundle on disk; returns the bundle path."""
        self.strings = tweet_like(self.cardinality, self.config.seed)
        collection = tokenize_collection(self.strings, mode="word")
        self.engine = SimilarityEngine(
            collection, scheme="css", algorithm="scancount"
        )
        self.workdir = Path(
            tempfile.mkdtemp(prefix="serve-", dir=self.config.out_dir)
        )
        with recorder.span("storage.save", "setup"):
            return self.engine.save(self.workdir / "bundle")

    def boot(self, bundle: Path, recorder: Recorder, trace_sample=0.0) -> Server:
        with recorder.span("serve.boot", "setup"):
            server = Server(bundle, trace_sample)
            try:
                server.wait_healthy()
            except BaseException:
                server.stop()
                raise
        return server

    def warm(self, server: Server) -> None:
        share = self.warmup_requests // CLIENTS
        warmed = drive_clients(
            server.port,
            client_streams(self.strings, self.config.seed - 1),
            lambda sent: sent >= share,
        )
        if warmed.failed:
            raise RuntimeError(f"{warmed.failed} warm-up requests failed")

    def setup(self, recorder: Recorder) -> None:
        bundle = self.build(recorder)
        self.server = self.boot(bundle, recorder)
        self.warm(self.server)

    def teardown(self) -> None:
        try:
            if self.server is not None:
                self.server.stop()
        finally:
            self.server = None
            if self.workdir is not None:
                shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None
            if self.engine is not None:
                self.engine.close()

    def measure(self) -> Measured:
        deadline = time.perf_counter() + self.config.seconds
        measured = drive_clients(
            self.server.port,
            client_streams(self.strings, self.config.seed),
            lambda sent: time.perf_counter() >= deadline,
        )
        # read once, at the end: cache and coalescing counts
        status, body = self.server.get("/debug/vars")
        if status == 200:
            self.debug_vars = json.loads(body)
            coalescing = self.debug_vars["coalescing"]
            measured.notes["mean_batch_size"] = coalescing["mean_batch_size"]
        return measured

    def check(self, measured: Measured) -> int:
        """Sampled answers against brute force and in-process ``search``."""
        seed = self.config.seed
        return oracle_mismatches(
            self.engine.index.collection, measured.answers, seed
        ) + sum(
            ids != self.engine.search(query, TAU).ids
            for query, ids in sampled(measured.answers, seed, ORACLE_QUERIES)
        )

    def index_mb(self) -> float:
        return self.engine.index.size_mb()

    def peak_rss_mb(self) -> float:
        """The server's peak: call after :meth:`teardown` has reaped it."""
        return peak_rss_mb(resource.RUSAGE_CHILDREN)


# ---------------------------------------------------------------------- #
# join_self — whole self-joins, index construction charged to the run
# ---------------------------------------------------------------------- #
class JoinWorkload:
    """``PositionFilterJoin(coll, scheme="adapt").join(0.8)``, repeated."""

    name = "join_self"
    brute_slice = 600
    rounds = 12

    def __init__(self, config: Config) -> None:
        self.config = config
        self.cardinality = config.scaled(4_000)
        self.collection = None
        self.strings: List[str] = []
        self.join: Optional[PositionFilterJoin] = None
        self.pairs: List[list] = []
        self._rss = 0.0

    def build(self, recorder: Recorder) -> None:
        self.strings = tweet_like(self.cardinality, self.config.seed)
        with recorder.span("similarity.tokenize_collection", "setup"):
            self.collection = tokenize_collection(self.strings, mode="word")

    def setup(self, recorder: Recorder) -> None:
        self.build(recorder)
        # no index build here: it happens inside every timed join (§2.1)
        warm = tokenize_collection(
            self.strings[: max(100, self.cardinality // 10)], mode="word"
        )
        PositionFilterJoin(warm, scheme="adapt").join(TAU)

    def teardown(self) -> None:
        self.join = None
        gc.collect()

    def measure(self) -> Measured:
        measured = Measured(per_sample=len(self.collection))
        self.pairs = []
        started = time.perf_counter()
        deadline = started + self.config.seconds
        while True:
            join = PositionFilterJoin(self.collection, scheme="adapt")
            begin = time.perf_counter()
            try:
                self.pairs.append(join.join(TAU))
            # repro: noqa RA07 -- any join failure is a failed operation
            except Exception:
                measured.failed += len(self.collection)
            end = time.perf_counter()
            measured.operations += len(self.collection)
            measured.latencies_ms.append(1000.0 * (end - begin))
            measured.stamps.append(end - started)
            self.join = join
            if end >= deadline:
                break
        measured.wall_s = end - started
        self._rss = peak_rss_mb()
        stats = join.last_stats
        measured.notes["pairs"] = stats.pairs
        return measured

    def check(self, measured: Measured) -> int:
        reference = PrefixFilterJoin(self.collection, scheme="uncomp").join(TAU)
        wrong = sum(1 for pairs in self.pairs if pairs != reference)
        small = tokenize_collection(
            self.strings[: min(self.brute_slice, self.cardinality)],
            mode="word",
        )
        joined = PositionFilterJoin(small, scheme="adapt").join(TAU)
        if joined != brute_similarity_join(small, TAU):
            wrong += 1
        return wrong

    def index_mb(self) -> float:
        return self.join.last_stats.index_mb

    def peak_rss_mb(self) -> float:
        return self._rss


#: batch_hot's corpus does not follow --seed (its queries do): MergeSkip's
#: batch cost is set by the few records with 3-5 distinct tokens, and their
#: number in a corpus this size swings the throughput by a fifth from one
#: corpus seed to the next (README, "Steadiness")
HOT_CORPUS_SEED = 7
#: batch_hot cycles a pool of this many batches (two cycles and a bit in 15
#: s) and each batch keeps its fastest time: a batch costs 25-200 ms
#: depending on its worst query, so rounds of different batches are not
#: alike and cannot tell a quiet second from an easy batch
HOT_POOL = 120


def make_workload(name: str, config: Config):
    if name == "batch_hot":
        # decode cache holds the whole vocabulary: compression is idle and
        # the batch kernel does the work; algorithm/kernel stay at the
        # engine defaults so a smarter default shows here
        return BatchWorkload(
            name,
            config,
            generator=tweet_like,
            cardinality=1_500,
            tokenize={"mode": "word"},
            engine={"cache_entries": 8192},
            pool=HOT_POOL,
            corpus_seed=HOT_CORPUS_SEED,
        )
    if name == "batch_cold":
        # the memory-minimal deployment: no decode cache, every batch
        # decodes from the compressed lists; ScanCount bypasses MergeSkip
        return BatchWorkload(
            name,
            config,
            generator=dblp_like,
            cardinality=6_000,
            tokenize={"mode": "qgram", "q": 3},
            engine={"algorithm": "scancount", "cache_entries": 0},
        )
    if name == "serve_http":
        return ServeWorkload(config)
    if name == "join_self":
        return JoinWorkload(config)
    raise ValueError(f"unknown workload {name!r}")
