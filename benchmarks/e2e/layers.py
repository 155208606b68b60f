"""The traced run: per-layer metrics and one waterfall per workload.

Timing is from outside, so the request path is *replayed stage by stage*
on a fixed sample of the workload's own operations, a span around each
call into a layer's public function.  Costs nested inside one another are
differences of medians between an outer call and the inner call it wraps.
Every staged replay must return the ids the engine returned, and every
waterfall is reconciled against an independent measurement of the whole:
``sum_of_stages / whole`` outside 0.85-1.15 (or a negative stage) flags
the waterfall ``unreconciled``.

A workload reports the layers it exercises; the rest read 0 for it.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import offline_factory, online_factory
from repro.engine import SimilarityEngine
from repro.join import PositionFilterJoin
from repro.join.base import processing_order
from repro.obs import enabled_metrics
from repro.search import JaccardSearcher
from repro.search.batchkernels import batch_candidates, decode_postings
from repro.search.result import SearchResult, SearchStats
from repro.serve import ServeApp
from repro.serve.coalescer import BatchKey
from repro.similarity.measures import (
    length_bounds,
    prefix_length,
    required_overlap,
)
from repro.similarity.verify import verify_overlap_from

from spans import SILENT, Recorder
from workloads import (
    BATCH,
    CLIENTS,
    REQUEST_TIMEOUT_S,
    TAU,
    BatchWorkload,
    JoinWorkload,
    ServeWorkload,
    client_streams,
    drive_clients,
    post_search,
    sampled,
)

RECONCILE_BAND = (0.85, 1.15)
SINGLE_QUERIES = 32  # sample for the batch-of-one / serial / single costs
LOWER_BOUND_CALLS = 2000
SERVE_PATHS = 5  # socket untraced, socket traced, asgi, coalescer, engine
SERVE_CHUNK = 500  # serve_http sample: queries per chunk, all paths
SERVE_CHUNKS = 10
SERVE_CHECKS = 300  # answers compared with in-process engine.search
EXPLICIT_BATCHES = 10
JOIN_CYCLES = (3, 30)  # at least, at most; as many as fit in JOIN_CYCLE_S
JOIN_CYCLE_S = 2.0


def waterfall(whole_ms: float, stages: Dict[str, float]) -> dict:
    total = sum(stages.values())
    ratio = total / whole_ms if whole_ms else 0.0
    reconciled = (
        RECONCILE_BAND[0] <= ratio <= RECONCILE_BAND[1]
        and min(stages.values()) >= 0.0
    )
    return {
        "whole_ms": whole_ms,
        "stages_ms": stages,
        "sum_over_whole": ratio,
        "reconciled": reconciled,
    }


def overhead_pct(with_it: float, without: float) -> float:
    return 100.0 * (with_it - without) / without if without else 0.0


# ---------------------------------------------------------------------- #
# batch_hot / batch_cold
# ---------------------------------------------------------------------- #
def plan_query(collection, query: str, encoded: np.ndarray, metric: str):
    """The count-filter plan of one query, from the public measures.

    ``None`` when the query provably has no answers; otherwise
    ``(token ids, low, high, signature size, T)``.
    """
    size = collection.signature_size(query)
    if size == 0:
        return None
    low, high = length_bounds(size, TAU, metric)
    needed = required_overlap(size, low, TAU, metric)
    if needed > encoded.size:
        return None
    return encoded, low, high, size, max(1, needed)


def replay_batch(
    engine: SimilarityEngine, batch: Sequence[str], recorder, op, parent
) -> List[Tuple[int, ...]]:
    """One ``search_batch`` re-done stage by stage through public calls."""
    index = engine.index
    collection = index.collection
    cache = engine.cache
    metric = engine.metric
    started = time.perf_counter()
    with recorder.span("similarity.encode_query", op, parent, len(batch)):
        encoded = [collection.encode_query(query) for query in batch]
    with recorder.span("engine.plan", op, parent, len(batch)):
        plans = [
            plan_query(collection, query, ids, metric)
            for query, ids in zip(batch, encoded)
        ]
        rows = [i for i, plan in enumerate(plans) if plan is not None]
    with recorder.span("search.posting_lists", op, parent, len(rows)):
        lists = [index.posting_lists(plans[i][0].tolist()) for i in rows]
    with recorder.span("engine.plan", op, parent, 0):
        # the per-query stats the engine's plan fills in
        stats = [
            SearchStats(
                lists_probed=len(row),
                postings_available=sum(len(lst) for lst in row),
                count_threshold=plans[i][4],
            )
            for i, row in zip(rows, lists)
        ]
    with recorder.span("search.decode_postings", op, parent, len(rows)):
        if cache is not None:
            lists = [[cache.wrap(lst) for lst in row] for row in lists]
        memo: dict = {}
        arrays = [decode_postings(row, cache, memo) for row in lists]
    with recorder.span("search.batch_candidates", op, parent, len(rows)):
        candidates = batch_candidates(
            engine.algorithm,
            arrays,
            [plans[i][4] for i in rows],
            len(collection),
        )
    verifications = 0
    answers: List[List[int]] = [[] for _ in batch]
    records = collection.records
    with recorder.span("similarity.verify_overlap_from", op, parent) as span:
        for row, found in zip(rows, candidates):
            query_ids, low, high, size, _ = plans[row]
            for candidate in [int(i) for i in found]:
                record = records[candidate]
                if not low <= record.size <= high:
                    continue
                needed = required_overlap(size, record.size, TAU, metric)
                verifications += 1
                if (
                    verify_overlap_from(query_ids, record, 0, 0, 0, needed)
                    >= needed
                ):
                    answers[row].append(candidate)
        span.count = verifications
    by_row = dict(zip(rows, stats))
    with recorder.span("engine.finish", op, parent, len(batch)):
        results = [
            SearchResult(
                query=query,
                threshold=TAU,
                ids=tuple(int(i) for i in ids),
                stats=by_row.get(row) or SearchStats(),
                seconds=time.perf_counter() - started,
            )
            for row, (query, ids) in enumerate(zip(batch, answers))
        ]
    return [result.ids for result in results]


#: the replay's stages, in request order; the first five are the named
#: layer metrics, plan/finish are the engine's own glue
BATCH_STAGES = (
    "similarity.encode_query",
    "engine.plan",
    "search.posting_lists",
    "search.decode_postings",
    "search.batch_candidates",
    "similarity.verify_overlap_from",
    "engine.finish",
)


def trace_batch(workload: BatchWorkload, recorder: Recorder):
    workload.setup(recorder)
    engine = workload.engine
    index = engine.index
    collection = index.collection
    sample = [next(workload.batches) for _ in range(workload.trace_batches)]
    metrics: Dict[str, float] = {}

    # steady state first: the timed run sees the sample's lists as often
    # as any others, so the replay and the whole call must meet one cache
    for batch in sample:
        engine.search_batch(batch, TAU, workers=1)

    # per batch, back to back (the host's speed drifts over seconds, so
    # what is compared must be adjacent in time): the whole call, the
    # staged replay with spans and without, the whole call with the
    # program's own metrics on
    mismatched = 0
    stats_candidates = stats_results = 0
    traced_wall = untraced_wall = 0.0
    cache = {"hits": 0, "misses": 0, "evictions": 0}  # over the whole calls
    for op, batch in enumerate(sample):
        before = engine.cache_stats()
        with recorder.span("engine.search_batch", op, None, len(batch)) as span:
            results = engine.search_batch(batch, TAU, workers=1)
        after = engine.cache_stats()
        for counter in cache:
            cache[counter] += after[counter] - before[counter]
        stats_candidates += sum(r.stats.candidates for r in results)
        stats_results += sum(r.stats.results for r in results)
        started = time.perf_counter()
        replayed = replay_batch(engine, batch, recorder, op, span.id)
        traced_wall += time.perf_counter() - started
        if replayed != [result.ids for result in results]:
            mismatched += 1
        started = time.perf_counter()
        replay_batch(engine, batch, SILENT, op, None)
        untraced_wall += time.perf_counter() - started
        with enabled_metrics():
            with recorder.span("engine.search_batch.metrics_on", op):
                engine.search_batch(batch, TAU, workers=1)

    def ms_per_query(name: str) -> float:
        return 1000.0 * recorder.median(name) / BATCH

    stages = {name: ms_per_query(name) for name in BATCH_STAGES}
    whole = ms_per_query("engine.search_batch")
    metrics["engine.batch_ms_per_query"] = whole
    metrics["similarity.encode_query_us"] = 1e6 * recorder.per_unit(
        "similarity.encode_query"
    )
    metrics["search.posting_lists_us_per_query"] = 1e6 * recorder.per_unit(
        "search.posting_lists"
    )
    metrics["search.decode_ms_per_query"] = stages["search.decode_postings"]
    metrics["search.kernel_ms_per_query"] = stages["search.batch_candidates"]
    metrics["similarity.verify_us_per_candidate"] = 1e6 * recorder.per_unit(
        "similarity.verify_overlap_from"
    )
    metrics["engine.self_ms_per_query"] = whole - sum(
        stages[name] for name in BATCH_STAGES if not name.startswith("engine.")
    )
    metrics["search.candidates_per_result"] = stats_candidates / max(
        1, stats_results
    )
    lookups = cache["hits"] + cache["misses"]
    if lookups:
        metrics["engine.cache_hit_ratio"] = cache["hits"] / lookups
    metrics["engine.cache_evictions"] = cache["evictions"]
    metrics["bench.span_overhead_pct"] = overhead_pct(traced_wall, untraced_wall)

    metrics["obs.metrics_overhead_pct"] = overhead_pct(
        recorder.median("engine.search_batch.metrics_on"),
        recorder.median("engine.search_batch"),
    )

    # one query at a time: kernel at batch 1, the serial oracle path, and
    # the engine's single-query call
    singles = [query for batch in sample for query in batch][:SINGLE_QUERIES]
    serial = JaccardSearcher(index, algorithm=engine.algorithm)
    postings = 0
    for op, query in enumerate(singles):
        plan = plan_query(
            collection, query, collection.encode_query(query), engine.metric
        )
        if plan is not None:
            lists = index.posting_lists(plan[0].tolist())
            postings += sum(len(lst) for lst in lists)
            arrays = decode_postings(lists, engine.cache, {})
            with recorder.span("search.batch_candidates.b1", op):
                batch_candidates(
                    engine.algorithm, [arrays], [plan[4]], len(collection)
                )
        with recorder.span("search.JaccardSearcher.search", op):
            serial.search(query, TAU)
        with recorder.span("engine.search", op):
            engine.search(query, TAU)
    metrics["search.postings_per_query"] = postings / len(singles)
    metrics["search.kernel_b1_ms_per_query"] = 1000.0 * recorder.median(
        "search.batch_candidates.b1"
    )
    metrics["search.serial_ms_per_query"] = 1000.0 * recorder.median(
        "search.JaccardSearcher.search"
    )
    metrics["engine.single_ms_per_query"] = 1000.0 * recorder.median(
        "engine.search"
    )

    metrics.update(trace_offline_codec(index, recorder, workload.config.seed))
    metrics["similarity.tokenize_corpus_s"] = recorder.total(
        "similarity.tokenize_collection"
    )
    metrics["search.index_build_s"] = recorder.total("search.InvertedIndex")
    return metrics, waterfall(whole, stages), mismatched


def trace_offline_codec(index, recorder: Recorder, seed: int) -> Dict[str, float]:
    """The ``css`` codec as a (bits/int, ns/int) point over every list."""
    lists = list(index.lists.values())
    postings = index.num_postings()
    with recorder.span("compression.to_array", "codec", None, postings):
        arrays = [lst.to_array() for lst in lists]
    factory = offline_factory("css")
    with recorder.span("compression.encode", "codec", None, postings):
        for values in arrays:
            factory(values)
    rng = np.random.default_rng(seed + 3)
    long_lists = [lst for lst in lists if len(lst) >= 64] or lists
    picks = rng.integers(0, len(long_lists), LOWER_BOUND_CALLS).tolist()
    keys = rng.integers(0, len(index.collection), LOWER_BOUND_CALLS).tolist()
    with recorder.span(
        "compression.lower_bound", "codec", None, LOWER_BOUND_CALLS
    ):
        for pick, key in zip(picks, keys):
            long_lists[pick].lower_bound(key)
    return {
        "compression.decode_ns_per_int": 1e9
        * recorder.per_unit("compression.to_array"),
        "compression.encode_ns_per_int": 1e9
        * recorder.per_unit("compression.encode"),
        "compression.bits_per_int": index.size_bits() / max(1, postings),
        "compression.lower_bound_ns": 1e9
        * recorder.per_unit("compression.lower_bound"),
    }


# ---------------------------------------------------------------------- #
# serve_http
# ---------------------------------------------------------------------- #
def socket_pass(port: int, queries, recorder: Recorder, name: str):
    """``queries[i]`` posted by client *i* over its keep-alive connection."""
    share = len(queries[0])
    return drive_clients(
        port,
        [iter(stream) for stream in queries],
        lambda sent: sent >= share,
        recorder,
        name,
    )


def threaded_pass(queries, call) -> None:
    """``call(client, query)`` from ``CLIENTS`` closed-loop threads."""
    errors: List[BaseException] = []

    def client(index: int) -> None:
        try:
            for query in queries[index]:
                call(index, query)
        # repro: noqa RA07 -- re-raised on the caller's thread below
        except Exception as error:
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(index,)) for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def asgi_search(app: ServeApp, loop, query: str) -> dict:
    """One ``POST /search`` handed straight to ``ServeApp.__call__``."""
    body = json.dumps({"query": query, "threshold": TAU}).encode()
    scope = {
        "type": "http",
        "asgi": {"version": "3.0"},
        "http_version": "1.1",
        "method": "POST",
        "scheme": "http",
        "path": "/search",
        "raw_path": b"/search",
        "query_string": b"",
        "headers": [(b"content-type", b"application/json")],
    }
    sent: List[dict] = []

    async def receive() -> dict:
        return {"type": "http.request", "body": body, "more_body": False}

    async def send(message: dict) -> None:
        sent.append(message)

    loop.run_until_complete(app(scope, receive, send))
    if sent[0]["status"] != 200:
        raise RuntimeError(f"in-process /search answered {sent[0]['status']}")
    return json.loads(sent[1]["body"])


def median_ms(recorder: Recorder, name: str) -> float:
    durations = recorder.durations(name)
    return 1000.0 * statistics.median(durations) if durations else 0.0


def trace_serve(workload: ServeWorkload, recorder: Recorder):
    config = workload.config
    metrics: Dict[str, float] = {}
    bundle = workload.build(recorder)
    index = workload.engine.index
    with recorder.span("storage.open", "setup"):
        opened = SimilarityEngine.open(bundle, mmap=True, algorithm="scancount")
    disk_bytes = sum(
        path.stat().st_size for path in Path(bundle).rglob("*") if path.is_file()
    )
    metrics["storage.save_s"] = recorder.total("storage.save")
    metrics["storage.open_mmap_s"] = recorder.total("storage.open")
    metrics["storage.disk_bytes_per_index_byte"] = disk_bytes / (
        index.size_bits() / 8
    )

    # the sample: the head of each client's timed stream, cut into chunks;
    # within a chunk every path gets its own fifth of the queries (rotated
    # from chunk to chunk), so each process meets a query once and no path
    # is flattered by the decode cache another path has just filled
    chunk = SERVE_CHUNK // CLIENTS
    chunks = max(2, int(SERVE_CHUNKS * min(1.0, 4 * config.scale)))
    streams = client_streams(workload.strings, config.seed)
    sample = [
        [[next(stream) for _ in range(chunk)] for stream in streams]
        for _ in range(chunks)
    ]
    flat = [query for part in sample for stream in part for query in stream]

    # the served stack twice over the same bundle — request tracing off
    # (the timed configuration) and on — plus the inner layers in process
    workload.server = workload.boot(bundle, recorder)
    metrics["serve.boot_s"] = recorder.total("serve.boot")
    sampled_server = workload.boot(bundle, SILENT, trace_sample=1.0)
    app = ServeApp(opened)  # the CLI's defaults: 2 ms window, max batch 64
    loops = [asyncio.new_event_loop() for _ in range(CLIENTS)]
    key = BatchKey(metric="jaccard", threshold=TAU)
    mismatched = 0
    whole_ms: List[float] = []
    sampled_ms: List[float] = []
    batch_sizes: List[int] = []
    answered: List[tuple] = []  # (query, ids) from every path

    def through_asgi(client: int, query: str) -> None:
        with recorder.span("serve.asgi", client):
            document = asgi_search(app, loops[client], query)
        answered.append((query, tuple(document["ids"])))

    def through_coalescer(client: int, query: str) -> None:
        with recorder.span("serve.coalescer", client):
            result, _ = app.coalescer.submit(query, key).result(
                timeout=REQUEST_TIMEOUT_S
            )
        answered.append((query, result.ids))

    try:
        workload.warm(workload.server)
        workload.warm(sampled_server)
        # the in-process engine is warmed by the servers' warm-up queries
        warm = client_streams(workload.strings, config.seed - 1)
        for stream in warm:
            opened.search_batch(
                [next(stream) for _ in range(workload.warmup_requests // CLIENTS)],
                TAU,
                workers=1,
            )
        app.coalescer.start()
        # chunk by chunk, every path back to back: the host's speed drifts
        # over seconds, so what is subtracted must be adjacent in time
        for turn, part in enumerate(sample):
            shares = [
                [stream[path::SERVE_PATHS] for stream in part]
                for path in range(SERVE_PATHS)
            ]
            shares = shares[turn % SERVE_PATHS :] + shares[: turn % SERVE_PATHS]
            port = workload.server.port
            untraced = socket_pass(port, shares[0], SILENT, "serve.socket")
            tracing = socket_pass(sampled_server.port, shares[0], SILENT, "")
            traced = socket_pass(port, shares[1], recorder, "serve.socket")
            mismatched += untraced.failed + traced.failed + tracing.failed
            whole_ms.extend(untraced.latencies_ms)
            sampled_ms.extend(tracing.latencies_ms)
            batch_sizes.extend(traced.batch_sizes)
            answered.extend(untraced.answers + tracing.answers + traced.answers)
            threaded_pass(shares[2], through_asgi)
            threaded_pass(shares[3], through_coalescer)
            size = max(1, round(statistics.fmean(batch_sizes)))
            queries = [query for stream in shares[4] for query in stream]
            for at in range(0, len(queries) - size + 1, size):
                group = queries[at : at + size]
                with recorder.span("serve.engine", "engine", None, size):
                    results = opened.search_batch(group, TAU, workers=1)
                answered.extend(
                    (query, result.ids) for query, result in zip(group, results)
                )

        # the same layer with the coalescing window bypassed
        connection = workload.server.connection()
        try:
            for op in range(EXPLICIT_BATCHES):
                explicit = flat[op * BATCH : (op + 1) * BATCH] or flat[:BATCH]
                with recorder.span(
                    "serve.explicit_batch", op, None, len(explicit)
                ):
                    status, _ = post_search(
                        connection, {"queries": explicit, "threshold": TAU}
                    )
                if status != 200:
                    mismatched += 1
        finally:
            connection.close()
        status, body = workload.server.get("/debug/vars")
        cache = json.loads(body)["cache"] if status == 200 else {}
    finally:
        sampled_server.stop()
        app.close()
        for loop in loops:
            loop.close()
        opened.close()
    # every path's answers against the in-process engine that was saved
    mismatched += sum(
        ids != workload.engine.search(query, TAU).ids
        for query, ids in sampled(answered, config.seed, SERVE_CHECKS)
    )

    whole = statistics.median(whole_ms)
    socket_ms = median_ms(recorder, "serve.socket")
    asgi_ms = median_ms(recorder, "serve.asgi")
    coalescer_ms = median_ms(recorder, "serve.coalescer")
    engine_ms = median_ms(recorder, "serve.engine")
    stages = {
        "serve.socket_ms": socket_ms - asgi_ms,
        "serve.app_ms": asgi_ms - coalescer_ms,
        "serve.queue_ms": coalescer_ms - engine_ms,
        "serve.engine_ms": engine_ms,
    }
    metrics.update(stages)
    metrics["serve.mean_batch_size"] = statistics.fmean(batch_sizes)
    metrics["serve.explicit_batch_ms_per_query"] = 1000.0 * recorder.per_unit(
        "serve.explicit_batch"
    )
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    metrics["engine.cache_hit_ratio"] = cache.get("hits", 0) / max(1, lookups)
    metrics["engine.cache_evictions"] = cache.get("evictions", 0)
    metrics["obs.trace_overhead_pct"] = overhead_pct(
        statistics.median(sampled_ms), whole
    )
    metrics["bench.span_overhead_pct"] = overhead_pct(socket_ms, whole)
    collection = index.collection
    with recorder.span("similarity.encode_query", "sample", None, len(flat)):
        for query in flat:
            collection.encode_query(query)
    metrics["similarity.encode_query_us"] = 1e6 * recorder.per_unit(
        "similarity.encode_query"
    )
    return metrics, waterfall(whole, stages), mismatched


# ---------------------------------------------------------------------- #
# join_self
# ---------------------------------------------------------------------- #
def prefix_streams(collection) -> List[List[int]]:
    """Per record, in processing order, the prefix tokens the join probes
    and then appends to — the join's own posting streams."""
    streams = []
    for original in processing_order(collection.lengths).tolist():
        record = collection.records[original]
        prefix = prefix_length(record.size, TAU)
        streams.append(record[:prefix].tolist())
    return streams


def replay_online_lists(
    streams, scheme: str, recorder: Recorder, op, probe: bool
) -> Tuple[int, int, int]:
    """The join's list traffic alone: ``append`` interleaved with
    ``to_array`` probes (or the appends only), then ``finalize``.

    Returns ``(ints appended, ints decoded, size bits)``.
    """
    factory = online_factory(scheme)
    lists: dict = {}
    appended = decoded = bits = 0
    name = f"compression.online.{scheme}.{'probe+append' if probe else 'append'}"
    with recorder.span(name, op) as span:
        for sid, tokens in enumerate(streams):
            if probe:
                for token in tokens:
                    posting = lists.get(token)
                    if posting is not None:
                        decoded += len(posting.to_array())
            for token in tokens:
                posting = lists.get(token)
                if posting is None:
                    posting = lists[token] = factory()
                posting.append(sid)
            appended += len(tokens)
        for posting in lists.values():
            posting.finalize()
            bits += posting.size_bits()
        span.count = decoded if probe else appended
    return appended, decoded, bits


def trace_join(workload: JoinWorkload, recorder: Recorder):
    workload.setup(recorder)
    collection = workload.collection
    metrics: Dict[str, float] = {}
    streams = prefix_streams(collection)
    mismatched = 0
    untraced_s: List[float] = []
    # each cycle runs everything that is compared back to back (the host's
    # speed drifts over seconds); the numbers are medians over the cycles
    started = time.perf_counter()
    cycle = 0
    while cycle < JOIN_CYCLES[0] or (
        cycle < JOIN_CYCLES[1] and time.perf_counter() - started < JOIN_CYCLE_S
    ):
        cycle += 1
        answers = {}
        for scheme in ("adapt", "uncomp"):
            join = PositionFilterJoin(collection, scheme=scheme)
            with recorder.span(f"join.join.{scheme}", cycle, None, len(collection)):
                answers[scheme] = join.join(TAU)
            if scheme == "adapt":
                stats = join.last_stats
        mismatched += int(answers["adapt"] != answers["uncomp"])
        appended, _, bits = replay_online_lists(
            streams, "adapt", recorder, cycle, probe=False
        )
        _, decoded, _ = replay_online_lists(
            streams, "adapt", recorder, cycle, probe=True
        )
        begin = time.perf_counter()
        replay_online_lists(streams, "adapt", SILENT, cycle, probe=True)
        untraced_s.append(time.perf_counter() - begin)
        replay_online_lists(streams, "uncomp", recorder, cycle, probe=True)

    wall = recorder.median("join.join.adapt")
    uncomp_wall = recorder.median("join.join.uncomp")
    append_s = recorder.median("compression.online.adapt.append")
    adapt_s = recorder.median("compression.online.adapt.probe+append")
    uncomp_s = recorder.median("compression.online.uncomp.probe+append")
    metrics["join.wall_s"] = wall
    metrics["join.uncomp_wall_s"] = uncomp_wall
    metrics["join.compression_overhead_pct"] = overhead_pct(wall, uncomp_wall)
    metrics["join.candidates_per_pair"] = stats.candidates / max(1, stats.pairs)
    metrics["join.verifications_per_pair"] = stats.verifications / max(
        1, stats.pairs
    )
    metrics["compression.online_append_ns_per_int"] = 1e9 * append_s / max(
        1, appended
    )
    metrics["compression.online_decode_ns_per_int"] = (
        1e9 * (adapt_s - append_s) / max(1, decoded)
    )
    metrics["compression.online_bits_per_int"] = bits / max(1, appended)
    metrics["bench.span_overhead_pct"] = overhead_pct(
        adapt_s, statistics.median(untraced_s)
    )

    # verification on the join's own records: every answer pair (a full
    # merge) and, for each, its left record against the next record in
    # processing order (the early-terminating common case)
    records = collection.records
    order = processing_order(collection.lengths).tolist()
    rank = {original: position for position, original in enumerate(order)}
    pairs = list(answers["adapt"])
    pairs += [
        (a, order[min(rank[a] + 1, len(order) - 1)]) for a, _ in answers["adapt"]
    ]
    with recorder.span(
        "similarity.verify_overlap_from", "sample", None, max(1, len(pairs))
    ):
        for a, b in pairs:
            needed = required_overlap(records[a].size, records[b].size, TAU)
            verify_overlap_from(records[a], records[b], 0, 0, 0, needed)
    metrics["similarity.verify_us_per_candidate"] = 1e6 * recorder.per_unit(
        "similarity.verify_overlap_from"
    )
    metrics["similarity.tokenize_corpus_s"] = recorder.total(
        "similarity.tokenize_collection"
    )

    # predicted compressed join = uncompressed join + what the online
    # codec adds to the list traffic alone, measured outside the join
    stages = {
        "join.uncomp_wall": 1000.0 * uncomp_wall,
        "compression.online_extra": 1000.0 * (adapt_s - uncomp_s),
    }
    return metrics, waterfall(1000.0 * wall, stages), mismatched


def trace_workload(workload, recorder: Recorder):
    """``(per-layer metrics, waterfall, mismatches)`` of one workload."""
    if isinstance(workload, BatchWorkload):
        return trace_batch(workload, recorder)
    if isinstance(workload, ServeWorkload):
        return trace_serve(workload, recorder)
    return trace_join(workload, recorder)
