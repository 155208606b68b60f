"""Tests for per-query trace trees and the obs exporters.

Covers the Tracer in isolation (span trees, sampling policy, slow-query
log, bounded buffers, drain/ingest), its integration with the registry's
``span()`` and with the real searchers/joins, and the export surfaces
(Prometheus text exposition, JSONL trace dumps, ascii tree rendering).
"""

import json

import pytest

from repro.obs import (
    METRICS,
    MetricsRegistry,
    TRACER,
    Tracer,
    dump_traces,
    load_traces,
    render_trace_tree,
    to_prometheus,
    traces_to_jsonl,
)


@pytest.fixture
def tracer():
    """An isolated, enabled tracer (the global one is left alone)."""
    return Tracer().configure(enabled=True)


@pytest.fixture
def global_tracer():
    """The module-global TRACER, enabled for one test and fully restored."""
    TRACER.configure(enabled=True, sample_rate=1.0, slow_ms=None)
    TRACER.clear()
    try:
        yield TRACER
    finally:
        TRACER.configure(enabled=False, sample_rate=1.0, slow_ms=None)
        TRACER.clear()


class TestTracerCore:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()  # disabled by default
        with tracer.trace("query"):
            with tracer.span("stage"):
                pass
        assert list(tracer.buffer) == []
        assert tracer.dropped == 0
        assert not tracer.is_tracing()

    def test_root_trace_document_shape(self, tracer):
        with tracer.trace("search", query="abc", threshold=0.8):
            pass
        (document,) = tracer.drain()
        assert document["name"] == "search"
        assert document["meta"] == {"query": "abc", "threshold": 0.8}
        assert document["seconds"] >= 0
        assert "-" in document["trace_id"]  # "<pid hex>-<sequence>"
        root = document["spans"][0]
        assert root["id"] == 1
        assert root["parent"] is None
        assert root["name"] == "search"

    def test_span_ids_form_a_tree(self, tracer):
        with tracer.trace("query"):
            with tracer.span("filter"):
                with tracer.span("decode"):
                    pass
            with tracer.span("verify"):
                pass
        (document,) = tracer.drain()
        by_name = {span["name"]: span for span in document["spans"]}
        assert by_name["filter"]["parent"] == 1
        assert by_name["decode"]["parent"] == by_name["filter"]["id"]
        assert by_name["verify"]["parent"] == 1
        ids = [span["id"] for span in document["spans"]]
        assert len(ids) == len(set(ids))

    def test_nested_trace_becomes_child_span(self, tracer):
        with tracer.trace("outer"):
            with tracer.trace("inner", ignored="meta"):
                pass
        (document,) = tracer.drain()
        # one trace, not two; "inner" is a child span of the root
        assert document["name"] == "outer"
        by_name = {span["name"]: span for span in document["spans"]}
        assert by_name["inner"]["parent"] == 1

    def test_annotate_merges_into_active_meta(self, tracer):
        with tracer.trace("query", threshold=0.8):
            tracer.annotate(candidates=12, results=3)
        (document,) = tracer.drain()
        assert document["meta"] == {
            "threshold": 0.8,
            "candidates": 12,
            "results": 3,
        }

    def test_annotate_and_span_are_noops_without_active_trace(self, tracer):
        tracer.annotate(orphan=True)
        with tracer.span("orphan"):
            pass
        assert tracer.drain() == []

    def test_registry_span_feeds_active_trace(self, tracer):
        registry = MetricsRegistry(enabled=True, tracer=tracer)
        with tracer.trace("query"):
            with registry.span("search.filter"):
                pass
        (document,) = tracer.drain()
        names = [span["name"] for span in document["spans"]]
        assert "search.filter" in names
        # the same enter/exit also fed the timer
        assert registry.timers["search.filter"][1] == 1

    def test_registry_span_traces_even_with_metrics_disabled(self, tracer):
        registry = MetricsRegistry(enabled=False, tracer=tracer)
        with tracer.trace("query"):
            with registry.span("search.filter"):
                pass
        (document,) = tracer.drain()
        assert any(
            span["name"] == "search.filter" for span in document["spans"]
        )
        assert registry.timers == {}  # metrics stayed off


class TestSamplingPolicy:
    def _run(self, tracer, count):
        for _ in range(count):
            with tracer.trace("query"):
                pass

    def test_rate_keeps_exact_fraction(self, tracer):
        tracer.configure(sample_rate=0.5)
        self._run(tracer, 10)
        assert len(tracer.buffer) == 5
        assert tracer.dropped == 5

    def test_rate_one_keeps_everything(self, tracer):
        self._run(tracer, 7)
        assert len(tracer.buffer) == 7
        assert tracer.dropped == 0

    def test_rate_zero_keeps_nothing(self, tracer):
        tracer.configure(sample_rate=0.0)
        self._run(tracer, 5)
        assert len(tracer.buffer) == 0
        assert tracer.dropped == 5

    def test_tenth_rate_keeps_every_tenth(self, tracer):
        tracer.configure(sample_rate=0.1)
        self._run(tracer, 30)
        assert len(tracer.buffer) == 3

    def test_invalid_rate_rejected(self, tracer):
        with pytest.raises(ValueError):
            tracer.configure(sample_rate=1.5)

    def test_slow_trace_sampled_even_at_rate_zero(self, tracer):
        tracer.configure(sample_rate=0.0, slow_ms=0.0)  # everything is slow
        self._run(tracer, 3)
        assert len(tracer.buffer) == 3
        assert len(tracer.slow_log) == 3
        assert all(document["slow"] for document in tracer.buffer)
        assert tracer.dropped == 0

    def test_fast_trace_not_marked_slow(self, tracer):
        tracer.configure(slow_ms=60_000.0)
        self._run(tracer, 2)
        assert len(tracer.slow_log) == 0
        assert all("slow" not in document for document in tracer.buffer)

    def test_buffer_is_bounded(self, tracer):
        tracer.configure(buffer_size=4)
        self._run(tracer, 10)
        assert len(tracer.buffer) == 4
        assert tracer.buffer.maxlen == 4

    def test_clear_resets_buffers_and_accumulator(self, tracer):
        tracer.configure(sample_rate=0.5, slow_ms=0.0)
        self._run(tracer, 4)
        tracer.clear()
        assert len(tracer.buffer) == 0
        assert len(tracer.slow_log) == 0
        assert tracer.dropped == 0


class TestDrainIngest:
    def test_drain_clears_buffer_keeps_slow_log(self, tracer):
        tracer.configure(slow_ms=0.0)
        with tracer.trace("query"):
            pass
        documents = tracer.drain()
        assert len(documents) == 1
        assert len(tracer.buffer) == 0
        assert len(tracer.slow_log) == 1  # slow log survives the drain

    def test_ingest_adopts_worker_documents(self, tracer):
        worker = Tracer().configure(enabled=True, slow_ms=0.0)
        with worker.trace("query", worker=True):
            pass
        shipped = worker.drain()
        tracer.ingest(shipped)
        assert list(tracer.buffer) == shipped
        assert list(tracer.slow_log) == shipped  # slow docs re-enter the log

    def test_ingest_none_and_empty_are_noops(self, tracer):
        tracer.ingest(None)
        tracer.ingest([])
        assert len(tracer.buffer) == 0

    def test_ingested_documents_survive_json_roundtrip(self, tracer):
        worker = Tracer().configure(enabled=True)
        with worker.trace("query"):
            with worker.span("stage"):
                pass
        shipped = json.loads(json.dumps(worker.drain()))
        tracer.ingest(shipped)
        (document,) = tracer.drain()
        assert document["spans"][1]["name"] == "stage"

    def test_documents_carry_absolute_start(self, tracer):
        import time

        before = time.perf_counter()
        with tracer.trace("query"):
            pass
        after = time.perf_counter()
        (document,) = tracer.drain()
        assert before <= document["started_s"] <= after

    def test_ingest_merges_by_start_time_not_arrival_order(self, tracer):
        # regression: worker chunks drain in completion order, which
        # interleaves across workers — newest-wins eviction must follow
        # the traces' actual start times, not the order they arrived in
        tracer.configure(slow_log_size=3, buffer_size=3)

        def _doc(started):
            return {
                "trace_id": f"t{started}",
                "name": "query",
                "started_s": float(started),
                "seconds": 0.001,
                "slow": True,
                "spans": [],
            }

        # worker A's chunk (late traces) arrives before worker B's
        # (early traces); a plain append loop would evict A's — the
        # genuinely newest — in favour of B's older ones
        tracer.ingest([_doc(10), _doc(11), _doc(12)])
        tracer.ingest([_doc(1), _doc(2), _doc(3)])
        kept = [d["started_s"] for d in tracer.slow_log]
        assert kept == [10.0, 11.0, 12.0]
        assert [d["started_s"] for d in tracer.buffer] == [10.0, 11.0, 12.0]

    def test_ingest_keeps_newest_across_retained_and_incoming(self, tracer):
        tracer.configure(slow_log_size=4)
        for started in (5, 7):
            tracer.ingest(
                [
                    {
                        "trace_id": f"r{started}",
                        "started_s": float(started),
                        "slow": True,
                        "spans": [],
                    }
                ]
            )
        tracer.ingest(
            [
                {
                    "trace_id": f"i{started}",
                    "started_s": float(started),
                    "slow": True,
                    "spans": [],
                }
                for started in (6, 8, 9)
            ]
        )
        kept = [d["started_s"] for d in tracer.slow_log]
        assert kept == [6.0, 7.0, 8.0, 9.0]  # merged, oldest (5) evicted

    def test_ingest_documents_without_start_sort_oldest(self, tracer):
        tracer.configure(slow_log_size=2)
        legacy = {"trace_id": "legacy", "slow": True, "spans": []}
        modern = [
            {
                "trace_id": f"m{started}",
                "started_s": float(started),
                "slow": True,
                "spans": [],
            }
            for started in (1, 2)
        ]
        tracer.ingest([legacy])
        tracer.ingest(modern)
        assert [d["trace_id"] for d in tracer.slow_log] == ["m1", "m2"]

    def test_configure_resizes_slow_log(self, tracer):
        tracer.configure(slow_ms=0.0, slow_log_size=2)
        for _ in range(4):
            with tracer.trace("query"):
                pass
        assert len(tracer.slow_log) == 2
        assert tracer.slow_log.maxlen == 2


class TestPrometheusExport:
    def test_counters_timers_histograms(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("twolayer.blocks_decoded", 3)
        registry.record_time("search.filter", 0.5)
        for value in (1, 2, 3):
            registry.observe("search.candidates", value)
        text = to_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE repro_twolayer_blocks_decoded counter" in lines
        assert "repro_twolayer_blocks_decoded_total 3" in lines
        assert "# TYPE repro_search_filter_seconds summary" in lines
        assert "repro_search_filter_seconds_sum 0.5" in lines
        assert "repro_search_filter_seconds_count 1" in lines
        assert "# TYPE repro_search_candidates histogram" in lines
        # cumulative log2 buckets: nothing <= 0, one <= 1, all three <= 3
        assert 'repro_search_candidates_bucket{le="0"} 0' in lines
        assert 'repro_search_candidates_bucket{le="1"} 1' in lines
        assert 'repro_search_candidates_bucket{le="3"} 3' in lines
        assert 'repro_search_candidates_bucket{le="+Inf"} 3' in lines
        assert "repro_search_candidates_sum 6.0" in lines
        assert "repro_search_candidates_count 3" in lines

    def test_output_is_sorted_and_deterministic(self):
        first = MetricsRegistry(enabled=True)
        first.inc("zeta.ops", 1)
        first.inc("alpha.ops", 2)
        second = MetricsRegistry(enabled=True)
        second.inc("alpha.ops", 2)
        second.inc("zeta.ops", 1)
        text = to_prometheus(first)
        assert text == to_prometheus(second)
        assert text.index("alpha_ops") < text.index("zeta_ops")

    def test_metric_names_are_sanitized(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("engine.shard-0.hits/misses", 1)
        text = to_prometheus(registry)
        assert "repro_engine_shard_0_hits_misses_total 1" in text

    def test_profile_document_source_degrades_summary_histograms(self):
        # a profile document carries summary-form histograms (no buckets);
        # the exporter falls back to a summary metric instead of guessing
        registry = MetricsRegistry(enabled=True)
        registry.inc("cursor.seeks", 7)
        registry.observe("search.candidates", 4)
        from repro.obs import profile_report

        document = profile_report(registry=registry)
        text = to_prometheus(document)
        assert "repro_cursor_seeks_total 7" in text
        assert "# TYPE repro_search_candidates summary" in text
        assert "repro_search_candidates_count 1" in text
        assert "_bucket" not in text

    def test_empty_source_renders_empty(self):
        assert to_prometheus(MetricsRegistry(enabled=True)) == ""


class TestTraceExport:
    def _trace_document(self, slow=False):
        tracer = Tracer().configure(
            enabled=True, slow_ms=0.0 if slow else None
        )
        with tracer.trace("search", query="abc"):
            with tracer.span("search.filter"):
                pass
        return tracer.drain()[0]

    def test_jsonl_roundtrip(self, tmp_path):
        documents = [self._trace_document(), self._trace_document(slow=True)]
        path = tmp_path / "traces.jsonl"
        assert dump_traces(documents, path) == 2
        loaded = load_traces(path)
        assert loaded == json.loads(json.dumps(documents))
        assert loaded[1]["slow"] is True

    def test_jsonl_is_one_object_per_line_sorted_keys(self):
        text = traces_to_jsonl([self._trace_document()])
        (line,) = text.strip().splitlines()
        document = json.loads(line)
        assert list(document) == sorted(document)

    def test_load_rejects_bad_json_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace_id": "a-1", "spans": []}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_traces(path)

    def test_load_rejects_non_trace_objects(self, tmp_path):
        path = tmp_path / "profile.jsonl"
        path.write_text('{"schema": "repro.obs/v2"}\n')
        with pytest.raises(ValueError, match="trace_id"):
            load_traces(path)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"trace_id": "a-1"}\n\n{"trace_id": "a-2"}\n')
        assert [t["trace_id"] for t in load_traces(path)] == ["a-1", "a-2"]

    def test_render_trace_tree(self):
        document = self._trace_document()
        rendered = render_trace_tree(document)
        lines = rendered.splitlines()
        assert document["trace_id"] in lines[0]
        assert "search (" in lines[0]
        assert "query='abc'" in lines[0]
        assert lines[1].startswith("  └─ search.filter")

    def test_render_marks_slow_traces(self):
        rendered = render_trace_tree(self._trace_document(slow=True))
        assert "SLOW" in rendered.splitlines()[0]


class TestSearchAndJoinIntegration:
    def test_search_yields_annotated_span_tree(
        self, word_collection, global_tracer
    ):
        from repro.search import InvertedIndex, JaccardSearcher

        index = InvertedIndex(word_collection, scheme="css")
        searcher = JaccardSearcher(index, algorithm="mergeskip")
        results = searcher.search(word_collection.strings[0], 0.6)
        assert results  # the query string itself always matches
        (document,) = global_tracer.drain()
        assert document["name"] == "search"
        assert document["meta"]["query"] == word_collection.strings[0]
        assert document["meta"]["threshold"] == 0.6
        # base._finish annotated outcome counts onto the trace
        assert document["meta"]["results"] == len(results)
        assert document["meta"]["candidates"] >= len(results)
        names = {span["name"] for span in document["spans"]}
        assert {"search.filter", "search.verify"} <= names

    def test_search_traces_without_metrics_enabled(
        self, word_collection, global_tracer
    ):
        from repro.search import InvertedIndex, JaccardSearcher

        assert not METRICS.enabled
        counters_before = dict(METRICS.counters)
        index = InvertedIndex(word_collection, scheme="css")
        JaccardSearcher(index).search(word_collection.strings[0], 0.6)
        (document,) = global_tracer.drain()
        assert len(document["spans"]) > 1
        # tracing never turned metrics on: nothing new was recorded
        assert METRICS.counters == counters_before

    def test_cross_process_slow_log_is_ordered_and_newest(
        self, word_collection, global_tracer, two_usable_cpus
    ):
        # regression: slow traces drained from pool workers arrive in
        # chunk-completion order, which interleaves across workers; the
        # bounded slow log must still hold the genuinely newest slow
        # traces in start order, not whatever arrived last
        from repro.engine import SimilarityEngine

        queries = word_collection.strings[:48]
        global_tracer.configure(
            sample_rate=0.0, slow_ms=0.0, slow_log_size=4
        )
        try:
            with SimilarityEngine(word_collection, scheme="css") as engine:
                engine.search_batch(queries, 0.6, workers=2)
            log = list(global_tracer.slow_log)
            documents = global_tracer.drain()  # every slow doc (buffer)
        finally:
            global_tracer.configure(slow_log_size=64)
        # slow_ms=0: all are slow — the engine call's trace and one per
        # worker chunk (8 chunks of 6)
        assert len(documents) == 9
        assert len(log) == 4
        # the engine call's own trace finishes after its chunks, so it is
        # admitted last; before it, the newest chunks in start order
        *chunk_log, call = log
        assert call["meta"]["queries"] == len(queries)
        chunks = [d for d in documents if d["meta"]["queries"] < len(queries)]
        starts = [document["started_s"] for document in chunk_log]
        assert starts == sorted(starts)
        newest = sorted(chunks, key=lambda d: d["started_s"])[-3:]
        assert [d["trace_id"] for d in chunk_log] == [
            d["trace_id"] for d in newest
        ]

    def test_join_yields_one_trace_per_run(
        self, word_collection, global_tracer
    ):
        from repro.join import PrefixFilterJoin

        PrefixFilterJoin(word_collection, scheme="adapt").join(0.8)
        (document,) = global_tracer.drain()
        assert document["name"] == "join"
        assert document["meta"]["filter"] == "PrefixFilterJoin"
        assert document["meta"]["threshold"] == 0.8
        names = {span["name"] for span in document["spans"]}
        assert "join.finalize" in names


class TestExternalDocumentSurface:
    """offer()/recent()/context.document — the serving
    layer's tracer surface (request documents are synthesized outside the
    thread-local machinery and handed back in)."""

    def test_context_document_is_kept_even_when_sampled_out(self):
        tracer = Tracer().configure(enabled=True, sample_rate=0.0)
        context = tracer.trace("serve.batch", requests=3)
        with context:
            with tracer.span("serve.execute"):
                pass
        assert tracer.drain() == []  # sampled out of the buffer...
        document = context.document  # ...but the caller still gets the tree
        assert document is not None
        assert document["name"] == "serve.batch"
        assert [span["name"] for span in document["spans"]] == [
            "serve.batch",
            "serve.execute",
        ]

    def test_offer_respects_enabled_and_sampling(self):
        disabled = Tracer()
        assert disabled.offer({"name": "x", "seconds": 0.0}) is False
        assert list(disabled.buffer) == []

        tracer = Tracer().configure(enabled=True, sample_rate=1.0)
        assert tracer.offer({"name": "x", "seconds": 0.0}) is True
        assert [document["name"] for document in tracer.buffer] == ["x"]

    def test_offer_marks_slow_documents(self):
        tracer = Tracer().configure(
            enabled=True, sample_rate=0.0, slow_ms=10.0
        )
        assert tracer.offer({"name": "fast", "seconds": 0.001}) is False
        assert tracer.offer({"name": "slow", "seconds": 0.5}) is True
        (document,) = tracer.slow_log
        assert document["name"] == "slow"
        assert document["slow"] is True

    def test_recent_peeks_without_draining(self, tracer):
        for index in range(5):
            with tracer.trace(f"t{index}"):
                pass
        newest = tracer.recent(2)
        assert [document["name"] for document in newest] == ["t3", "t4"]
        assert tracer.recent(0) == []
        assert len(tracer.drain()) == 5  # recent() consumed nothing


class TestBatchKernelUnderActiveTrace:
    """Trace granularity is one document per engine call: inside an
    already-active trace the batch path's spans join the caller's tree
    (one batched search.filter span), and with a bare enabled tracer each
    ``engine.search`` / ``engine.search_batch`` call is a root trace."""

    def test_kernel_path_kept_inside_active_trace(self, word_collection):
        from repro.search import InvertedIndex, JaccardSearcher

        index = InvertedIndex(word_collection, scheme="css")
        searcher = JaccardSearcher(index, algorithm="mergeskip")
        queries = list(word_collection.strings[:6])
        tracer = TRACER
        tracer.configure(enabled=True, sample_rate=1.0, slow_ms=None)
        tracer.clear()
        try:
            context = tracer.trace("serve.batch", requests=len(queries))
            with context:
                batched = searcher.search_many_batched(queries, 0.5)
            document = context.document
            names = [span["name"] for span in document["spans"]]
            # exactly one batched filter stage, not one per query
            assert names.count("search.filter") == 1
            assert names.count("search.verify") == len(queries)
            # and only the one batch trace was recorded
            assert len(tracer.drain()) == 1
        finally:
            tracer.configure(enabled=False, sample_rate=1.0, slow_ms=None)
            tracer.clear()
        for query, result in zip(queries, batched):
            assert list(result) == list(searcher.search(query, 0.5))

    def test_bare_enabled_tracer_still_traces_per_query(
        self, word_collection, global_tracer
    ):
        from repro.engine import SimilarityEngine

        engine = SimilarityEngine(word_collection, scheme="css")
        queries = list(word_collection.strings[:4])
        for query in queries:
            engine.search(query, 0.5)
        documents = global_tracer.drain()
        assert len(documents) == len(queries)  # one root trace per call
        for query, document in zip(queries, documents):
            assert document["name"] == "search"
            assert document["meta"]["query"] == query
            assert document["meta"]["threshold"] == 0.5
            names = [span["name"] for span in document["spans"]]
            assert names.count("search.filter") == 1

    def test_bare_enabled_tracer_traces_a_batch_as_one_call(
        self, word_collection, global_tracer
    ):
        from repro.engine import SimilarityEngine

        engine = SimilarityEngine(word_collection, scheme="css")
        queries = list(word_collection.strings[:6])
        engine.search_batch(queries, 0.5)
        (document,) = global_tracer.drain()
        assert document["name"] == "engine.batch"
        assert document["meta"]["queries"] == len(queries)
        names = [span["name"] for span in document["spans"]]
        assert names.count("search.filter") == 1
        assert names.count("search.verify") == len(queries)


class TestStageSumsReconcile:
    """ROADMAP aim 4: the system's own spans must explain the wall-clock of
    the request they belong to.  Over 100+ traced requests through the
    in-process ASGI app, the children of ``serve.request`` (queue + batch +
    demux) and of ``engine.batch.kernel`` (plan + filter + verifies) each
    sum to their parent within the band the e2e waterfall uses."""

    def test_children_sum_to_their_parent(self, word_strings):
        import asyncio
        import statistics

        from repro.engine import SimilarityEngine
        from repro.serve import ServeApp
        from repro.similarity import tokenize_collection

        async def post(app, query):
            body = json.dumps({"query": query, "threshold": 0.5}).encode()
            scope = {
                "type": "http",
                "method": "POST",
                "path": "/search",
                "headers": [],
            }
            sent = []

            async def receive():
                return {"type": "http.request", "body": body, "more_body": False}

            async def send(message):
                sent.append(message)

            await app(scope, receive, send)
            assert sent[0]["status"] == 200

        async def waves(app):
            for wave in range(26):  # 4 concurrent requests per wave
                picks = [
                    word_strings[(4 * wave + i) % len(word_strings)]
                    for i in range(4)
                ]
                await asyncio.gather(*(post(app, query) for query in picks))

        engine = SimilarityEngine(tokenize_collection(word_strings))
        app = ServeApp(engine, trace_sample=1.0)
        TRACER.clear()
        try:
            asyncio.run(waves(app))
            documents = [
                document
                for document in TRACER.drain()
                if document["name"] == "serve.request"
            ]
        finally:
            app.close()
            engine.close()
            TRACER.configure(enabled=False, sample_rate=1.0, slow_ms=None)
            TRACER.clear()
        assert len(documents) >= 100

        def family(document, parent_name):
            spans = document["spans"]
            (parent,) = [s for s in spans if s["name"] == parent_name]
            return parent, [s for s in spans if s["parent"] == parent["id"]]

        def median_ratio(parent_name):
            return statistics.median(
                sum(child["ms"] for child in children) / parent["ms"]
                for parent, children in (
                    family(document, parent_name) for document in documents
                )
            )

        assert 0.85 <= median_ratio("serve.request") <= 1.15
        assert 0.85 <= median_ratio("engine.batch.kernel") <= 1.15
        _, stages = family(documents[0], "engine.batch.kernel")
        assert {stage["name"] for stage in stages} == {
            "search.plan",
            "search.filter",
            "search.verify",
        }

    @staticmethod
    def _children_ratio(document):
        root, *rest = document["spans"]
        children = [span for span in rest if span["parent"] == root["id"]]
        return (
            {span["name"] for span in children},
            sum(span["ms"] for span in children) / root["ms"],
        )

    def test_self_join_stages_sum_to_the_join(self, global_tracer):
        # the join the benchmark times: Algorithm 1's skeleton opens one
        # join.probe span for every filter, so the trace has its stages
        from repro.datasets.text import tweet_like
        from repro.join import PositionFilterJoin
        from repro.similarity import tokenize_collection

        collection = tokenize_collection(tweet_like(600, 3))
        PositionFilterJoin(collection, scheme="adapt").join(0.8)
        (document,) = global_tracer.drain()
        names, ratio = self._children_ratio(document)
        assert names == {"join.probe", "join.finalize"}
        assert len(document["spans"]) == 3  # one span per stage, none per record
        assert 0.85 <= ratio <= 1.15

    def test_grouped_search_has_the_searchers_stages(
        self, word_collection, global_tracer
    ):
        from repro.search import GroupedJaccardSearcher, LengthGroupedIndex

        searcher = GroupedJaccardSearcher(LengthGroupedIndex(word_collection))
        searcher.search(word_collection.strings[0], 0.6)
        (document,) = global_tracer.drain()
        assert document["name"] == "search.grouped"
        names, _ = self._children_ratio(document)
        assert names == {"search.filter", "search.verify"}
