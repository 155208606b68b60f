"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def corpus(tmp_path, word_strings):
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(word_strings) + "\n", encoding="utf-8")
    return str(path)


class TestGenerate:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "tweets.txt"
        assert main(["generate", "tweet", str(out), "--cardinality", "50"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 50
        assert "wrote 50 records" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "wikipedia", str(tmp_path / "x.txt")])


class TestStats:
    def test_prints_all_schemes(self, corpus, capsys):
        assert main(["stats", corpus]) == 0
        out = capsys.readouterr().out
        for scheme in ("uncomp", "pfordelta", "milc", "css"):
            assert scheme in out

    def test_scheme_subset(self, corpus, capsys):
        assert main(["stats", corpus, "--schemes", "css"]) == 0
        out = capsys.readouterr().out
        assert "css" in out and "milc" not in out

    def test_qgram_mode(self, corpus, capsys):
        assert main(["stats", corpus, "--mode", "qgram", "--q", "2"]) == 0
        assert "distinct signatures" in capsys.readouterr().out


class TestIndexAndSearch:
    def test_index_then_search_with_persisted_index(
        self, corpus, tmp_path, word_strings, capsys
    ):
        index_path = str(tmp_path / "idx.bundle")
        assert main(["index", corpus, index_path, "--scheme", "css"]) == 0
        assert "saved to" in capsys.readouterr().out

        query = word_strings[0]
        assert (
            main(
                [
                    "search", corpus, query,
                    "--threshold", "1.0",
                    "--load-index", index_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[0]" in out

    def test_search_without_index(self, corpus, word_strings, capsys):
        assert (
            main(["search", corpus, word_strings[3], "--threshold", "0.9"])
            == 0
        )
        assert "hits in" in capsys.readouterr().out

    def test_edit_distance_search(self, tmp_path, capsys):
        path = tmp_path / "words.txt"
        path.write_text("hello\nhallo\nworld\n", encoding="utf-8")
        assert (
            main(
                [
                    "search", str(path), "hellp",
                    "--metric", "ed", "--threshold", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[0] hello" in out
        assert "world" not in out


class TestLegacyNpzRejected:
    """The ``.npz`` format is gone: every subcommand that takes a bundle
    fails once, with one message naming the rebuild command, exit code 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "CORPUS", "NPZ"],
            ["search", "CORPUS", "tok0", "--load-index", "NPZ"],
            ["serve", "NPZ"],
            ["compact", "NPZ"],
            ["check", "NPZ"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_npz_path_rejected(self, corpus, tmp_path, capsys, argv):
        npz = tmp_path / "idx.npz"
        npz.write_bytes(b"PK")  # exists or not, the answer is the same
        swap = {"CORPUS": corpus, "NPZ": str(npz)}
        assert main([swap.get(arg, arg) for arg in argv]) == 2
        out = capsys.readouterr().out
        assert "legacy .npz format was removed" in out
        assert "repro index CORPUS OUT" in out
        assert npz.read_bytes() == b"PK"  # `index` did not write into it

    def test_missing_bundle_directory_rejected(self, corpus, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert main(["search", corpus, "q", "--load-index", missing]) == 2
        assert main(["check", missing]) == 2
        assert "not an index bundle directory" in capsys.readouterr().out


class TestMmapFailFast:
    """``--mmap`` only works on ``--load-index`` bundle directories; misuse
    must fail fast with an error naming the `repro index` command."""

    def test_mmap_without_load_index_rejected(self, corpus, capsys):
        assert main(["search", corpus, "tok0", "--mmap"]) == 2
        out = capsys.readouterr().out
        assert "--load-index" in out
        assert "repro index" in out

    def test_mmap_with_bundle_directory_accepted(
        self, corpus, tmp_path, capsys
    ):
        bundle = str(tmp_path / "bundle.out")
        assert main(["index", corpus, bundle]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "search", corpus, "tok0",
                    "--threshold", "0.5",
                    "--load-index", bundle,
                    "--mmap",
                ]
            )
            == 0
        )
        assert "hits in" in capsys.readouterr().out


class TestServeCommand:
    """The serve command's argument surface and boot paths (the server
    loop itself is monkeypatched out — the HTTP stack has its own tests
    in test_serve.py)."""

    @pytest.fixture
    def served_app(self, monkeypatch):
        """Capture the app `repro serve` would run instead of serving."""
        import repro.serve.server as server_module

        captured = []
        monkeypatch.setattr(
            server_module, "run", lambda app, host, port: captured.append(app)
        )
        return captured

    def test_serves_a_bundle_with_knobs(
        self, corpus, tmp_path, served_app, capsys
    ):
        bundle = str(tmp_path / "bundle.out")
        assert main(["index", corpus, bundle]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "serve", bundle,
                    "--mmap",
                    "--batch-window-ms", "5",
                    "--max-batch", "7",
                ]
            )
            == 0
        )
        assert "serving" in capsys.readouterr().out
        (app,) = served_app
        assert app.window_ms == 5.0
        assert app.max_batch == 7
        assert str(app.bundle_path) == bundle

    def test_serves_a_corpus_file(self, corpus, served_app, capsys):
        assert main(["serve", corpus]) == 0
        (app,) = served_app
        assert type(app.engine).__name__ == "SimilarityEngine"
        assert app.bundle_path is None

    def test_mmap_needs_a_bundle(self, corpus, served_app, capsys):
        assert main(["serve", corpus, "--mmap"]) == 2
        assert "repro index" in capsys.readouterr().out


class TestThresholdValidation:
    """Edit-distance thresholds are integer edit counts — a fractional
    value must be rejected loudly, never silently truncated."""

    def test_fractional_ed_threshold_rejected(self, tmp_path, capsys):
        path = tmp_path / "words.txt"
        path.write_text("hello\nhallo\n", encoding="utf-8")
        assert (
            main(
                [
                    "search", str(path), "hellp",
                    "--metric", "ed", "--threshold", "1.9",
                ]
            )
            == 2
        )
        out = capsys.readouterr().out
        assert "integral" in out and "1.9" in out

    def test_integral_float_ed_threshold_accepted(self, tmp_path, capsys):
        path = tmp_path / "words.txt"
        path.write_text("hello\nhallo\n", encoding="utf-8")
        assert (
            main(
                [
                    "search", str(path), "hellp",
                    "--metric", "ed", "--threshold", "1.0",
                ]
            )
            == 0
        )
        assert "[0] hello" in capsys.readouterr().out

    def test_fractional_segment_join_threshold_rejected(
        self, tmp_path, capsys
    ):
        path = tmp_path / "words.txt"
        path.write_text("cat\ncut\ndog\n", encoding="utf-8")
        assert (
            main(
                [
                    "join", str(path),
                    "--filter", "segment",
                    "--threshold", "2.5",
                ]
            )
            == 2
        )
        assert "integral" in capsys.readouterr().out


class TestBlankLines:
    def test_ids_keep_matching_line_numbers(self, tmp_path, capsys):
        path = tmp_path / "gappy.txt"
        path.write_text("alpha beta\n\nalpha beta\n", encoding="utf-8")
        assert (
            main(["search", str(path), "alpha beta", "--threshold", "1.0"])
            == 0
        )
        captured = capsys.readouterr()
        # record 1 is the blank line; hits sit at their source line numbers
        assert "[0]" in captured.out
        assert "[2]" in captured.out
        assert "blank line(s) kept as empty records" in captured.err

    def test_no_warning_without_blanks(self, corpus, word_strings, capsys):
        assert (
            main(["search", corpus, word_strings[0], "--threshold", "0.9"])
            == 0
        )
        assert "blank line" not in capsys.readouterr().err


class TestBatchSearch:
    @pytest.fixture
    def queries_file(self, tmp_path, word_strings):
        path = tmp_path / "queries.txt"
        path.write_text("\n".join(word_strings[:12]) + "\n", encoding="utf-8")
        return str(path)

    def test_batch_mode_output(self, corpus, queries_file, capsys):
        assert (
            main(
                [
                    "search", corpus,
                    "--queries-file", queries_file,
                    "--threshold", "1.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # one line per query, positionally numbered, plus a summary
        for position in range(12):
            assert f"[{position}] " in out
        assert "12 queries," in out
        assert "workers=1" in out

    def test_batch_mode_with_workers(self, corpus, queries_file, capsys):
        assert (
            main(
                [
                    "search", corpus,
                    "--queries-file", queries_file,
                    "--threshold", "1.0",
                    "--workers", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "12 queries," in out
        assert "workers=2" in out

    def test_workers_match_serial_hits(self, corpus, queries_file, capsys):
        def hit_lines(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if line.startswith("[")]

        base = ["search", corpus, "--queries-file", queries_file,
                "--threshold", "0.8"]
        assert hit_lines(base + ["--workers", "2"]) == hit_lines(base)

    def test_query_and_file_both_given_rejected(
        self, corpus, queries_file, capsys
    ):
        assert (
            main(
                [
                    "search", corpus, "some query",
                    "--queries-file", queries_file,
                ]
            )
            == 2
        )
        assert "exactly one" in capsys.readouterr().out

    def test_neither_query_nor_file_rejected(self, corpus, capsys):
        assert main(["search", corpus]) == 2
        assert "exactly one" in capsys.readouterr().out

    def test_batch_profile_includes_cache_stats(
        self, corpus, queries_file, tmp_path, capsys
    ):
        import json

        profile_path = tmp_path / "batch.json"
        assert (
            main(
                [
                    "search", corpus,
                    "--queries-file", queries_file,
                    "--threshold", "0.8",
                    "--profile", str(profile_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        report = json.loads(profile_path.read_text())
        assert report["meta"]["workers"] == 1
        assert report["counters"]["search.queries"] == 12
        cache = report["meta"]["cache"]
        assert cache["misses"] >= 0 and "hits" in cache


class TestCheck:
    def test_healthy_index_passes(self, corpus, tmp_path, capsys):
        index_path = str(tmp_path / "i.bundle")
        main(["index", corpus, index_path, "--scheme", "css"])
        capsys.readouterr()
        assert main(["check", index_path]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_corrupted_index_fails(self, corpus, tmp_path, capsys):
        import numpy as np

        index_path = tmp_path / "i.bundle"
        main(["index", corpus, str(index_path), "--scheme", "milc"])
        capsys.readouterr()
        widths = np.load(index_path / "widths.npy")
        np.save(index_path / "widths.npy", widths + 40)  # every delta width
        assert main(["check", str(index_path)]) == 1
        assert "violations" in capsys.readouterr().out


@pytest.fixture
def two_section_report(monkeypatch):
    """`repro report` over two of its 18 sections (the full grid is the
    benchmarks' job, and takes most of a minute even at small scale)."""
    from repro.bench import EXPERIMENTS

    cheap = {name: EXPERIMENTS[name] for name in ("Table 7.2", "Table 7.3")}
    monkeypatch.setattr("repro.bench.report.EXPERIMENTS", cheap)


class TestReport:
    def test_report_written(self, tmp_path, capsys, two_section_report):
        out = tmp_path / "report.md"
        assert (
            main(
                [
                    "report", "-o", str(out),
                    "--scale", "0.03", "--queries", "3",
                ]
            )
            == 0
        )
        text = out.read_text()
        assert "# CSS reproduction report" in text
        assert "Table 7.2" in text
        assert "Table 7.3" in text
        assert "paper css" in text
        assert text.index("## Table 7.2") < text.index("## Table 7.3")


class TestProfile:
    def test_search_profile_written_to_file(
        self, corpus, tmp_path, word_strings, capsys
    ):
        import json

        profile_path = tmp_path / "profile.json"
        assert (
            main(
                [
                    "search", corpus, word_strings[0],
                    "--threshold", "0.8",
                    "--profile", str(profile_path),
                ]
            )
            == 0
        )
        assert "profile written to" in capsys.readouterr().out
        report = json.loads(profile_path.read_text())
        from repro.obs import PROFILE_SCHEMA

        assert report["schema"] == PROFILE_SCHEMA
        assert report["meta"]["command"] == "search"
        assert report["meta"]["corpus"] == corpus
        # acceptance-criteria metrics are always present
        for counter in (
            "twolayer.blocks_decoded",
            "twolayer.elements_decoded",
            "cursor.seeks",
            "online.seals",
        ):
            assert counter in report["counters"]
        assert report["counters"]["search.queries"] == 1
        assert "index.build" in report["timers"]
        assert "search.filter" in report["timers"]
        assert "search.verify" in report["timers"]

    def test_join_profile_to_stdout(self, corpus, capsys):
        import json

        assert (
            main(
                [
                    "join", corpus,
                    "--filter", "prefix",
                    "--threshold", "0.9",
                    "--show", "0",
                    "--profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        start = out.index('{')
        report = json.loads(out[start:])
        assert report["meta"]["command"] == "join"
        assert report["counters"]["join.runs"] == 1
        assert report["counters"]["online.seals"] > 0
        assert "join.probe" in report["timers"]
        assert "join.finalize" in report["timers"]

    def test_stats_profile(self, corpus, tmp_path, capsys):
        import json

        profile_path = tmp_path / "stats.json"
        assert (
            main(
                [
                    "stats", corpus, "--schemes", "css",
                    "--profile", str(profile_path),
                ]
            )
            == 0
        )
        report = json.loads(profile_path.read_text())
        assert report["meta"]["command"] == "stats"
        assert report["counters"]["index.lists_built"] > 0

    def test_profile_off_by_default(self, corpus, word_strings):
        from repro.obs import METRICS

        assert (
            main(["search", corpus, word_strings[0], "--threshold", "0.9"])
            == 0
        )
        assert not METRICS.enabled

    def test_batch_profile_with_workers_reports_worker_counters(
        self, corpus, tmp_path, word_strings, capsys, two_usable_cpus
    ):
        """Regression: worker-side counters used to read 0 under --workers N
        because the forked workers' registries were never folded back."""
        import json

        queries_file = tmp_path / "queries.txt"
        queries_file.write_text("\n".join(word_strings[:12]) + "\n")
        profile_path = tmp_path / "workers.json"
        assert (
            main(
                [
                    "search", corpus,
                    "--queries-file", str(queries_file),
                    "--threshold", "0.8",
                    "--workers", "2",
                    "--profile", str(profile_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        report = json.loads(profile_path.read_text())
        assert report["meta"]["workers"] == 2
        # recorded inside the pool workers, visible in the parent profile
        assert report["counters"]["search.queries"] == 12
        assert report["counters"]["engine.batch.worker_chunks"] > 0
        # the batch kernels open one search.filter span per chunk (not per
        # query), so the count lands between 1 and the query count
        assert 1 <= report["timers"]["search.filter"]["count"] <= 12

    def test_report_with_profile_section(self, tmp_path, two_section_report):
        out = tmp_path / "report.md"
        assert (
            main(
                [
                    "report", "-o", str(out),
                    "--scale", "0.03", "--queries", "2",
                    "--profile",
                ]
            )
            == 0
        )
        text = out.read_text()
        assert "## Instrumentation" in text
        assert "counter" in text


class TestJoin:
    @pytest.mark.parametrize("filter_name", ["count", "prefix", "position"])
    def test_token_joins(self, corpus, filter_name, capsys):
        assert (
            main(
                [
                    "join", corpus,
                    "--filter", filter_name,
                    "--threshold", "0.9",
                    "--show", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pairs in" in out

    def test_segment_join(self, tmp_path, capsys):
        path = tmp_path / "words.txt"
        path.write_text("cat\ncut\ndog\n", encoding="utf-8")
        assert (
            main(
                [
                    "join", str(path),
                    "--filter", "segment",
                    "--threshold", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 pairs" in out
        assert "cat" in out and "cut" in out


class TestTraceFlag:
    @pytest.fixture
    def queries_file(self, tmp_path, word_strings):
        path = tmp_path / "queries.txt"
        path.write_text("\n".join(word_strings[:12]) + "\n", encoding="utf-8")
        return str(path)

    def test_search_trace_written(
        self, corpus, word_strings, tmp_path, capsys
    ):
        from repro.obs import TRACER, load_traces

        trace_path = tmp_path / "traces.jsonl"
        assert (
            main(
                [
                    "search", corpus, word_strings[0],
                    "--threshold", "0.8",
                    "--trace", str(trace_path),
                ]
            )
            == 0
        )
        assert "1 trace(s) written to" in capsys.readouterr().out
        (document,) = load_traces(trace_path)
        assert document["name"] == "search"
        assert document["meta"]["query"] == word_strings[0]
        assert len(document["spans"]) > 1
        assert not TRACER.enabled  # switched back off after the command

    def test_batch_trace_with_workers(
        self, corpus, queries_file, tmp_path, capsys, two_usable_cpus
    ):
        from repro.obs import load_traces

        trace_path = tmp_path / "traces.jsonl"
        assert (
            main(
                [
                    "search", corpus,
                    "--queries-file", queries_file,
                    "--threshold", "0.8",
                    "--workers", "2",
                    "--trace", str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        traces = load_traces(trace_path)
        # one trace for the engine call, plus one per chunk a worker
        # answered, shipped back with the chunk
        assert len(traces) > 2
        assert all(t["name"] == "engine.batch" for t in traces)
        sizes = sorted(t["meta"]["queries"] for t in traces)
        assert sizes[-1] == 12  # the engine call's own trace
        assert sum(sizes[:-1]) == 12  # the chunks cover the batch

    def test_trace_sampling(self, corpus, queries_file, tmp_path, capsys):
        from repro.obs import load_traces

        trace_path = tmp_path / "traces.jsonl"
        assert (
            main(
                [
                    "search", corpus,
                    "--queries-file", queries_file,
                    "--threshold", "0.8",
                    "--trace", str(trace_path),
                    "--trace-sample", "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # the rate samples engine calls, and the batch is one call: at
        # 0.5 the first call is sampled out (the sampler keeps every 2nd)
        assert load_traces(trace_path) == []
        assert "0 trace(s) written" in out
        assert "(1 sampled out)" in out

    def test_invalid_sample_rate_rejected(
        self, corpus, word_strings, capsys
    ):
        assert (
            main(
                [
                    "search", corpus, word_strings[0],
                    "--threshold", "0.8",
                    "--trace", "unused.jsonl",
                    "--trace-sample", "1.5",
                ]
            )
            == 0  # search still runs, tracing is refused with a message
        )
        assert "--trace-sample must be in [0, 1]" in capsys.readouterr().out

    def test_slow_queries_reported_on_stderr(
        self, corpus, word_strings, capsys
    ):
        assert (
            main(
                [
                    "search", corpus, word_strings[0],
                    "--threshold", "0.8",
                    "--slow-ms", "0",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "slow query (" in err
        assert ">= 0.0 ms" in err

    def test_join_trace_written(self, corpus, tmp_path, capsys):
        from repro.obs import load_traces

        trace_path = tmp_path / "join.jsonl"
        assert (
            main(
                [
                    "join", corpus,
                    "--filter", "prefix",
                    "--threshold", "0.9",
                    "--show", "0",
                    "--trace", str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        (document,) = load_traces(trace_path)
        assert document["name"] == "join"
        assert document["meta"]["filter"] == "PrefixFilterJoin"


class TestStatsTelemetry:
    """`repro stats` dispatches on content: profile JSON, trace JSONL, corpus."""

    @pytest.fixture
    def profile_path(self, corpus, word_strings, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert (
            main(
                [
                    "search", corpus, word_strings[0],
                    "--threshold", "0.8",
                    "--profile", str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return str(path)

    @pytest.fixture
    def trace_path(self, corpus, word_strings, tmp_path, capsys):
        path = tmp_path / "traces.jsonl"
        assert (
            main(
                [
                    "search", corpus, word_strings[0],
                    "--threshold", "0.8",
                    "--trace", str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return str(path)

    def test_profile_renders_prometheus_by_default(
        self, profile_path, capsys
    ):
        assert main(["stats", profile_path]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_search_queries counter" in out
        assert "repro_search_queries_total 1" in out
        assert "repro_search_filter_seconds_sum" in out

    def test_profile_check_passes(self, profile_path, capsys):
        from repro.obs import PROFILE_SCHEMA

        assert main(["stats", profile_path, "--check"]) == 0
        assert f"profile ok: schema {PROFILE_SCHEMA}" in capsys.readouterr().err

    def test_profile_check_fails_on_stale_schema(self, tmp_path, capsys):
        import json

        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"schema": "repro.obs/v0", "meta": {}}))
        assert main(["stats", str(path), "--check"]) == 1
        assert "invalid profile document" in capsys.readouterr().out

    def test_profile_markdown_and_json_formats(self, profile_path, capsys):
        import json

        assert main(["stats", profile_path, "--format", "markdown"]) == 0
        assert "## Instrumentation" in capsys.readouterr().out
        assert main(["stats", profile_path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["counters"]["search.queries"] == 1

    def test_trace_renders_tree(self, trace_path, word_strings, capsys):
        assert main(["stats", trace_path]) == 0
        captured = capsys.readouterr()
        assert "search (" in captured.out
        assert "└─" in captured.out
        assert "1 trace(s), 0 slow" in captured.err

    def test_trace_json_format(self, trace_path, capsys):
        import json

        assert main(["stats", trace_path, "--format", "json"]) == 0
        (document,) = json.loads(capsys.readouterr().out)
        assert document["name"] == "search"

    def test_unrecognized_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"neither": "profile nor trace"}\n')
        assert main(["stats", str(path)]) == 2
        assert "neither a profile document" in capsys.readouterr().out

    def test_telemetry_formats_require_telemetry_input(self, corpus, capsys):
        assert main(["stats", corpus, "--format", "prometheus"]) == 2
        assert "requires a profile/trace input" in capsys.readouterr().out

    def test_corpus_table_still_works(self, corpus, capsys):
        assert main(["stats", corpus, "--schemes", "css"]) == 0
        assert "css" in capsys.readouterr().out


class TestTopCommand:
    """`repro top` — the /metrics dashboard (file mode and live polling)."""

    @staticmethod
    def _exposition():
        from repro.obs import to_prometheus
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        registry.inc("serve.requests", 12)
        registry.inc("serve.batches", 3)
        registry.inc("serve.route.search.requests", 12)
        registry.inc("serve.route.search.status_200", 11)
        registry.inc("serve.route.search.status_500", 1)
        for value in (2.0, 3.0, 40.0):
            registry.observe("serve.route.search.latency_ms", value)
        registry.set_gauge("serve.queue.depth", 4)
        registry.set_gauge("serve.uptime_seconds", 90)
        return to_prometheus(registry)

    def test_renders_a_saved_exposition_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        path.write_text(self._exposition())
        assert main(["top", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "12 requests in 3 batches (ratio 4.00)" in out
        assert "queue 4" in out
        line = next(l for l in out.splitlines() if l.strip().startswith("search"))
        assert "12" in line  # request total
        assert "1" in line  # the 5xx count
        # log2 buckets: 2,3 land in le=3 (p50), 40 in le=63 (p99)
        assert "3" in line.split()[-2]
        assert "63" in line.split()[-1]

    def test_missing_target_is_an_error(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope.prom")]) == 2
        assert "neither" in capsys.readouterr().out

    def test_polls_a_live_server(self, word_strings, capsys):
        import json as _json
        import urllib.request

        from repro.engine import SimilarityEngine
        from repro.serve import ServeApp
        from repro.serve.server import ServerThread
        from repro.similarity import tokenize_collection

        engine = SimilarityEngine(tokenize_collection(word_strings))
        app = ServeApp(engine, window_ms=1.0)
        try:
            with ServerThread(app) as server:
                request = urllib.request.Request(
                    f"{server.url}/search",
                    data=_json.dumps(
                        {"query": word_strings[0], "threshold": 0.5}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                urllib.request.urlopen(request, timeout=10).read()
                assert (
                    main(
                        ["top", server.url, "--count", "2",
                         "--interval", "0.05"]
                    )
                    == 0
                )
            out = capsys.readouterr().out
            assert out.count("repro top") == 2  # two frames
            assert "coalescing:" in out
            assert "search" in out
        finally:
            app.close()
            engine.close()

    def test_unreachable_server_fails_cleanly(self, capsys):
        assert main(["top", "http://127.0.0.1:9", "--count", "1"]) == 1
        assert "cannot scrape" in capsys.readouterr().out
