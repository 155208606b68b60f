"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.obs import (
    METRICS,
    Histogram,
    MetricsRegistry,
    dump_profile,
    enabled_metrics,
    get_metrics,
    profile_report,
    profile_to_markdown,
    validate_profile,
    PROFILE_SCHEMA,
)
from repro.obs.report import CORE_COUNTERS


def _observe_all(values):
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestMetricsRegistry:
    def test_disabled_by_default_and_noops(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.record_time("b", 1.0)
        registry.observe("c", 5)
        assert registry.counters == {}
        assert registry.timers == {}
        assert registry.histograms == {}

    def test_counters_accumulate(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("x")
        registry.inc("x", 9)
        assert registry.counter("x") == 10
        assert registry.counter("never") == 0

    def test_timers_accumulate_seconds_and_counts(self):
        registry = MetricsRegistry(enabled=True)
        registry.record_time("stage", 0.25)
        registry.record_time("stage", 0.75)
        assert registry.timer_seconds("stage") == pytest.approx(1.0)
        assert registry.timers["stage"][1] == 2

    def test_span_measures_wall_time(self):
        registry = MetricsRegistry(enabled=True)
        with registry.span("work"):
            sum(range(1000))
        assert registry.timer_seconds("work") > 0
        assert registry.timers["work"][1] == 1

    def test_disabled_span_is_shared_noop(self):
        registry = MetricsRegistry(enabled=False)
        first = registry.span("a")
        second = registry.span("b")
        assert first is second  # one reusable null object, no allocation
        with first:
            pass
        assert registry.timers == {}

    def test_reset_keeps_enable_switch(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("x")
        registry.reset()
        assert registry.enabled
        assert registry.counters == {}

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("c", 3)
        registry.record_time("t", 0.5)
        registry.observe("h", 7)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["counters"] == {"c": 3}
        assert snapshot["timers"]["t"]["count"] == 1
        assert snapshot["histograms"]["h"]["count"] == 1


class TestHistogram:
    def test_moments(self):
        histogram = Histogram()
        for value in (1, 2, 3, 10):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(4.0)
        assert histogram.min == 1
        assert histogram.max == 10

    def test_quantile_bounds(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(value)
        # log2 buckets give an upper bound within a factor of two
        assert 50 <= histogram.quantile(0.5) <= 127
        assert histogram.quantile(1.0) <= 2 * histogram.max

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0}

    def test_summary_caps_quantiles_at_max(self):
        histogram = Histogram()
        histogram.observe(5)
        summary = histogram.summary()
        assert summary["p50"] <= summary["max"]
        assert summary["p99"] <= summary["max"]

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestHistogramEdgeCases:
    def test_zero_and_negative_samples_land_in_bucket_zero(self):
        histogram = _observe_all([0, -3, -0.5])
        state = histogram.state()
        assert state["buckets"] == [3]  # everything in bucket 0
        assert histogram.min == -3
        assert histogram.max == 0
        assert histogram.count == 3

    def test_fractional_sample_below_one_lands_in_bucket_zero(self):
        assert _observe_all([0.5]).state()["buckets"] == [1]

    def test_single_sample_variance_is_zero(self):
        histogram = _observe_all([7])
        assert histogram.variance == 0.0
        assert histogram.summary()["std"] == 0.0
        assert histogram.mean == 7.0

    def test_variance_matches_population_variance(self):
        values = [2, 4, 4, 4, 5, 5, 7, 9]  # classic example: variance 4
        histogram = _observe_all(values)
        assert histogram.variance == pytest.approx(4.0)
        assert histogram.summary()["std"] == pytest.approx(2.0)

    def test_log2_bucket_boundaries(self):
        # bucket b holds values v with int(v).bit_length() == b:
        # 0 -> bucket 0, 1 -> 1, [2,4) -> 2, [4,8) -> 3, [8,16) -> 4 ...
        histogram = _observe_all([0, 1, 2, 3, 4, 7, 8, 15, 16])
        assert histogram.state()["buckets"] == [1, 1, 2, 2, 2, 1]

    def test_huge_sample_clamps_to_last_bucket(self):
        state = _observe_all([2**80]).state()
        assert len(state["buckets"]) == 64
        assert state["buckets"][63] == 1

    def test_empty_state_roundtrip(self):
        state = Histogram().state()
        assert state == {
            "count": 0,
            "total": 0.0,
            "sumsq": 0.0,
            "min": None,
            "max": None,
            "buckets": [],
        }
        restored = Histogram.from_state(state)
        assert restored.count == 0
        assert restored.state() == state


class TestHistogramMerge:
    def test_merge_equals_observing_all_samples(self):
        left = _observe_all([1, 2, 3])
        right = _observe_all([10, 200])
        combined = _observe_all([1, 2, 3, 10, 200])
        assert left.merge(right).state() == combined.state()

    def test_merge_is_associative_and_commutative(self):
        streams = ([0, 1, 5], [63, 64, -2], [1000])
        # (a + b) + c
        left = _observe_all(streams[0])
        left.merge(_observe_all(streams[1]))
        left.merge(_observe_all(streams[2]))
        # a + (b + c)
        tail = _observe_all(streams[1]).merge(_observe_all(streams[2]))
        right = _observe_all(streams[0]).merge(tail)
        # c + b + a
        backwards = _observe_all(streams[2])
        backwards.merge(_observe_all(streams[1]))
        backwards.merge(_observe_all(streams[0]))
        expected = _observe_all(streams[0] + streams[1] + streams[2]).state()
        assert left.state() == expected
        assert right.state() == expected
        assert backwards.state() == expected

    def test_merge_empty_is_identity(self):
        histogram = _observe_all([4, 5])
        before = histogram.state()
        histogram.merge(Histogram())
        histogram.merge(Histogram().state())
        assert histogram.state() == before

    def test_merge_state_survives_json_roundtrip(self):
        shipped = json.loads(json.dumps(_observe_all([3, 9]).state()))
        parent = _observe_all([1])
        parent.merge(shipped)
        assert parent.state() == _observe_all([1, 3, 9]).state()

    def test_merge_rejects_oversized_bucket_state(self):
        bad = _observe_all([1]).state()
        bad["buckets"] = [0] * 65
        with pytest.raises(ValueError, match="buckets"):
            Histogram().merge(bad)


class TestRegistryMerge:
    def _worker_registry(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("twolayer.blocks_decoded", 5)
        registry.record_time("search.filter", 0.25)
        registry.observe("search.candidates", 12)
        registry.observe("search.candidates", 40)
        return registry

    def test_merge_registry_sums_everything(self):
        parent = self._worker_registry()
        parent.merge(self._worker_registry())
        assert parent.counter("twolayer.blocks_decoded") == 10
        assert parent.timer_seconds("search.filter") == pytest.approx(0.5)
        assert parent.timers["search.filter"][1] == 2
        assert parent.histograms["search.candidates"].count == 4

    def test_merge_full_snapshot_after_json_roundtrip(self):
        delta = json.loads(
            json.dumps(self._worker_registry().snapshot(full=True))
        )
        parent = MetricsRegistry(enabled=True)
        parent.merge(delta)
        assert parent.snapshot(full=True) == self._worker_registry().snapshot(
            full=True
        )

    def test_merge_applies_even_while_disabled(self):
        # aggregation is explicit, not hot-path recording: a parent whose
        # registry was switched off mid-run still folds worker deltas
        parent = MetricsRegistry(enabled=False)
        parent.merge(self._worker_registry())
        assert parent.counter("twolayer.blocks_decoded") == 5

    def test_merge_none_is_noop(self):
        parent = self._worker_registry()
        before = parent.snapshot(full=True)
        parent.merge(None)
        assert parent.snapshot(full=True) == before

    def test_merge_rejects_summary_histograms(self):
        summary_snapshot = self._worker_registry().snapshot(full=False)
        with pytest.raises(ValueError, match="snapshot"):
            MetricsRegistry(enabled=True).merge(summary_snapshot)

    def test_full_snapshot_is_lossless_and_sorted(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("zeta")
        registry.inc("alpha")
        registry.observe("h", 9)
        snapshot = registry.snapshot(full=True)
        assert list(snapshot["counters"]) == ["alpha", "zeta"]
        assert snapshot["histograms"]["h"]["buckets"] == [0, 0, 0, 0, 1]
        json.dumps(snapshot)  # must not raise


class TestEnabledMetrics:
    def test_enables_resets_and_restores(self):
        assert not METRICS.enabled
        METRICS.enabled = True
        METRICS.inc("leftover")
        try:
            with enabled_metrics() as registry:
                assert registry is METRICS
                assert registry.enabled
                assert registry.counter("leftover") == 0  # reset on enter
                registry.inc("inside")
            assert METRICS.enabled  # prior state restored
        finally:
            METRICS.enabled = False
            METRICS.reset()

    def test_restores_disabled_state(self):
        with enabled_metrics():
            pass
        assert not METRICS.enabled

    def test_global_singleton_accessor(self):
        assert get_metrics() is METRICS


class TestProfileReport:
    def test_schema_meta_and_core_counters(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("twolayer.blocks_decoded", 4)
        report = profile_report(meta={"command": "test"}, registry=registry)
        assert report["schema"] == PROFILE_SCHEMA
        assert report["meta"] == {"command": "test"}
        assert report["counters"]["twolayer.blocks_decoded"] == 4
        # every core counter is present even when nothing recorded it
        for name in CORE_COUNTERS:
            assert name in report["counters"]

    def test_dump_profile_writes_json(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.inc("x")
        report = profile_report(registry=registry)
        path = tmp_path / "profile.json"
        text = dump_profile(report, path)
        assert json.loads(path.read_text())["counters"]["x"] == 1
        assert json.loads(text) == json.loads(path.read_text())

    def test_dump_profile_stdout_sentinel_writes_nothing(self, tmp_path):
        report = profile_report(registry=MetricsRegistry(enabled=True))
        text = dump_profile(report, "-")
        assert json.loads(text)["schema"] == PROFILE_SCHEMA
        assert list(tmp_path.iterdir()) == []

    def test_markdown_rendering(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("twolayer.blocks_decoded", 12)
        registry.record_time("search.filter", 0.02)
        registry.observe("online.seal_occupancy", 64)
        report = profile_report(meta={"command": "x"}, registry=registry)
        markdown = profile_to_markdown(report)
        assert "## Instrumentation" in markdown
        assert "twolayer.blocks_decoded" in markdown
        assert "search.filter" in markdown
        assert "online.seal_occupancy" in markdown

    def test_markdown_names_schema_and_sorts_rows(self):
        report = {
            "schema": PROFILE_SCHEMA,
            "meta": {"scheme": "css", "command": "search"},
            "counters": {"zeta.ops": 2, "alpha.ops": 1},
            "timers": {
                "z.stage": {"seconds": 0.5, "count": 1},
                "a.stage": {"seconds": 0.25, "count": 2},
            },
            "histograms": {},
        }
        markdown = profile_to_markdown(report)
        assert f"schema {PROFILE_SCHEMA}" in markdown
        # meta keys and table rows render in sorted order regardless of
        # insertion order, so identical runs diff clean
        assert markdown.index("command=search") < markdown.index("scheme=css")
        assert markdown.index("alpha.ops") < markdown.index("zeta.ops")
        assert markdown.index("a.stage") < markdown.index("z.stage")
        shuffled = {
            **report,
            "meta": {"command": "search", "scheme": "css"},
            "counters": {"alpha.ops": 1, "zeta.ops": 2},
        }
        assert profile_to_markdown(shuffled) == markdown


class TestValidateProfile:
    def _valid(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("twolayer.blocks_decoded", 3)
        registry.record_time("search.filter", 0.1)
        registry.observe("search.candidates", 4)
        return profile_report(meta={"command": "t"}, registry=registry)

    def test_accepts_real_report_even_after_json_roundtrip(self):
        report = self._valid()
        assert validate_profile(report) is report
        validate_profile(json.loads(json.dumps(report)))

    def test_rejects_schema_mismatch(self):
        report = self._valid()
        report["schema"] = "repro.obs/v1"
        with pytest.raises(ValueError, match="schema mismatch"):
            validate_profile(report)

    def test_rejects_non_integer_and_boolean_counters(self):
        report = self._valid()
        report["counters"]["cursor.seeks"] = 1.5
        with pytest.raises(ValueError, match="integer"):
            validate_profile(report)
        report["counters"]["cursor.seeks"] = True
        with pytest.raises(ValueError, match="integer"):
            validate_profile(report)

    def test_rejects_missing_core_counter(self):
        report = self._valid()
        del report["counters"]["online.seals"]
        with pytest.raises(ValueError, match="online.seals"):
            validate_profile(report)

    def test_rejects_unsorted_counters(self):
        report = self._valid()
        items = list(report["counters"].items())
        report["counters"] = dict(reversed(items))
        with pytest.raises(ValueError, match="sorted"):
            validate_profile(report)

    def test_rejects_malformed_timers_and_histograms(self):
        report = self._valid()
        report["timers"]["search.filter"] = [0.1, 1]  # legacy list form
        with pytest.raises(ValueError, match="timer"):
            validate_profile(report)
        report = self._valid()
        report["histograms"]["search.candidates"] = {"mean": 4.0}
        with pytest.raises(ValueError, match="histogram"):
            validate_profile(report)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            validate_profile(["not", "a", "profile"])


class TestInstrumentationEndToEnd:
    """The acceptance-criteria counters flow from real operations."""

    def test_search_records_stage_times_and_counters(self, word_collection):
        from repro.search import InvertedIndex, JaccardSearcher

        with enabled_metrics() as registry:
            index = InvertedIndex(word_collection, scheme="css")
            searcher = JaccardSearcher(index, algorithm="mergeskip")
            searcher.search(word_collection.strings[0], 0.6)
        assert registry.timer_seconds("index.build") > 0
        assert registry.timer_seconds("search.filter") > 0
        assert registry.timer_seconds("search.verify") > 0
        assert registry.counter("search.queries") == 1
        assert registry.counter("index.lists_built") == len(index.lists)
        assert registry.counter("cursor.seeks") > 0

    def test_scancount_decodes_blocks(self, word_collection):
        from repro.search import InvertedIndex, JaccardSearcher

        with enabled_metrics() as registry:
            index = InvertedIndex(word_collection, scheme="css")
            searcher = JaccardSearcher(index, algorithm="scancount")
            searcher.search(word_collection.strings[0], 0.5)
        assert registry.counter("twolayer.blocks_decoded") > 0
        assert registry.counter("twolayer.elements_decoded") > 0

    def test_join_records_seals_and_phases(self, word_collection):
        from repro.join import PrefixFilterJoin

        with enabled_metrics() as registry:
            PrefixFilterJoin(word_collection, scheme="adapt").join(0.8)
        assert registry.counter("online.seals") > 0
        assert registry.timers["join.probe"][1] == 1
        assert registry.timer_seconds("join.probe") > 0
        assert registry.timer_seconds("join.finalize") > 0
        occupancy = registry.histograms["online.seal_occupancy"]
        assert occupancy.count == registry.counter("online.seals")

    def test_self_join_splits_index_time_out_of_probe(self, word_collection):
        from repro.join import PositionFilterJoin

        with enabled_metrics() as registry:
            PositionFilterJoin(word_collection, scheme="adapt").join(0.8)
        index_s = registry.timer_seconds("join.index")
        assert 0 < index_s <= registry.timer_seconds("join.probe")
        # summed once per join, not one timer sample per record
        assert registry.timers["join.index"][1] == 1

    def test_disabled_registry_records_nothing(self, word_collection):
        from repro.search import InvertedIndex, JaccardSearcher

        METRICS.reset()
        assert not METRICS.enabled
        index = InvertedIndex(word_collection, scheme="css")
        JaccardSearcher(index).search(word_collection.strings[0], 0.6)
        assert METRICS.counters == {}
        assert METRICS.timers == {}


class TestGauge:
    """Gauges are callbacks: a level read live from its source."""

    @staticmethod
    def _read(registry, name):
        return registry.snapshot()["gauges"][name]

    def test_callback_gauge_resolves_live(self):
        from repro.obs import Gauge

        registry = MetricsRegistry(enabled=True)
        cell = {"value": 7.0}
        registry.register_gauge("live", lambda: cell["value"])
        assert isinstance(registry.gauges["live"], Gauge)
        assert self._read(registry, "live") == 7.0
        cell["value"] = 11.0
        assert self._read(registry, "live") == 11.0

    def test_register_gauge_is_wiring_not_recording(self):
        # like merge(), registration applies even while disabled
        registry = MetricsRegistry(enabled=False)
        registry.register_gauge("live", lambda: 1.0)
        assert self._read(registry, "live") == 1.0

    def test_failing_callback_degrades_to_last_value(self):
        registry = MetricsRegistry(enabled=True)

        def explode():
            raise RuntimeError("sensor gone")

        registry.register_gauge("flaky", explode)
        assert self._read(registry, "flaky") == 0.0  # degraded, not raised

    def test_snapshot_includes_resolved_gauges(self):
        registry = MetricsRegistry(enabled=True)
        registry.register_gauge("depth", lambda: 4)
        registry.register_gauge("live", lambda: 2.5)
        snapshot = registry.snapshot()
        assert snapshot["gauges"] == {"depth": 4.0, "live": 2.5}
        json.dumps(snapshot)  # still JSON-ready

    def test_snapshot_omits_gauges_key_when_none(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("c")
        assert "gauges" not in registry.snapshot()

    def test_merge_keeps_callbacks_authoritative(self):
        registry = MetricsRegistry(enabled=True)
        registry.register_gauge("live", lambda: 9.0)
        registry.merge({"gauges": {"live": 100, "new": 1}})
        assert registry.snapshot()["gauges"] == {"live": 9.0}

    def test_reset_keeps_callback_gauges(self):
        registry = MetricsRegistry(enabled=True)
        registry.register_gauge("live", lambda: 1.0)
        registry.inc("c")
        registry.reset()
        assert registry.counters == {}
        assert self._read(registry, "live") == 1.0

    def test_prometheus_exposition_of_gauges(self):
        from repro.obs import to_prometheus

        registry = MetricsRegistry(enabled=True)
        registry.register_gauge("serve.queue.depth", lambda: 3)
        text = to_prometheus(registry)
        assert "# TYPE repro_serve_queue_depth gauge" in text.splitlines()
        assert "repro_serve_queue_depth 3.0" in text


class TestExpositionChecker:
    """The satellite exposition-format checker (repro.obs.check_exposition)."""

    def _full_registry(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("serve.requests", 5)
        registry.record_time("serve.batch.seconds", 0.5)
        for value in (1, 5, 9):
            registry.observe("serve.batch_size", value)
        registry.register_gauge("serve.queue.depth", lambda: 2)
        return registry

    def test_real_exposition_passes(self):
        from repro.obs import check_exposition, to_prometheus

        text = to_prometheus(self._full_registry())
        assert check_exposition(text) == []

    def test_labeled_samples_pass(self):
        from repro.obs import check_exposition

        text = (
            "# HELP repro_build_info build metadata\n"
            "# TYPE repro_build_info gauge\n"
            'repro_build_info{version="1.0.0",python="3.11.1"} 1\n'
        )
        assert check_exposition(text) == []

    def test_missing_help_is_reported(self):
        from repro.obs import check_exposition

        text = "# TYPE repro_x counter\nrepro_x_total 1\n"
        assert any("HELP" in problem for problem in check_exposition(text))

    def test_counter_sample_must_use_total_suffix(self):
        from repro.obs import check_exposition

        text = (
            "# HELP repro_x c\n# TYPE repro_x counter\n" "repro_x 1\n"
        )
        assert any("_total" in problem for problem in check_exposition(text))

    def test_non_cumulative_buckets_are_reported(self):
        from repro.obs import check_exposition

        text = (
            "# HELP repro_h h\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="3"} 4\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 9.0\n"
            "repro_h_count 5\n"
        )
        assert any(
            "cumulative" in problem for problem in check_exposition(text)
        )

    def test_histogram_must_end_at_inf(self):
        from repro.obs import check_exposition

        text = (
            "# HELP repro_h h\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            "repro_h_sum 9.0\n"
            "repro_h_count 5\n"
        )
        assert any("+Inf" in problem for problem in check_exposition(text))

    def test_bad_charset_is_reported(self):
        from repro.obs import check_exposition

        assert check_exposition("repro-bad.name 1\n")

    def test_parse_prometheus_round_trip(self):
        from repro.obs import parse_prometheus, to_prometheus

        text = to_prometheus(self._full_registry())
        samples = parse_prometheus(text)
        assert samples["repro_serve_requests_total"] == 5.0
        assert samples["repro_serve_queue_depth"] == 2.0
        assert samples['repro_serve_batch_size_bucket{le="+Inf"}'] == 3.0
        assert samples["repro_serve_batch_size_count"] == 3.0
