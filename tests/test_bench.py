"""Tests for the Chapter 7 harness: timer, renderer, registry, kernels."""

import re
from pathlib import Path

import pytest

from repro.bench import (
    EXPERIMENTS,
    REPEATS,
    Timing,
    build_search_index,
    grid,
    render_table,
    run_join,
    run_search_queries,
    sample_queries,
    timed,
)
from repro.datasets import load_dataset

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"


@pytest.fixture(scope="module")
def small_tweet():
    return load_dataset("tweet", cardinality=250)


@pytest.fixture(scope="module")
def small_aol():
    return load_dataset("aol", cardinality=250)


class TestRenderTable:
    def test_basic_layout(self):
        table = render_table(
            ["name", "value"], [["a", 1.5], ["bb", 20.0]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert lines[2:] == [
            "| name | value |",
            "|---|---|",
            "| a | 1.500 |",
            "| bb | 20.0 |",
        ]

    def test_empty_rows(self):
        assert render_table(["x"], []) == "| x |\n|---|"

    def test_large_numbers_grouped(self):
        assert "| 1,234,568 |" in render_table(["n"], [[1234567.8]])

    def test_timing_cell_is_median_and_quartiles(self):
        timing = Timing((0.5, 0.1, 0.3, 0.2, 0.4))
        assert "| 0.300 [0.200, 0.400] |" in render_table(["s"], [[timing]])


class TestTimer:
    def test_runs_exactly_repeats_times_on_a_fake_clock(self):
        ticks = iter([0.0, 1.0, 10.0, 13.0, 20.0, 22.0, 30.0, 35.0, 40.0, 44.0])
        calls = []

        def run():
            calls.append(None)
            return len(calls)

        timing, result = timed(run, clock=lambda: next(ticks))
        assert REPEATS == 5
        assert len(calls) == REPEATS
        assert timing.samples == (1.0, 3.0, 2.0, 5.0, 4.0)
        assert result == REPEATS  # the last repeat's result

    def test_median_and_quartiles_of_known_samples(self):
        timing = Timing((5.0, 1.0, 4.0, 2.0, 3.0))
        assert (timing.q1, timing.median, timing.q3) == (2.0, 3.0, 4.0)
        assert Timing((7.0,)).q1 == Timing((7.0,)).q3 == 7.0
        assert timing.scaled(1000).median == pytest.approx(3000.0)


class TestRegistry:
    def test_experiments_are_design_section_4_in_order(self):
        text = DESIGN.read_text(encoding="utf-8")
        section = text.split("## 4.")[1].split("\n## ")[0]
        row_id = r"^\| ((?:Table|Figure|Ablation) [^|]+?) \|"
        rows = re.findall(row_id, section, re.M)
        assert len(rows) == 18
        assert list(EXPERIMENTS) == rows

    def test_each_row_names_its_function_and_shape_test(self):
        section = DESIGN.read_text(encoding="utf-8").split("## 4.")[1]
        for name, run in EXPERIMENTS.items():
            row = next(r for r in section.splitlines() if f"| {name} |" in r)
            assert f"`{run.__name__}`" in row, name
            test_file = re.search(r"`(benchmarks/test_\w+\.py)`", row).group(1)
            module = (DESIGN.parent / test_file).read_text(encoding="utf-8")
            assert f"EXPERIMENT = grid.{run.__name__}" in module, name

    def test_rows_ignore_repro_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        unset = [grid.table_7_1(0.01), grid.table_7_2(0.01)]
        monkeypatch.setenv("REPRO_SCALE", "3")
        again = [grid.table_7_1(0.01), grid.table_7_2(0.01)]
        assert [e.tables for e in again] == [e.tables for e in unset]
        # every corpus is scaled(base, 0.01): the one floor of 100 records
        assert {s["cardinality"] for s in unset[0].cells.values()} == {100}


class TestSearchKernels:
    def test_build_search_index(self, small_tweet):
        result = build_search_index(small_tweet, "css")
        assert result.scheme == "css"
        assert result.size_mb > 0
        assert result.compression_ratio > 1
        assert result.build_seconds >= 0

    def test_sample_queries_deterministic(self, small_tweet):
        assert sample_queries(small_tweet, 10) == sample_queries(small_tweet, 10)
        assert len(sample_queries(small_tweet, 10)) == 10

    def test_run_search_queries_jaccard(self, small_tweet):
        index = build_search_index(small_tweet, "css").index
        queries = sample_queries(small_tweet, 5)
        out = run_search_queries(index, queries, 0.8, "mergeskip")
        assert len(out["ms"].samples) == REPEATS
        assert out["ms"].median >= 0
        assert out["total_results"] >= len(queries)  # each query finds itself

    def test_run_search_queries_edit_distance(self, small_aol):
        index = build_search_index(small_aol, "css").index
        queries = sample_queries(small_aol, 5)
        out = run_search_queries(
            index, queries, 1, "mergeskip", metric="ed"
        )
        assert out["total_results"] >= len(queries)


class TestJoinKernels:
    @pytest.mark.parametrize("filter_name", ["count", "prefix", "position"])
    def test_token_joins(self, small_tweet, filter_name):
        result = run_join(small_tweet, filter_name, "adapt", 0.7, repeats=2)
        assert len(result.time.samples) == 2
        assert result.time.median > 0
        assert result.index_mb > 0
        assert result.pairs >= 0

    def test_segment_join(self, small_aol):
        result = run_join(small_aol, "segment", "adapt", 1, repeats=1)
        assert result.pairs >= 0
        assert result.index_mb > 0

    def test_fractional_edit_distance_is_not_truncated(self, small_aol):
        for filter_name in ("segment", "edcount"):
            with pytest.raises(ValueError, match="integral"):
                run_join(small_aol, filter_name, "adapt", 1.9)
        index = build_search_index(small_aol, "css").index
        with pytest.raises(ValueError, match="integral"):
            run_search_queries(
                index, ["query"], 1.9, "mergeskip", metric="ed"
            )

    def test_all_schemes_agree_on_pairs(self, small_tweet):
        counts = {
            scheme: run_join(small_tweet, "prefix", scheme, 0.8, 1).pairs
            for scheme in ("uncomp", "fix", "vari", "adapt")
        }
        assert len(set(counts.values())) == 1
