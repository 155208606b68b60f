"""Tests for the benchmark harness kernels and table rendering."""

import pytest

from repro.bench import (
    build_search_index,
    render_table,
    run_join,
    run_search_queries,
    sample_queries,
)
from repro.datasets import load_dataset


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
        assert "name" in lines[1]
        assert "1.500" in table
        assert "20.0" in table

    def test_empty_rows(self):
        table = render_table(["x"], [])
        assert "x" in table

    def test_large_numbers_grouped(self):
        assert "1,234,568" in render_table(["n"], [[1234567.8]])


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
        assert out["avg_ms"] >= 0
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
        result = run_join(small_tweet, filter_name, "adapt", 0.7)
        assert result.seconds > 0
        assert result.index_mb > 0
        assert result.pairs >= 0

    def test_segment_join(self, small_aol):
        result = run_join(small_aol, "segment", "adapt", 1)
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
            scheme: run_join(small_tweet, "prefix", scheme, 0.8).pairs
            for scheme in ("uncomp", "fix", "vari", "adapt")
        }
        assert len(set(counts.values())) == 1
