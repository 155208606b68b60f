"""Benchmark harness: experiment kernels and table rendering."""

from .experiments import (
    JoinResult,
    SearchIndexResult,
    build_search_index,
    run_join,
    run_search_queries,
    sample_queries,
)
from .tables import format_value, render_table

__all__ = [
    "build_search_index",
    "run_search_queries",
    "run_join",
    "sample_queries",
    "SearchIndexResult",
    "JoinResult",
    "render_table",
    "format_value",
]
