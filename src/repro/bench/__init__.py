"""The Chapter 7 harness: one function per table, figure and ablation.

:data:`EXPERIMENTS` maps DESIGN.md §4's row names, in order, to the
:mod:`repro.bench.grid` functions ``run(scale, queries=0) -> Experiment``;
``repro report`` renders them all and ``benchmarks/test_*.py`` asserts
each one's shape.
"""

from . import grid  # importing it registers the experiments
from .experiments import (
    EXPERIMENTS,
    REPEATS,
    Experiment,
    JoinResult,
    SearchIndexResult,
    build_search_index,
    run_join,
    run_search_queries,
    Timing,
    sample_queries,
    timed,
)
from .tables import format_value, render_experiment, render_table

__all__ = [
    "EXPERIMENTS",
    "grid",
    "Experiment",
    "REPEATS",
    "Timing",
    "timed",
    "render_experiment",
    "render_table",
    "format_value",
    "build_search_index",
    "run_search_queries",
    "run_join",
    "sample_queries",
    "SearchIndexResult",
    "JoinResult",
]
