"""``repro.obs`` — observability for the compressed-index pipeline.

A lightweight metrics registry (counters, timers, histograms) plus
stage-scoped spans, with a process-global default (:data:`METRICS`) that
every layer of the pipeline records into: block decodes and bit reads in
the two-layer store, heap pops and skip jumps in the T-occurrence
algorithms, seal events and buffer occupancy in the online lists, and
candidates / verifications / per-phase wall time in search and join.

The layer is cross-process: registries snapshot and :meth:`merge
<repro.obs.registry.MetricsRegistry.merge>` losslessly, so the fork-pool
workers of :class:`~repro.engine.core.SimilarityEngine` and the forked list
encoders of a parallel :class:`~repro.search.searcher.InvertedIndex` build
ship their deltas back and ``--profile`` totals match a serial run
exactly.  Per-query trace trees (:data:`TRACER`, :mod:`repro.obs.trace`)
capture the span structure of individual queries under a sampling policy
with a slow-query log, and :mod:`repro.obs.export` renders everything as
Prometheus text or JSONL.

Disabled by default at near-zero cost; the CLI's ``--profile`` flag (and
:class:`enabled_metrics` in library code) turns it on and dumps the
:func:`profile_report` JSON document.
"""

from .registry import (
    METRICS,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled_metrics,
    get_metrics,
)
from .report import (
    PROFILE_SCHEMA,
    dump_profile,
    profile_report,
    profile_to_markdown,
    render_profile,
    validate_profile,
)
from .trace import TRACER, Tracer, trace_query
from .export import (
    check_exposition,
    dump_traces,
    load_traces,
    parse_prometheus,
    render_trace_tree,
    render_traces,
    sniff_dump,
    to_prometheus,
    traces_to_jsonl,
)

# registry spans feed the active trace tree (one attribute check when idle)
METRICS.tracer = TRACER

__all__ = [
    "METRICS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enabled_metrics",
    "get_metrics",
    "PROFILE_SCHEMA",
    "profile_report",
    "dump_profile",
    "profile_to_markdown",
    "validate_profile",
    "render_profile",
    "TRACER",
    "Tracer",
    "trace_query",
    "to_prometheus",
    "check_exposition",
    "parse_prometheus",
    "traces_to_jsonl",
    "dump_traces",
    "load_traces",
    "render_trace_tree",
    "render_traces",
    "sniff_dump",
]
