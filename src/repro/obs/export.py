"""Exporters: Prometheus text exposition and JSONL trace dumps.

Standard wire shapes for everything :mod:`repro.obs` collects:

* :func:`to_prometheus` renders a registry (or any snapshot / profile
  document) in the Prometheus text exposition format — counters become
  ``*_total``, timers become summaries (``_sum`` / ``_count``), histograms
  become cumulative ``le`` buckets built from the log2 buckets, gauges
  become plain samples.  Every family carries ``# HELP`` / ``# TYPE``
  lines and output is sorted by metric name, so two identical runs diff
  clean.
* :func:`check_exposition` validates that shape — the format checker the
  tests and the CI serve smoke run over a live ``/metrics`` scrape — and
  :func:`parse_prometheus` reads an exposition back into samples (what
  they reconcile against ``/debug/vars``).
* :func:`traces_to_jsonl` / :func:`dump_traces` write trace documents one
  JSON object per line (a span tree per query), and :func:`load_traces` /
  :func:`render_trace_tree` / :func:`render_traces` read them back and
  pretty-print the trees — what ``repro stats traces.jsonl`` shows;
  :func:`sniff_dump` tells a profile document from a trace dump from
  anything else.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .registry import MetricsRegistry

__all__ = [
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

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: the exposition-format charset for a complete metric name
_VALID_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: one sample line: ``name{labels} value`` with optional labels
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)

_LABEL_PAIR = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def _prom_name(name: str, prefix: str) -> str:
    """``twolayer.blocks_decoded`` -> ``repro_twolayer_blocks_decoded``.

    Every character outside the exposition charset collapses to ``_``;
    the prefix guarantees the first character is a letter even when the
    source name starts with a digit.
    """
    return f"{prefix}_{_INVALID_METRIC_CHARS.sub('_', name)}"


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _family(
    lines: List[str], metric: str, kind: str, source_name: str
) -> None:
    """Open a metric family: its ``# HELP`` and ``# TYPE`` header lines."""
    lines.append(f"# HELP {metric} repro.obs {kind} {source_name!r}")
    lines.append(f"# TYPE {metric} {kind}")


def to_prometheus(
    source: Union[MetricsRegistry, Dict], prefix: str = "repro"
) -> str:
    """Prometheus text exposition of ``source``.

    ``source`` is a :class:`MetricsRegistry`, a ``snapshot()`` /
    ``snapshot(full=True)`` dict, or a profile document (they all carry
    ``counters`` / ``timers`` / ``histograms`` — and optionally
    ``gauges`` — keys).  Histogram ``le`` buckets need the lossless state
    form; from a summary-only snapshot the histogram degrades to a
    ``_sum`` / ``_count`` summary.
    """
    if isinstance(source, MetricsRegistry):
        source = source.snapshot(full=True)
    lines: List[str] = []

    for name, value in sorted((source.get("counters") or {}).items()):
        metric = _prom_name(name, prefix)
        _family(lines, metric, "counter", name)
        lines.append(f"{metric}_total {_format_value(int(value))}")

    for name, value in sorted((source.get("gauges") or {}).items()):
        metric = _prom_name(name, prefix)
        _family(lines, metric, "gauge", name)
        lines.append(f"{metric} {_format_value(float(value))}")

    for name, timer in sorted((source.get("timers") or {}).items()):
        if isinstance(timer, dict):
            seconds, count = timer["seconds"], timer["count"]
        else:
            seconds, count = timer
        metric = _prom_name(name, prefix) + "_seconds"
        _family(lines, metric, "summary", name)
        lines.append(f"{metric}_sum {_format_value(float(seconds))}")
        lines.append(f"{metric}_count {int(count)}")

    for name, state in sorted((source.get("histograms") or {}).items()):
        metric = _prom_name(name, prefix)
        count = int(state.get("count", 0))
        total = float(state.get("total", state.get("mean", 0.0) * count))
        buckets = state.get("buckets")
        if buckets is None:
            # summary-form snapshot: the buckets are gone, export moments
            _family(lines, metric, "summary", name)
            lines.append(f"{metric}_sum {_format_value(total)}")
            lines.append(f"{metric}_count {count}")
            continue
        _family(lines, metric, "histogram", name)
        running = 0
        for bucket, occupancy in enumerate(buckets):
            running += int(occupancy)
            # log2 bucket b holds int(values) in [2^(b-1), 2^b - 1]
            lines.append(
                f'{metric}_bucket{{le="{(1 << bucket) - 1}"}} {running}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
        lines.append(f"{metric}_sum {_format_value(total)}")
        lines.append(f"{metric}_count {count}")

    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------- #
# exposition-format validation and parsing
# ---------------------------------------------------------------------- #
_SAMPLE_SUFFIXES = ("_total", "_sum", "_count", "_bucket")


def _owning_family(name: str, families: Dict[str, str]) -> Optional[str]:
    """The declared family a sample belongs to (exact or via a suffix)."""
    if name in families:
        return name
    for suffix in _SAMPLE_SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            return name[: -len(suffix)]
    return None


def _parse_float(text: str) -> Optional[float]:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)
    except ValueError:
        return None


def check_exposition(text: str) -> List[str]:
    """Validate a Prometheus text exposition; returns the violations.

    Enforces what this repo's exporters promise (and what a scraper
    needs): every sample belongs to a family that declared ``# HELP`` and
    ``# TYPE``, metric and label names stay in the exposition charset,
    counter samples end in ``_total``, and histogram ``le`` buckets are
    cumulative (non-decreasing) with a final ``+Inf`` bucket equal to the
    family's ``_count``.  An empty list means the text is well-formed.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    helped: Dict[str, bool] = {}
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    counts: Dict[str, float] = {}

    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _VALID_METRIC_NAME.match(parts[2]):
                problems.append(f"line {line_number}: malformed HELP line")
            else:
                helped[parts[2]] = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _VALID_METRIC_NAME.match(parts[2]):
                problems.append(f"line {line_number}: malformed TYPE line")
                continue
            family, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "summary", "histogram"):
                problems.append(
                    f"line {line_number}: unknown metric type {kind!r}"
                )
                continue
            if types.get(family, kind) != kind:
                problems.append(
                    f"line {line_number}: family {family} re-declared as "
                    f"{kind} (was {types[family]})"
                )
            types[family] = kind
            continue
        if line.startswith("#"):
            continue  # free-form comments are legal
        match = _SAMPLE_LINE.match(line)
        if match is None:
            problems.append(
                f"line {line_number}: not a sample line: {line!r}"
            )
            continue
        name, labels, raw_value = match.group("name", "labels", "value")
        value = _parse_float(raw_value)
        if value is None:
            problems.append(
                f"line {line_number}: non-numeric value {raw_value!r}"
            )
            continue
        label_map: Dict[str, str] = {}
        if labels:
            for pair in labels.split(","):
                pair = pair.strip()
                if not _LABEL_PAIR.match(pair):
                    problems.append(
                        f"line {line_number}: malformed label {pair!r}"
                    )
                    continue
                key, _, quoted = pair.partition("=")
                label_map[key] = quoted[1:-1]
        family = _owning_family(name, types)
        if family is None:
            problems.append(
                f"line {line_number}: sample {name} has no # TYPE family"
            )
            continue
        if not helped.get(family):
            problems.append(
                f"line {line_number}: family {family} has no # HELP line"
            )
        kind = types[family]
        if kind == "counter" and name != f"{family}_total":
            problems.append(
                f"line {line_number}: counter sample must be "
                f"{family}_total, got {name}"
            )
        if kind == "gauge" and name != family:
            problems.append(
                f"line {line_number}: gauge sample must be {family}, "
                f"got {name}"
            )
        if kind == "histogram" and name == f"{family}_bucket":
            upper = _parse_float(label_map.get("le", ""))
            if upper is None:
                problems.append(
                    f"line {line_number}: histogram bucket without a "
                    'numeric le="..." label'
                )
            else:
                buckets.setdefault(family, []).append((upper, value))
        if name == f"{family}_count":
            counts[family] = value

    for family, series in sorted(buckets.items()):
        uppers = [upper for upper, _ in series]
        values = [value for _, value in series]
        if uppers != sorted(uppers):
            problems.append(f"{family}: le buckets are not ascending")
        if values != sorted(values):
            problems.append(
                f"{family}: bucket counts are not cumulative "
                "(a bucket decreased)"
            )
        if not uppers or uppers[-1] != float("inf"):
            problems.append(f"{family}: bucket series does not end at +Inf")
        elif family in counts and values[-1] != counts[family]:
            problems.append(
                f"{family}: +Inf bucket {values[-1]:g} != _count "
                f"{counts[family]:g}"
            )
    return problems


def parse_prometheus(text: str) -> Dict[str, float]:
    """Samples of an exposition as ``{"name{labels}": value}``.

    The inverse of :func:`to_prometheus` down to sample granularity —
    enough to reconcile a scrape against ``/debug/vars``; comments,
    HELP/TYPE lines and malformed lines are skipped, not errors.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            continue
        value = _parse_float(match.group("value"))
        if value is None:
            continue
        labels = match.group("labels")
        key = match.group("name") + (f"{{{labels}}}" if labels else "")
        samples[key] = value
    return samples


# ---------------------------------------------------------------------- #
# JSONL traces
# ---------------------------------------------------------------------- #
def traces_to_jsonl(traces: Iterable[Dict]) -> str:
    """Trace documents as JSON Lines (one span tree per line)."""
    return "".join(
        json.dumps(trace, sort_keys=True, default=float) + "\n"
        for trace in traces
    )


def dump_traces(traces: Iterable[Dict], path: Union[str, Path]) -> int:
    """Write ``traces`` to ``path`` as JSONL; returns how many were written."""
    traces = list(traces)
    Path(path).write_text(traces_to_jsonl(traces), encoding="utf-8")
    return len(traces)


def load_traces(path: Union[str, Path]) -> List[Dict]:
    """Read a JSONL trace dump back into a list of trace documents."""
    documents = []
    for line_number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}:{line_number}: not a JSONL trace line: {error}"
            ) from None
        if not isinstance(document, dict) or "trace_id" not in document:
            raise ValueError(
                f"{path}:{line_number}: JSON object is not a trace "
                "document (no trace_id)"
            )
        documents.append(document)
    return documents


def render_trace_tree(trace: Dict) -> str:
    """One trace document as an indented ascii span tree."""
    spans = trace.get("spans") or []
    children: Dict[object, List[Dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)

    meta = trace.get("meta") or {}
    rendered = ", ".join(f"{key}={value!r}" for key, value in meta.items())
    header = (
        f"{trace.get('trace_id', '?')} {trace.get('name', '?')} "
        f"({1000 * trace.get('seconds', 0.0):.2f} ms"
        f"{', SLOW' if trace.get('slow') else ''})"
    )
    lines = [header + (f"  [{rendered}]" if rendered else "")]

    def walk(parent_id: Optional[str], depth: int) -> None:
        for span in sorted(
            children.get(parent_id, []), key=lambda s: s.get("start_ms", 0.0)
        ):
            lines.append(
                f"{'  ' * depth}└─ {span.get('name', '?')} "
                f"{span.get('ms', 0.0):.2f} ms"
            )
            walk(span.get("id"), depth + 1)

    roots = children.get(None, [])
    if roots:
        # the root span mirrors the trace header; render its children
        for root in roots:
            walk(root.get("id"), 1)
    return "\n".join(lines)


def render_traces(traces: List[Dict], style: str = "tree") -> str:
    """A loaded trace dump as text: one ascii ``tree`` per trace, or
    ``json`` (what ``repro stats TRACES --format`` prints); ``ValueError``
    for any other style."""
    if style == "tree":
        return "".join(render_trace_tree(trace) + "\n\n" for trace in traces)
    if style == "json":
        return json.dumps(traces, indent=2, sort_keys=True, default=float) + "\n"
    raise ValueError(f"{style} does not apply to a trace dump")


def sniff_dump(text: str) -> Tuple[Optional[str], Optional[Dict]]:
    """Which telemetry dump ``text`` is, by content.

    ``("profile", document)`` for a ``--profile`` JSON document,
    ``("traces", None)`` for a ``--trace`` JSONL dump, ``("json", None)``
    for JSON that is neither, and ``(None, None)`` for anything else (a
    plain corpus, as far as ``repro stats`` is concerned).
    """
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        return None, None
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and "schema" in document:
        return "profile", document
    try:
        probe = json.loads(stripped.splitlines()[0])
    except json.JSONDecodeError:
        probe = None
    if isinstance(probe, dict) and "trace_id" in probe:
        return "traces", None
    if document is not None or probe is not None:
        return "json", None
    return None, None
