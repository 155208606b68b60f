"""Profile report rendering: obs snapshots as JSON documents and markdown.

``profile_report`` freezes a registry snapshot into the versioned document
the CLI's ``--profile`` flag emits, so regressions in decoded-elements or
per-stage wall time diff cleanly across runs.  ``profile_to_markdown``
renders one document as a report section for :mod:`repro.bench.report`,
and ``render_profile`` is what ``repro stats PROFILE`` prints.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from .export import to_prometheus
from .registry import METRICS, MetricsRegistry

__all__ = [
    "PROFILE_SCHEMA",
    "profile_report",
    "dump_profile",
    "profile_to_markdown",
    "render_profile",
    "validate_profile",
]

#: v2: keys at every level are emitted in sorted order (stable diffs),
#: histogram summaries carry ``std``, and the markdown rendering names the
#: schema version it was produced from.
PROFILE_SCHEMA = "repro.obs/v2"

#: counters every profile document reports even when zero, so diffs
#: between profiles never confuse "absent" with "none".
CORE_COUNTERS = (
    "twolayer.blocks_decoded",
    "twolayer.elements_decoded",
    "online.list_decodes",
    "online.elements_decoded",
    "cursor.seeks",
    "online.seals",
)


def profile_report(
    meta: Optional[Dict] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict:
    """Snapshot ``registry`` (default: the global one) as a profile document.

    ``meta`` carries run identity — command, dataset, scheme, threshold —
    and lands verbatim under the ``"meta"`` key.
    """
    registry = registry if registry is not None else METRICS
    document = {"schema": PROFILE_SCHEMA, "meta": dict(meta or {})}
    document.update(registry.snapshot())
    counters = document["counters"]
    for name in CORE_COUNTERS:
        counters.setdefault(name, 0)
    document["counters"] = dict(sorted(counters.items()))
    return document


def dump_profile(
    report: Dict, path: Union[str, Path, None] = None
) -> str:
    """Serialize ``report`` to JSON; write to ``path`` unless it is ``-``/``""``/None."""
    text = json.dumps(report, indent=2, sort_keys=False, default=float)
    if path is not None and str(path) not in ("-", ""):
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text


def profile_to_markdown(report: Dict, title: str = "Instrumentation") -> str:
    """Render one profile document as a markdown section.

    Counters, timers and histogram summaries become three small tables —
    the shape :func:`repro.bench.report.generate_report` appends when a
    profiled run is requested.  Every table row is emitted in sorted-name
    order and the section names the obs schema it was rendered from, so
    two profiled runs of the same workload produce diffable sections.
    """
    lines = [f"## {title}", ""]
    schema = report.get("schema")
    meta = report.get("meta") or {}
    rendered = ", ".join(
        f"{key}={meta[key]}" for key in sorted(meta)
    )
    tagline = ", ".join(part for part in (f"schema {schema}" if schema else "", rendered) if part)
    if tagline:
        lines += [f"_{tagline}_", ""]

    counters = report.get("counters") or {}
    if counters:
        lines += ["| counter | value |", "|---|---|"]
        lines += [
            f"| {name} | {counters[name]:,} |" for name in sorted(counters)
        ]
        lines.append("")

    timers = report.get("timers") or {}
    if timers:
        lines += ["| stage | seconds | count |", "|---|---|---|"]
        lines += [
            f"| {name} | {timers[name]['seconds']:.4f} "
            f"| {timers[name]['count']} |"
            for name in sorted(timers)
        ]
        lines.append("")

    histograms = report.get("histograms") or {}
    if histograms:
        lines += [
            "| histogram | count | mean | min | max | p50 |",
            "|---|---|---|---|---|---|",
        ]
        for name in sorted(histograms):
            summary = histograms[name]
            if summary.get("count"):
                lines.append(
                    f"| {name} | {summary['count']} | {summary['mean']:.1f} "
                    f"| {summary['min']:.0f} | {summary['max']:.0f} "
                    f"| {summary['p50']:.0f} |"
                )
            else:
                lines.append(f"| {name} | 0 | - | - | - | - |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_profile(document: Dict, style: str = "prometheus") -> str:
    """A profile document as ``prometheus`` text, ``markdown`` or ``json``
    (what ``repro stats PROFILE --format`` prints); ``ValueError`` for any
    other style."""
    if style == "prometheus":
        return to_prometheus(document)
    if style == "markdown":
        return profile_to_markdown(document)
    if style == "json":
        return json.dumps(document, indent=2, sort_keys=True, default=float) + "\n"
    raise ValueError(f"{style} does not apply to a profile document")


def validate_profile(document: Dict) -> Dict:
    """Check ``document`` against the :data:`PROFILE_SCHEMA` contract.

    Raises :class:`ValueError` naming the first violation; returns the
    document unchanged when it conforms.  This is what CI runs over the
    benchmark-smoke ``--profile`` artifact, so a PR that breaks the
    profile shape fails before it breaks the bench trajectory diffs.
    """
    if not isinstance(document, dict):
        raise ValueError(f"profile must be a JSON object, got {type(document).__name__}")
    schema = document.get("schema")
    if schema != PROFILE_SCHEMA:
        raise ValueError(
            f"schema mismatch: expected {PROFILE_SCHEMA!r}, got {schema!r}"
        )
    if not isinstance(document.get("meta"), dict):
        raise ValueError("profile 'meta' must be an object")
    counters = document.get("counters")
    if not isinstance(counters, dict):
        raise ValueError("profile 'counters' must be an object")
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"counter {name!r} must be an integer, got {value!r}")
    missing = [name for name in CORE_COUNTERS if name not in counters]
    if missing:
        raise ValueError(f"core counters missing: {', '.join(missing)}")
    names = list(counters)
    if names != sorted(names):
        raise ValueError("counters are not in sorted order")
    timers = document.get("timers")
    if not isinstance(timers, dict):
        raise ValueError("profile 'timers' must be an object")
    for name, cell in timers.items():
        if (
            not isinstance(cell, dict)
            or not isinstance(cell.get("seconds"), (int, float))
            or not isinstance(cell.get("count"), int)
        ):
            raise ValueError(
                f"timer {name!r} must be {{seconds: number, count: int}}, "
                f"got {cell!r}"
            )
    histograms = document.get("histograms")
    if not isinstance(histograms, dict):
        raise ValueError("profile 'histograms' must be an object")
    for name, summary in histograms.items():
        if not isinstance(summary, dict) or not isinstance(
            summary.get("count"), int
        ):
            raise ValueError(
                f"histogram {name!r} must be a summary object with a count"
            )
    return document
