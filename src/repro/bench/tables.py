"""The one markdown renderer of the Chapter 7 harness.

``repro report`` and ``pytest benchmarks/<file> -s`` print the same
:func:`render_experiment` text: an experiment's tables (paper numbers
alongside where the paper has them), timing cells as ``median [q1, q3]``
with the number of repeats stated.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .experiments import Experiment, Timing

__all__ = ["format_value", "render_table", "render_experiment"]


def format_value(value) -> str:
    if isinstance(value, Timing):
        return (
            f"{format_value(value.median)} "
            f"[{format_value(value.q1)}, {format_value(value.q3)}]"
        )
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
) -> str:
    """A markdown table, with an optional title line above it."""
    lines = [title, ""] if title else []
    lines.append("| " + " | ".join(str(header) for header in headers) + " |")
    lines.append("|" + "---|" * len(headers))
    for row in rows:
        lines.append("| " + " | ".join(format_value(cell) for cell in row) + " |")
    return "\n".join(lines)


def render_experiment(experiment: Experiment) -> str:
    """The experiment's markdown section: heading, tables, notes."""
    parts = [f"## {experiment.name} — {experiment.title}"]
    repeats = sorted({
        len(cell.samples)
        for _, _, rows in experiment.tables
        for row in rows
        for cell in row
        if isinstance(cell, Timing)
    })
    for title, headers, rows in experiment.tables:
        parts.append(render_table(headers, rows, f"**{title}**" if title else None))
    if repeats:
        parts.append(f"Timing cells: median [q1, q3] over n = {repeats[0]} repeats.")
    parts.extend(experiment.notes)
    return "\n\n".join(parts)
