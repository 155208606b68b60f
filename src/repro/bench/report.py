"""One-shot reproduction report: every Chapter 7 experiment in one file.

``python -m repro report -o report.md --scale 1.0`` runs the 18 functions
of :mod:`repro.bench.grid` in DESIGN.md §4 order and writes their markdown
sections — the same tables ``pytest benchmarks/<file> -s`` prints, and the
ones EXPERIMENTS.md records — with the paper's numbers alongside.
"""

from __future__ import annotations

from ..obs import enabled_metrics, profile_report, profile_to_markdown
from .experiments import EXPERIMENTS, REPEATS, query_count
from .tables import render_experiment

__all__ = ["generate_report"]


def generate_report(
    scale: float = 0.25, queries: int = 0, profile: bool = False
) -> str:
    """Build the report and return it as a markdown string.

    ``queries`` is the number of queries per search-timing cell (0:
    50 x ``scale``, at least 10).  With ``profile=True`` the whole run
    executes under the global metrics registry and an Instrumentation
    section (decoded blocks/elements, cursor seeks, seal events, per-stage
    wall time) is appended — the markdown rendering of the same document
    ``--profile`` dumps as JSON.
    """
    if profile:
        with enabled_metrics():
            body = _report_body(scale, queries)
            document = profile_report(
                meta={"command": "report", "scale": scale}
            )
        return body + "\n" + profile_to_markdown(document)
    return _report_body(scale, queries)


def _report_body(scale: float, queries: int) -> str:
    queries = queries or query_count(scale)
    sections = [
        "# CSS reproduction report",
        f"Generated by `repro report --scale {scale} --queries {queries}`: "
        f"the {len(EXPERIMENTS)} experiments of DESIGN.md §4, in its order. "
        f"Timing cells are median [q1, q3] over n = {REPEATS} repeats. Paper "
        "values from Chapter 7; shapes (orderings, trends) are the "
        "reproduction target, not absolute magnitudes.",
    ]
    sections += [
        render_experiment(run(scale, queries)) for run in EXPERIMENTS.values()
    ]
    return "\n\n".join(sections) + "\n"
