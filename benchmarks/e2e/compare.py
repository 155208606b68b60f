"""Summaries over repeated runs and the noise-aware A/B comparison.

A result file holds ``runs``; a metric's value is the median over the runs
that report it and its spread is the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of that
median.  ``compare_files`` applies the per-metric bounds of
``BENCHMARK.json``: the change's median may be worse than the parent's by
at most the bound; where either side's spread is wider than the bound the
row is *unresolved*, not *within bound*.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple


def collect(document: dict, trace: int) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the runs of one kind."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in document["runs"]:
        if run["trace"] != trace:
            continue
        for workload, result in run["workloads"].items():
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
            attempted = max(1, result["attempted"])
            values.setdefault((workload, "fail_ratio"), []).append(
                result["failed"] / attempted
            )
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    first, _, third = statistics.quantiles(values, n=4)
    return first, median, third


def spread(values: List[float]) -> float:
    first, median, third = quartiles(values)
    return (third - first) / abs(median) if median else 0.0


def summarize(document: dict, spec: dict) -> bool:
    """Print every metric by name with its unit; False if any run failed
    its oracle or produced an unreconciled waterfall."""
    ok = True
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }
    units["fail_ratio"] = "ratio"
    for trace, title in ((0, "end-to-end"), (1, "per-layer")):
        values = collect(document, trace)
        if not values:
            continue
        print(f"\n{title} metrics (median [q1, q3] over n runs)")
        for (workload, metric), series in values.items():
            if trace and (metric == "fail_ratio" or not any(series)):
                continue  # a layer the workload does not exercise reads 0
            first, median, third = quartiles(series)
            print(
                f"  {workload:<11} {metric:<40} {median:>14.4f} "
                f"{units[metric]:<8} [{first:.4f}, {third:.4f}] n={len(series)}"
            )
    for run in document["runs"]:
        for workload, result in run["workloads"].items():
            if not result["correct"]:
                print(f"FAILED: {workload} answered {result['failed']} wrongly")
                ok = False
            fall = result.get("waterfall")
            if fall is not None and not fall["reconciled"]:
                print(
                    f"UNRECONCILED: {workload} waterfall "
                    f"sum/whole = {fall['sum_over_whole']:.3f}"
                )
                ok = False
    walls = [
        f"{workload} {result['wall_s']:.1f} s"
        for run in document["runs"]
        for workload, result in run["workloads"].items()
    ]
    print("wall per workload: " + ", ".join(walls))
    return ok


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    """One row per (workload, end-to-end metric); 1 if anything regressed."""
    with open(path_a, encoding="utf-8") as handle:
        before = collect(json.load(handle), 0)
    with open(path_b, encoding="utf-8") as handle:
        after = collect(json.load(handle), 0)
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules["fail_ratio"] = ("lower", 0.0)  # any increase is a regression
    regressed = 0
    print(
        f"{'workload':<11} {'metric':<16} {'A median':>12} {'B median':>12} "
        f"{'change':>8} {'bound':>6} {'spread A/B':>13}  verdict"
    )
    for key in before:
        if key not in after:
            continue
        workload, metric = key
        better, bound = rules[metric]
        a, b = statistics.median(before[key]), statistics.median(after[key])
        worse = (b - a) if better == "lower" else (a - b)
        change = worse / abs(a) if a else (1.0 if worse > 0 else 0.0)
        noise = max(spread(before[key]), spread(after[key]))
        if metric == "fail_ratio":
            verdict = "regressed" if worse > 0 else "within bound"
        elif noise > bound:
            verdict = "unresolved"
        elif change > bound:
            verdict = "regressed"
        elif change < -noise and change < 0:
            verdict = "better"
        else:
            verdict = "within bound"
        regressed += verdict == "regressed"
        print(
            f"{workload:<11} {metric:<16} {a:>12.4f} {b:>12.4f} "
            f"{change:>+8.1%} {bound:>6.0%} "
            f"{spread(before[key]):>6.1%}/{spread(after[key]):<6.1%} {verdict}"
        )
    return 1 if regressed else 0
