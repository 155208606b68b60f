"""The repo's end-to-end benchmark: one command, four workloads.

Whole benchmark (each workload in a fresh child process, one at a time)::

    python3 benchmarks/e2e/run.py --seed 7            # end-to-end metrics
    python3 benchmarks/e2e/run.py --seed 7 --trace    # per-layer metrics
    python3 benchmarks/e2e/run.py --smoke             # both, tiny, < 30 s
    python3 benchmarks/e2e/run.py --repeat 5 --record --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

One workload, the form ``BENCHMARK.json`` names::

    python3 benchmarks/e2e/run.py --workload batch_hot --seed 7 \\
        --seconds 12 --trace 0

which prints the metrics by name with their units and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Names,
units and bounds live in ``BENCHMARK.json`` only; see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT_DIR = HERE / "out"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SCHEMA = "repro.e2e/v1"
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups per run
SMOKE_SCALE = 0.05


# ---------------------------------------------------------------------- #
# one workload, in this process
# ---------------------------------------------------------------------- #
def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def steady(measured, rounds: int):
    """``(ops_per_s, p50, p95)`` of one timed loop, robust to a busy host.

    The host slows down by up to a third for a second or two at a time, so
    a mean over the run measures how much of the run was disturbed.  Two
    defences, one per kind of loop:

    * operations that are alike (``batch_cold``, ``serve_http``,
      ``join_self``): the samples, in time order, are cut into ``rounds``
      equal runs of consecutive operations; each round has its own
      throughput, median and 95th percentile, and the reported value is
      the quartile of those on the good side (third for throughput, first
      for latency) — it reads the undisturbed rounds as long as a quarter
      of them are;
    * operations that are not alike but are repeated (``batch_hot`` cycles
      a pool of batches; ``measured.keys`` says which): every distinct
      operation keeps its fastest repetition, and throughput and
      percentiles are taken over those.
    """
    if measured.keys:
        fastest: dict = {}
        for key, latency in zip(measured.keys, measured.latencies_ms):
            fastest[key] = min(latency, fastest.get(key, latency))
        quiet = list(fastest.values())
        return (
            1000.0 * len(quiet) * measured.per_sample / sum(quiet),
            percentile(quiet, 0.50),
            percentile(quiet, 0.95),
        )
    samples = sorted(zip(measured.stamps, measured.latencies_ms))
    size = len(samples) // rounds
    if size < 2:
        rounds, size = 1, len(samples)
    rates, medians, tails = [], [], []
    previous = 0.0
    for index in range(rounds):
        chunk = samples[index * size : (index + 1) * size]
        latencies = [latency for _, latency in chunk]
        rates.append(size * measured.per_sample / (chunk[-1][0] - previous))
        medians.append(percentile(latencies, 0.50))
        tails.append(percentile(latencies, 0.95))
        previous = chunk[-1][0]
    return (
        percentile(rates, 0.75),
        percentile(medians, 0.25),
        percentile(tails, 0.25),
    )


def run_end_to_end(workload, setups: int):
    from spans import SILENT

    setup_seconds = []
    try:
        for repeat in range(setups):
            if repeat:
                workload.teardown()
            started = time.perf_counter()
            workload.setup(SILENT)
            setup_seconds.append(time.perf_counter() - started)
        measured = workload.measure()
        index_mb = workload.index_mb()
        mismatches = workload.check(measured)
    finally:
        workload.teardown()
    ops_per_s, p50, p95 = steady(measured, workload.rounds)
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": ops_per_s,
        "latency_ms_p50": p50,
        "latency_ms_p95": p95,
        "peak_rss_mb": workload.peak_rss_mb(),
        "index_mb": index_mb,
    }
    failed = min(measured.operations, measured.failed + mismatches)
    samples = len(measured.latencies_ms)
    how = (
        f"{len(set(measured.keys))} distinct, fastest repetition kept"
        if measured.keys
        else f"{workload.rounds} rounds"
    )
    print(
        f"  timed {measured.wall_s:.2f} s: {measured.operations} operations, "
        f"{samples} latency samples ({how}), {mismatches} oracle mismatches, "
        f"fail_ratio {failed / measured.operations:.6f}"
    )
    for note, value in measured.notes.items():
        print(f"  {note} = {value}")
    return metrics, measured.operations, failed


def run_traced(workload, config):
    from layers import trace_workload
    from spans import Recorder

    recorder = Recorder()
    started = time.perf_counter()
    try:
        measured, fall, mismatches = trace_workload(workload, recorder)
    finally:
        workload.teardown()
    metrics = {spec["name"]: 0.0 for spec in SPEC["per_layer"]}
    unknown = set(measured) - set(metrics)
    if unknown:
        raise RuntimeError(f"layer metrics not in BENCHMARK.json: {unknown}")
    metrics.update(measured)
    print(f"  waterfall of {workload.name} (ms):")
    for stage, value in fall["stages_ms"].items():
        share = value / fall["whole_ms"] if fall["whole_ms"] else 0.0
        print(f"    {stage:<34} {value:>12.4f}  {share:>6.1%}")
    flag = "reconciled" if fall["reconciled"] else "unreconciled"
    print(
        f"    {'whole':<34} {fall['whole_ms']:>12.4f}  "
        f"sum_of_stages/whole = {fall['sum_over_whole']:.3f}  {flag}"
    )
    trace_path = config.out_dir / f"trace-{workload.name}.jsonl"
    recorder.write(
        trace_path,
        {
            "workload": workload.name,
            "seed": config.seed,
            "scale": config.scale,
            "wall_s": time.perf_counter() - started,
            "waterfall": fall,
        },
    )
    print(f"  {len(recorder.spans)} spans -> {trace_path.relative_to(REPO)}")
    operations = max(1, len(recorder.spans))
    return metrics, operations, min(operations, mismatches)


def run_workload(args) -> int:
    sys.path.insert(0, str(REPO / "src"))
    from workloads import Config, make_workload

    OUT_DIR.mkdir(exist_ok=True)
    config = Config(
        seed=args.seed, seconds=args.seconds, scale=args.scale, out_dir=OUT_DIR
    )
    workload = make_workload(args.workload, config)
    print(
        f"{args.workload}: seed {config.seed}, scale {config.scale}, "
        f"{config.seconds} s, trace {args.trace}"
    )
    if args.trace:
        metrics, attempted, failed = run_traced(workload, config)
        specs = SPEC["per_layer"]
    else:
        metrics, attempted, failed = run_end_to_end(workload, args.setups)
        specs = SPEC["end_to_end"]
    reported = {}
    for spec in specs:
        value = float(metrics[spec["name"]])
        reported[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<40} {value:>14.4f} {spec['unit']}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0 if correct else 1


# ---------------------------------------------------------------------- #
# the whole benchmark: one child per workload, one at a time
# ---------------------------------------------------------------------- #
def fingerprint(args) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha or None,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "load_1min": os.getloadavg()[0],
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_child(name: str, args, trace: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--scale",
        str(args.scale),
        "--setups",
        str(args.setups),
        "--trace",
        str(trace),
    ]
    started = time.perf_counter()
    child = subprocess.run(command, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    lines = child.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if child.returncode not in (0, 1) or not lines:
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"{name} exited with code {child.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    if trace:
        summary = (OUT_DIR / f"trace-{name}.jsonl").read_text().split("\n", 1)[0]
        result["waterfall"] = json.loads(summary)["waterfall"]
    return result


def run_all(args) -> int:
    document = {
        "schema": SCHEMA,
        "claim": None,
        "env": fingerprint(args),
        "runs": [],
    }
    traces = [0, 1] if args.smoke else [args.trace]
    for repeat in range(args.repeat):
        for trace in traces:
            run = {"trace": trace, "workloads": {}}
            for name in WORKLOADS:
                run["workloads"][name] = run_child(name, args, trace)
            document["runs"].append(run)
    OUT_DIR.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    if args.record:
        with open(OUT_DIR / "history.jsonl", "a", encoding="utf-8") as history:
            history.write(json.dumps(document) + "\n")
    from compare import summarize

    ok = summarize(document, SPEC)
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(SPEC["run_seconds"]),
        help="how long each workload's timed loop runs",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: the traced run (per-layer metrics, waterfalls)",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setups", type=int, default=SETUP_REPEATS)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="result file (default out/result.json)")
    parser.add_argument(
        "--record", action="store_true", help="append to out/history.jsonl"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="scale 0.05, 1 s, both runs"
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare_files

        return compare_files(args.compare[0], args.compare[1], SPEC)
    if args.smoke:
        args.scale, args.seconds, args.setups = SMOKE_SCALE, 1.0, 1
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
