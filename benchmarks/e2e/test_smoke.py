"""Smoke test of the end-to-end benchmark (``run.py --smoke``, < 30 s).

Not part of tier 1 (``testpaths = ["tests"]``); run it by path::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Asserts the result schema, that the metric and workload names are exactly
those of ``BENCHMARK.json``, that every oracle check passed, and that every
waterfall reconciles.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = {"batch_hot", "batch_cold", "serve_http", "join_self"}


def test_spec_names_the_benchmark():
    assert {w["name"] for w in SPEC["workloads"]} == WORKLOADS
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert len(SPEC["per_layer"]) == 41
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_smoke_run(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads(out.read_text())
    assert document["schema"] == "repro.e2e/v1"
    assert document["claim"] is None
    for key in ("nproc", "python", "numpy", "git_sha", "seed", "scale", "load_1min"):
        assert key in document["env"]
    assert [run["trace"] for run in document["runs"]] == [0, 1]
    names = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for run in document["runs"]:
        assert set(run["workloads"]) == WORKLOADS
        for workload, result in run["workloads"].items():
            assert result["correct"] is True, workload
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert result["wall_s"] > 0
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            assert reported == names[run["trace"]], workload
            if run["trace"]:
                assert result["waterfall"]["reconciled"], (
                    workload,
                    result["waterfall"],
                )
            else:
                assert all(v["value"] > 0 for v in result["metrics"].values())
