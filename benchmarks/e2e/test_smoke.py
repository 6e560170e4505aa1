"""Smoke test of the benchmark itself, at a fiftieth of the work.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of tier-1 (``testpaths = ["tests"]`` does not collect it).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload]
        + ["--seed", "42", "--trace", str(trace), "--scale", "0.02"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_the_declared_end_to_end_metrics(workload):
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_the_phase_and_writes_spans(workload):
    result = run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == declared("per_layer")
    assert metrics["bench.layer_coverage"]["value"] >= 0.90
    spans = json.loads((HERE / "out" / f"spans-{workload}-42.json").read_text())
    assert spans["columns"] == ["name", "start_s", "end_s", "parent", "trace"]
    assert spans["spans"]
    assert all(end >= start for __, start, end, __, __ in spans["spans"])
    if workload == "join_backfill":  # Platform(tracing=False) must cost nothing
        assert metrics["observability.spans_recorded"]["value"] == 0
        assert metrics["flink.late_dropped"]["value"] == 0

