"""repro.bench harness: report schema, determinism, the committed values."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.harness import (
    SCHEMA_VERSION,
    BenchError,
    build_report,
    compare_reports,
    load_report,
    report_to_json,
    run_scenarios,
)
from repro.bench.scenarios import SCENARIOS, scenario_names

COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_core.json"


def test_report_is_byte_identical_across_runs():
    names = ["kafka_produce_fetch", "flink_window"]
    first = report_to_json(run_scenarios(names=names))
    second = report_to_json(run_scenarios(names=names))
    assert first == second


def test_report_schema_is_stable():
    report = run_scenarios(names=["flink_window"])
    doc = json.loads(report_to_json(report))
    assert set(doc) == {"schema_version", "seed", "scenarios"}
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["seed"] == 42
    scenario = doc["scenarios"]["flink_window"]
    assert set(scenario) == {"records", "check", "counters"}
    assert scenario["records"] > 0
    # Counted work and a digest: every value in the file is an integer.
    assert all(type(n) is int for n in scenario["counters"].values())
    assert type(scenario["check"]) is int


def test_sub_second_scenarios_reproduce_the_committed_file_exactly():
    # "Same seed -> the committed bytes" for every scenario cheap enough
    # for tier-1; CI's ``python -m repro.bench`` adds controlplane_surge.
    names = [n for n in scenario_names() if n != "controlplane_surge"]
    assert len(names) == len(SCENARIOS) - 1 == 7
    committed = load_report(COMMITTED)
    assert sorted(committed["scenarios"]) == sorted(scenario_names())
    del committed["scenarios"]["controlplane_surge"]
    assert compare_reports(build_report(run_scenarios(names=names)), committed) == []


def test_unknown_scenario_is_rejected():
    with pytest.raises(BenchError, match="unknown scenario"):
        run_scenarios(names=["does_not_exist"])
