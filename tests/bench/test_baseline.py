"""The exact gate: report comparison and the CLI's exit codes."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench import harness
from repro.bench.__main__ import BASELINE, main
from repro.bench.harness import (
    SCHEMA_VERSION,
    BenchError,
    compare_reports,
    load_report,
)
from repro.bench.scenarios import SCENARIOS

COMMITTED = Path(__file__).resolve().parents[2] / BASELINE


def _report(scenarios: dict, **overrides) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": 42,
        "scenarios": {
            name: {"records": 10, "check": 7, "counters": counters}
            for name, counters in scenarios.items()
        },
    }
    doc.update(overrides)
    return doc


def test_identical_reports_have_no_differences():
    doc = _report({"a": {"x.ops": 5}})
    assert compare_reports(copy.deepcopy(doc), doc) == []


def test_any_moved_value_is_a_line_naming_scenario_counter_and_both_values():
    baseline = _report({"a": {"x.ops": 100, "x.gone": 1}, "b": {"y.ops": 3}})
    current = _report({"a": {"x.ops": 101, "x.new": 2}, "b": {"y.ops": 3}})
    current["scenarios"]["a"]["check"] = 8
    assert compare_reports(current, baseline) == [
        "a  check  7  8  -",
        "a  x.gone  1  None  -",
        "a  x.new  None  2  -",
        "a  x.ops  100  101  +1.00%",
    ]


def test_doctored_double_baseline_fails():
    # Every value of the baseline doubled: every value gets its line.
    current = _report({"a": {"x.ops": 5, "x.allocs": 2}, "b": {"y.ops": 3}})
    doctored = copy.deepcopy(current)
    for scenario in doctored["scenarios"].values():
        scenario["records"] *= 2
        scenario["counters"] = {k: 2 * n for k, n in scenario["counters"].items()}
    lines = compare_reports(current, doctored)
    assert len(lines) == 2 + 3
    assert "a  x.ops  10  5  -50.00%" in lines


def test_missing_and_unbaselined_scenarios_both_fail():
    # A baseline scenario that did not run is a deleted workload; one that
    # ran without a baseline has nothing vouching for it.
    lines = compare_reports(
        _report({"kept": {}, "new_one": {}}), _report({"kept": {}, "gone": {}})
    )
    assert lines == ["gone  not in this run", "new_one  not in the baseline"]


def test_version_mismatch_is_rejected(tmp_path):
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(_report({}, schema_version=SCHEMA_VERSION - 1)))
    with pytest.raises(BenchError, match="schema_version"):
        load_report(stale)
    # Another seed's counts are not comparable either, and the CLI says so
    # before it runs anything.
    stale.write_text(json.dumps(_report({})))
    assert load_report(stale, seed=42)["seed"] == 42
    with pytest.raises(BenchError, match="seed=42, not 7"):
        load_report(stale, seed=7)


def test_cli_gate_exit_codes(tmp_path, monkeypatch, capsys):
    committed = json.loads(COMMITTED.read_text())
    monkeypatch.chdir(tmp_path)
    run = ["--scenario", "flink_window"]

    # Unusable baseline — missing, not JSON, another schema — is a usage
    # error, not a pass.
    assert main(run) == 2
    BASELINE.write_text("{")
    assert main(run) == 2
    BASELINE.write_text(json.dumps(dict(committed, schema_version=1)))
    assert main(run) == 2
    assert main(["--scenario", "does_not_exist"]) == 2
    with pytest.raises(SystemExit):
        main(["--write", *run])  # a subset cannot stand in for the file
    capsys.readouterr()

    # A subset run is compared with what it ran, not reported as seven
    # deleted workloads.
    BASELINE.write_text(json.dumps(committed))
    assert main(run) == 0
    assert "1 scenario(s) match" in capsys.readouterr().out

    # One counter off by one: exit 1, naming scenario, counter, both values.
    doctored = copy.deepcopy(committed)
    counters = doctored["scenarios"]["flink_window"]["counters"]
    now = counters["flink.channel_pushes"]
    counters["flink.channel_pushes"] = now + 1
    BASELINE.write_text(json.dumps(doctored))
    assert main(run) == 1
    out = capsys.readouterr().out
    assert f"flink_window  flink.channel_pushes  {now + 1}  {now}  " in out
    assert "1 value(s) differ" in out

    # A changed results digest: same.
    doctored = copy.deepcopy(committed)
    check = doctored["scenarios"]["flink_window"]["check"]
    doctored["scenarios"]["flink_window"]["check"] = check ^ 1
    BASELINE.write_text(json.dumps(doctored))
    assert main(run) == 1
    assert f"flink_window  check  {check ^ 1}  {check}  -" in capsys.readouterr().out

    # A scenario the baseline has never seen fails even a subset run.
    del doctored["scenarios"]["flink_window"]
    BASELINE.write_text(json.dumps(doctored))
    assert main(run) == 1
    assert "flink_window  not in the baseline" in capsys.readouterr().out


def test_full_run_writes_and_gates_on_the_whole_registry(
    tmp_path, monkeypatch, capsys
):
    # A full run at the registered sizes takes ~20 s; shrink the registry,
    # not the code path.
    committed = COMMITTED.read_text()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        harness, "SCENARIOS", [s for s in SCENARIOS if s.name == "flink_window"]
    )
    assert main(["--write"]) == 0
    assert json.loads(BASELINE.read_text()).keys() == json.loads(committed).keys()
    assert main([]) == 0

    # Baseline scenarios that are no longer registered fail a full run.
    BASELINE.write_text(committed)
    assert main([]) == 1
    out = capsys.readouterr().out
    assert "kafka_produce_fetch  not in this run" in out
    assert "7 value(s) differ" in out
