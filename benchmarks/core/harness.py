"""Scenario runner and the exact comparison against ``BENCH_core.json``.

A scenario executes under :class:`repro.common.perf.measured`, which
enables the global counters for exactly the scenario's duration.  What
comes out is what the workload *did* — how many records went through,
a digest of its results, and every counted hot-path operation — and
nothing about how long it took: time is the stopwatch's business
(``benchmarks/e2e``).

Report layout (``BENCH_core.json``)::

    {
      "schema_version": 2,
      "seed": 42,
      "scenarios": {
        "<name>": {
          "records": ...,   # workload size (records through the pipeline)
          "check": ...,     # digest of the results (answers, not speed)
          "counters": {...} # every perf counter the scenario moved
        }
      }
    }

Everything in the file is an integer derived from the seeded workload, so
two runs with the same seed produce byte-identical bytes on any machine,
and the gate is integer equality: :func:`compare_reports` lists every
value that differs from the committed file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import ReproError
from repro.common.perf import measured

from benchmarks.core.scenarios import SCENARIOS

SCHEMA_VERSION = 2
DEFAULT_SEED = 42


class BenchError(ReproError):
    """Harness misuse: unknown scenario, unusable baseline file."""


@dataclass
class ScenarioResult:
    name: str
    records: int
    check: int
    counters: dict[str, int]


@dataclass
class BenchReport:
    seed: int
    results: list[ScenarioResult] = field(default_factory=list)


def run_scenarios(
    names: list[str] | None = None, seed: int = DEFAULT_SEED
) -> BenchReport:
    """Run the named scenarios (default: all) and collect results."""
    by_name = {spec.name: spec for spec in SCENARIOS}
    unknown = [n for n in names or () if n not in by_name]
    if unknown:
        raise BenchError(
            f"unknown scenario(s) {unknown}; available: {sorted(by_name)}"
        )
    report = BenchReport(seed=seed)
    specs = [by_name[n] for n in names] if names else SCENARIOS
    for spec in specs:
        with measured() as counters:
            outcome = spec.fn(dict(spec.params), seed)
            counts = counters.snapshot()
        report.results.append(
            ScenarioResult(spec.name, outcome.records, outcome.check, counts)
        )
    return report


# -- serialization -------------------------------------------------------------


def build_report(report: BenchReport) -> dict:
    """The report as a JSON-ready dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": report.seed,
        "scenarios": {
            r.name: {"records": r.records, "check": r.check, "counters": r.counters}
            for r in report.results
        },
    }


def report_to_json(report: BenchReport) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing
    newline.  Byte-identical across runs with the same seed."""
    return json.dumps(build_report(report), indent=2, sort_keys=True) + "\n"


# -- the gate ------------------------------------------------------------------


def load_report(path: str | Path, seed: int = DEFAULT_SEED) -> dict:
    """Read a report file, rejecting anything a run with ``seed`` cannot
    be compared with."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), dict):
        raise BenchError(f"baseline {path} has no 'scenarios' section")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise BenchError(
            f"baseline {path} has schema_version={doc.get('schema_version')}, "
            f"this harness writes {SCHEMA_VERSION}; regenerate it with --write"
        )
    if doc.get("seed") != seed:
        raise BenchError(
            f"baseline {path} was written with seed={doc.get('seed')}, not {seed}"
        )
    return doc


def compare_reports(current: dict, baseline: dict) -> list[str]:
    """One line per value on which two report documents differ —
    ``scenario  counter  committed  now  delta`` — empty when they agree
    exactly.  A scenario present on one side only is a difference."""
    lines = []
    was_all, now_all = baseline["scenarios"], current["scenarios"]
    for scenario in sorted(set(was_all) | set(now_all)):
        if scenario not in was_all or scenario not in now_all:
            side = "this run" if scenario in was_all else "the baseline"
            lines.append(f"{scenario}  not in {side}")
            continue
        was, now = was_all[scenario], now_all[scenario]
        was_c, now_c = was.get("counters", {}), now.get("counters", {})
        pairs = [(k, was.get(k), now.get(k)) for k in ("records", "check")]
        pairs += [(k, was_c.get(k), now_c.get(k)) for k in sorted({*was_c, *now_c})]
        for name, a, b in pairs:
            if a != b:
                # A digest has no magnitude; nor has a counter that one
                # side never moved.
                sized = name != "check" and a and b is not None
                delta = f"{(b - a) / a:+.2%}" if sized else "-"
                lines.append(f"{scenario}  {name}  {a}  {b}  {delta}")
    return lines
