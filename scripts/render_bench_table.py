#!/usr/bin/env python
"""Render a before/after throughput table from two bench reports.

Reads the committed baseline (``BENCH_core.json``) and a fresh run
(``BENCH_quick.json``), and writes a markdown table of deterministic
rps per scenario with the relative change — the human-readable
companion CI uploads next to the raw JSON.  A second table summarizes
cache effectiveness — the three tiers of the one epoch-validated cache
(broker results, scan sharing, stage artifacts) in its ``stats()`` shape
of hits / misses / hit rate, plus the sticky queue's spills — from the
current run's counters, so a locality regression is visible at a glance
even when it stays inside the throughput gate's slack.  A third table
summarizes the join-state and feature-store counters (probe fan-out,
evictions, idempotent-write absorption) for the scenarios that exercise
them.  Rendering is read-only: the regression *gate* stays in
``python -m repro.bench --baseline``.

Usage: render_bench_table.py BASELINE CURRENT [OUT.md]

Exit codes: 0 rendered, 2 unreadable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load_scenarios(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read bench report {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return doc.get("scenarios", {})


#: tier -> (hit counter, miss counter): every tier of the one cache reads
#: the same way.  A stage that executed is a stage whose artifact lookup
#: missed, so the stage tier's misses are its executions.
CACHE_COUNTERS = {
    "broker result cache": ("pinot.cache_hits", "pinot.cache_misses"),
    "scan share": ("pinot.scanshare_hits", "pinot.scanshare_misses"),
    "stage artifacts": ("presto.stage_artifact_hits", "presto.stage_executions"),
}


def render_cache_table(current: dict) -> str:
    lines = [
        "| scenario | cache | hits | misses | hit rate |",
        "| --- | --- | ---: | ---: | ---: |",
    ]
    rows = 0
    for name in sorted(current):
        counters = current[name].get("counters", {})
        for label, (hit_key, miss_key) in CACHE_COUNTERS.items():
            hits = counters.get(hit_key, 0)
            misses = counters.get(miss_key, 0)
            if not hits + misses:
                continue  # tier never engaged in this scenario
            rate = hits / (hits + misses)
            lines.append(f"| {name} | {label} | {hits:,} | {misses:,} | {rate:.1%} |")
            rows += 1
        submits = counters.get("controlplane.queue_submits", 0)
        if submits:
            spills = counters.get("controlplane.queue_spills", 0)
            lines.append(
                f"| {name} | queue spills | {spills:,} | {submits:,} "
                f"| {spills / submits:.1%} |"
            )
            rows += 1
    if not rows:
        return ""
    lines.append("")
    lines.append(
        "cache rows report hits/(hits+misses); queue spills reports "
        "spills/submits (lower is stickier)."
    )
    return "\n".join(lines) + "\n"


#: label -> counter.  Join-state pressure and feature-store behaviour for
#: the interval-join scenarios; rows render only when a counter is live.
JOIN_COUNTERS = {
    "join probes": "flink.join_probes",
    "join rows out": "flink.join_rows_out",
    "join state appends": "flink.join_state_appends",
    "join evictions": "flink.join_evictions",
    "feature writes": "features.writes",
    "feature dup writes absorbed": "features.duplicate_writes",
    "feature reads": "features.reads",
    "feature versions probed": "features.versions_probed",
}


def render_join_table(current: dict) -> str:
    lines = [
        "| scenario | counter | count |",
        "| --- | --- | ---: |",
    ]
    rows = 0
    for name in sorted(current):
        counters = current[name].get("counters", {})
        for label, key in JOIN_COUNTERS.items():
            count = counters.get(key)
            if not count:
                continue
            lines.append(f"| {name} | {label} | {count:,} |")
            rows += 1
    if not rows:
        return ""
    lines.append("")
    lines.append(
        "probes count buffered opposite-side entries scanned per arrival "
        "(join fan-out); dup writes absorbed counts at-least-once "
        "deliveries the store deduplicated."
    )
    return "\n".join(lines) + "\n"


def render(baseline: dict, current: dict) -> str:
    lines = [
        "| scenario | baseline rps | current rps | change |",
        "| --- | ---: | ---: | ---: |",
    ]
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name, {}).get("rps")
        cur = current.get(name, {}).get("rps")
        if base is None:
            change = "new"
        elif cur is None:
            change = "missing"
        else:
            change = f"{cur / base - 1.0:+.1%}"
        fmt = lambda v: f"{v:,.1f}" if v is not None else "—"
        lines.append(f"| {name} | {fmt(base)} | {fmt(cur)} | {change} |")
    lines.append("")
    lines.append(
        "rps is deterministic (op-cost model), so the quick run is "
        "directly comparable to the committed full baseline."
    )
    out = "\n".join(lines) + "\n"
    cache_table = render_cache_table(current)
    if cache_table:
        out += "\n## Cache effectiveness (current run)\n\n" + cache_table
    join_table = render_join_table(current)
    if join_table:
        out += "\n## Join state & feature store (current run)\n\n" + join_table
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load_scenarios(Path(argv[1]))
    current = load_scenarios(Path(argv[2]))
    table = render(baseline, current)
    if len(argv) > 3:
        Path(argv[3]).write_text(table)
        print(f"wrote {argv[3]}")
    print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
