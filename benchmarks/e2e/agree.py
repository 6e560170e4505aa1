"""Do two sets of runs of the same code agree?

    python3 benchmarks/e2e/agree.py [--runs 5] [--workload NAME ...]

Runs two interleaved sets (A, B, A, B, ...) of untraced runs per workload,
run ``i`` of either set with seed ``first_seed + i``, and prints for every
end-to-end metric both sets' median, quartiles and spread (distance between
the quartiles over the median).  Exits non-zero unless, for every metric
and workload, set B's median is no worse than set A's by more than the
metric's bound in BENCHMARK.json and both spreads are within that bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int) -> dict:
    command = [*SPEC["command"], "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=180
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if result["failed"] or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    low, median, high = statistics.quantiles(values, n=4)
    return median, low, high, (high - low) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workload",
        action="append",
        choices=[w["name"] for w in SPEC["workloads"]],
        help="repeatable; default: every workload",
    )
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]

    runs: dict[tuple[str, str], list[dict]] = {}
    for i in range(args.runs):
        for which in "AB":
            for workload in workloads:
                metrics = one_run(workload, args.first_seed + i)
                runs.setdefault((workload, which), []).append(metrics)
                print(f"run {i} set {which} {workload}: {metrics}", flush=True)

    disagreements = 0
    for workload in workloads:
        print(f"\n{workload}")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            a = summary([run[name] for run in runs[(workload, "A")]])
            b = summary([run[name] for run in runs[(workload, "B")]])
            worse = sign * (b[0] - a[0]) / a[0]
            ok = worse <= bound and a[3] <= bound and b[3] <= bound
            disagreements += not ok
            for which, (median, low, high, spread) in (("A", a), ("B", b)):
                print(
                    f"  {name:18} {which} median={median:<10.5g} "
                    f"q1={low:<10.5g} q3={high:<10.5g} spread={spread:6.2%}"
                )
            print(
                f"  {name:18} B worse than A by {worse:+.2%} "
                f"(bound {bound:.0%}, a third of it {bound / 3:.1%}): "
                f"{'ok' if ok else 'DISAGREE'}"
            )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
