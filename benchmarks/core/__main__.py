"""CLI: ``PYTHONPATH=src python -m benchmarks.core``, from the repo root.

Runs the scenarios and compares every ``records``, ``check`` and counter
with the committed ``BENCH_core.json``, exactly; ``--scenario`` runs —
and compares — a subset; ``--write`` regenerates the file instead.

Exit codes: 0 identical (or written), 1 something moved (one line per
value), 2 usage error or unusable baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from benchmarks.core.harness import (
    DEFAULT_SEED,
    BenchError,
    build_report,
    compare_reports,
    load_report,
    report_to_json,
    run_scenarios,
)
from benchmarks.core.scenarios import scenario_names

BASELINE = Path("BENCH_core.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.core",
        description=f"Compare counted work and result digests with {BASELINE}.",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help=f"run only the named scenario(s); available: {scenario_names()}",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"regenerate {BASELINE} from a full run instead of comparing",
    )
    args = parser.parse_args(argv)
    if args.write and args.scenario:
        parser.error(f"--write regenerates all of {BASELINE}; drop --scenario")

    try:
        if args.write:
            BASELINE.write_text(report_to_json(run_scenarios(seed=args.seed)))
            print(f"wrote {BASELINE}")
            return 0
        baseline = load_report(BASELINE, args.seed)
        if args.scenario:  # a subset run is compared with what it ran
            baseline["scenarios"] = {
                name: entry
                for name, entry in baseline["scenarios"].items()
                if name in args.scenario
            }
        report = run_scenarios(names=args.scenario, seed=args.seed)
        moved = compare_reports(build_report(report), baseline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if moved:
        print("scenario  counter  committed  now  delta")
        print("\n".join(moved))
        print(f"{len(moved)} value(s) differ from {BASELINE} (seed {args.seed})")
        return 1
    print(
        f"{len(report.results)} scenario(s) match {BASELINE} exactly "
        f"(seed {args.seed})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
