"""repro.bench — the deterministic gate: counted work and result digests.

The stopwatch (``benchmarks/e2e``, declared by ``BENCHMARK.json``) says
how fast the system is.  This package says whether it still does the
same work and gives the same answers, and says so exactly:

* :mod:`repro.bench.scenarios` registers eight seeded hot-path workloads —
  Kafka produce→fetch, a Flink window pipeline, an interval join feeding
  the feature store, Pinot ingest+query, selective Pinot queries, a Presto
  scan, a federated join, the control-plane surge — each at one parameter
  set, each driven under the simulated clock from a single seed.
* :mod:`repro.bench.harness` runs them under the perf counters threaded
  through the hot paths (:mod:`repro.common.perf`) and compares each
  scenario's ``records``, results digest (``check``) and every counter
  with the committed ``BENCH_core.json`` — integer equality, no tolerance.
* ``python -m repro.bench`` is the CLI and the CI gate: exit 1 with one
  line per moved value; ``--write`` regenerates the file, and the git
  diff of its integers is what a reviewer reads.

Two runs with the same seed emit byte-identical files on any machine.
Counts are not performance: nothing here prices an operation or reports
a rate.
"""

from repro.bench.harness import (
    BenchReport,
    ScenarioResult,
    build_report,
    compare_reports,
    load_report,
    report_to_json,
    run_scenarios,
)
from repro.bench.scenarios import SCENARIOS, scenario_names

__all__ = [
    "BenchReport",
    "SCENARIOS",
    "ScenarioResult",
    "build_report",
    "compare_reports",
    "load_report",
    "report_to_json",
    "run_scenarios",
    "scenario_names",
]
