"""The counted-work gate: same work, same answers, exactly.

``PYTHONPATH=src python -m benchmarks.core`` (from the repo root) runs the
eight seeded scenarios of :mod:`~benchmarks.core.scenarios` under the perf
counters and holds every ``records``, ``check`` and counter to
``BENCH_core.json`` (:mod:`~benchmarks.core.harness`).  The
``controlplane_surge`` scenario's driver, workload generator and queue
model are :mod:`~benchmarks.core.surge`, :mod:`~benchmarks.core.workload`
and :mod:`~benchmarks.core.queueing`.  Speed is the stopwatch's business
(``benchmarks/e2e``).
"""
