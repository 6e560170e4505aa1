"""The presto_federated_join scenario: determinism, artifact reuse that
engages and invalidates, and the same answers as a run without reuse."""

from __future__ import annotations

from repro.bench.scenarios import presto_federated_join
from repro.common.perf import PERF, measured
from repro.common.records import reset_uid_counter

PARAMS = {
    "records": 1_500,
    "keys": 12,
    "segment_rows": 125,
    "query_rounds": 6,
}

#: This parameter set at commit 8726322 with ``artifact_reuse=False`` and
#: the row connector — every stage of every query recomputed, the path
#: PR 18 deleted: its ``check``, and how much work it counted.
NO_REUSE_CHECK = 38807925840314
NO_REUSE_STAGE_EXECUTIONS = 114
NO_REUSE_JOIN_PROBE_ROWS = 38_244


def run():
    reset_uid_counter()
    with measured():
        outcome = presto_federated_join(dict(PARAMS), 42)
        counters = PERF.snapshot()
    return outcome, counters


def test_artifact_reuse_doubles_throughput_without_changing_results():
    outcome, counters = run()
    # Same seeded workload, same answers as recomputing everything: the
    # digest covers every query's rows in every round, including the
    # rounds after the mid-bench ingest burst — so a stale artifact
    # surviving the TableEpoch bump would break this equality.
    assert outcome.check == NO_REUSE_CHECK
    # Reuse must actually fire: most stages are artifact hits, and the
    # plan executes less than half the stages recomputing everything did.
    assert counters["presto.stage_artifact_hits"] > 0
    assert 2 * counters["presto.stage_executions"] <= NO_REUSE_STAGE_EXECUTIONS
    # Deterministic: a second run reproduces counters exactly.
    again, again_counters = run()
    assert again.check == outcome.check
    assert again_counters == counters


def test_epoch_bump_forces_recompute_midway():
    # The ingest burst at round query_rounds//2 must invalidate every
    # rides-derived artifact: the join work runs again after the burst, so
    # probe counters exceed a single execution of the plan but stay far
    # below an every-round replay.
    __, counters = run()
    probes = counters["presto.join_probe_rows"]
    # Two computations (before + after the burst) over ~records rows each.
    assert probes > PARAMS["records"]
    assert probes < NO_REUSE_JOIN_PROBE_ROWS / 2
