"""Shared (cached) surge runs for the property and bench tests.

``run_surge`` is deterministic, so one run per (control, seed) pair is
enough for every assertion in the suite — the helpers memoize the
reports to keep the expensive simulations from repeating per test.
"""

from __future__ import annotations

from functools import lru_cache

from repro.controlplane.surge import run_surge

SEED = 2021

#: Scaled-down but still overload-inducing surge: same records-per-
#: segment ratio as the bench scenario, ~6s wall per run.
SMALL_PARAMS = {
    "records": 3_000,
    "segment_rows": 250,
    "users": 500_000,
    "base_rps": 8.0,
    "duration": 90.0,
    "spike_start": 30.0,
    "spike_end": 60.0,
    "broker_kill_at": 45.0,
    "broker_restart_at": 65.0,
}


@lru_cache(maxsize=None)
def controlled_run(seed: int = SEED):
    return run_surge(dict(SMALL_PARAMS, control=True), seed)


@lru_cache(maxsize=None)
def controlled_rerun(seed: int = SEED):
    """A second, independent run with the same seed (for determinism)."""
    return run_surge(dict(SMALL_PARAMS, control=True), seed)


@lru_cache(maxsize=None)
def ablation_run(seed: int = SEED):
    return run_surge(dict(SMALL_PARAMS, control=False), seed)


#: ``controlled_run(2021)`` at commit 8726322 with ``sticky=False`` —
#: per-query replica and stage-worker rotation, no scan sharing, a keyless
#: serving queue, selections built as row dicts — the path PR 18 deleted.
#: The two long fields are digests (``repro.common.serde.digest``)
#: of ``sorted(report.query_digests.items())`` and ``report.decision_log``.
SCATTER_RUN = {
    "check": 217369667414964,
    "admitted": 2240,
    "shed": 36,
    "query_digests": 25948983045457,
    "decision_log": 55335793384962,
}
