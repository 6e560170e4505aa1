"""stream_join scenario: reproducibility and crash-restore equivalence.

Same-seed reruns digest identically, the crash-restore variant digests
identically to the fault-free run — over three seeds — and the scenario
actually exercises the paths it claims to (joins emitted, state evicted,
duplicate deliveries absorbed by the store).
"""

from __future__ import annotations

from benchmarks.core.scenarios import SCENARIOS
from repro.common.perf import PERF, measured

SPEC = next(s for s in SCENARIOS if s.name == "stream_join")

SEEDS = (42, 7, 2021)

# A quarter of the registered size (~0.2 s a run), every horizon and
# rate unchanged: this runs inside tier-1 on every push.
PARAMS = dict(SPEC.params, records=2_000, keys=256, reads=200)


def run(seed, crash_restore=False):
    with measured():
        outcome = SPEC.fn(dict(PARAMS, crash_restore=crash_restore), seed)
        counters = dict(PERF.counts)
    return outcome, counters


def test_same_seed_runs_digest_identically():
    for seed in SEEDS:
        first, __ = run(seed)
        second, __ = run(seed)
        assert (first.check, first.records) == (second.check, second.records)


def test_different_seeds_diverge():
    assert len({run(seed)[0].check for seed in SEEDS}) == len(SEEDS)


def test_crash_restore_digest_matches_fault_free_run():
    # 2PC sink, mid-run checkpoint, crash + restore from it, replay: the
    # join's snapshot/restore, the bounded readers' watermark rewind and
    # the store's idempotent absorption of replayed writes are all inside
    # this equality.
    for seed in SEEDS:
        plain, __ = run(seed)
        crashed, __ = run(seed, crash_restore=True)
        assert (plain.check, plain.records) == (crashed.check, crashed.records)


def test_scenario_exercises_the_join_and_store_paths():
    __, counters = run(42)
    assert counters["flink.join_rows_out"] > 0
    assert counters["flink.join_evictions"] > 0
    assert counters["features.writes"] > 0
    assert counters["features.duplicate_writes"] > 0
    assert counters["features.reads"] > 0


def test_registered_config_is_fault_free():
    # The gated run is the steady-state path; the crash variant is this
    # file's business.
    assert "crash_restore" not in SPEC.params
