"""The pinot_selective_query scenario: determinism, the pruning + cache
payoff, and the same answers as the scatter path this repo used to have."""

from __future__ import annotations

from repro.bench.scenarios import pinot_selective_query
from repro.common.perf import PERF, measured
from repro.common.records import reset_uid_counter

PARAMS = {
    "records": 3_000,
    "keys": 16,
    "segment_rows": 250,
    "query_rounds": 4,
}


#: ``check`` of this parameter set at commit 8726322 with ``sticky=False``
#: — per-query replica rotation, no scan sharing, selections built as row
#: dicts in the segment scan — the path PR 18 deleted.  Pruning and the
#: result cache on or off, that run digested to the same value.
SCATTER_ROW_CHECK = 47226603786790


def run(pruning: bool, cache: bool):
    params = dict(PARAMS, pruning=pruning, cache=cache)
    reset_uid_counter()
    with measured():
        outcome = pinot_selective_query(params, 42)
        counters = PERF.snapshot()
    return outcome, counters


def test_pruning_and_cache_double_throughput_without_changing_results():
    optimized, opt_counters = run(pruning=True, cache=True)
    ablated, abl_counters = run(pruning=False, cache=False)
    # Same seeded workload, same answers: the digest covers every query's
    # rows in every round — and they are the answers the deleted scatter
    # path gave.
    assert optimized.check == ablated.check == SCATTER_ROW_CHECK
    # The optimizations must actually fire...
    assert opt_counters["pinot.segments_pruned"] > 0
    assert opt_counters["pinot.bloom_checks"] > 0
    assert opt_counters["pinot.cache_hits"] > 0
    assert "pinot.segments_pruned" not in abl_counters
    assert "pinot.cache_hits" not in abl_counters
    # With neither step, repeat rounds reach the servers again, which is
    # where sticky routing pays: the same segment lands on the same
    # server and its scan-share cache answers.
    assert abl_counters["pinot.scanshare_hits"] > 0
    # ...and pay off in counted work: at least twice as many segments
    # are scanned without them.
    assert (
        2 * opt_counters["pinot.segments_scanned"]
        <= abl_counters["pinot.segments_scanned"]
    )
    # Deterministic: a second optimized run reproduces counters exactly.
    again, again_counters = run(pruning=True, cache=True)
    assert again.check == optimized.check
    assert again_counters == opt_counters


def test_pruning_alone_reduces_segments_scanned():
    __, pruned_counters = run(pruning=True, cache=False)
    __, full_counters = run(pruning=False, cache=False)
    assert (
        pruned_counters["pinot.segments_scanned"]
        < full_counters["pinot.segments_scanned"]
    )
