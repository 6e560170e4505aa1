"""The pinot_selective_query scenario: determinism, the pruning + cache
payoff, and the same answers as the scatter path this repo used to have."""

from __future__ import annotations

import pytest

from benchmarks.core.scenarios import pinot_selective_query
from repro.common.perf import PERF, measured
from repro.pinot.broker import PinotBroker

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


@pytest.fixture
def run(monkeypatch):
    """Run the scenario; also answer how many segments its table holds."""
    brokers = []
    init = PinotBroker.__init__

    # On the class, so the capture holds however the scenario imports it.
    def kept_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        brokers.append(self)

    monkeypatch.setattr(PinotBroker, "__init__", kept_init)

    def run_once():
        with measured():
            outcome = pinot_selective_query(PARAMS, 42)
            counters = PERF.snapshot()
        ingestion = brokers[-1].controller.table("rides").ingestion
        segments = sum(
            len(ingestion.segments_of_partition(p)) for p in ingestion.partitions
        )
        return outcome, counters, segments

    return run_once


def test_pruning_and_cache_double_throughput_without_changing_results(run):
    outcome, counters, segments = run()
    # The digest covers every query's rows in every round — and they are
    # the answers the deleted scatter path gave.
    assert outcome.check == SCATTER_ROW_CHECK
    # The optimizations must actually fire...
    assert counters["pinot.segments_pruned"] > 0
    assert counters["pinot.bloom_checks"] > 0
    assert counters["pinot.cache_hits"] > 0
    # ...and pay off in counted work: a full scatter of every query asked
    # would scan at least twice the segments.
    asked = counters["pinot.cache_hits"] + counters["pinot.cache_misses"]
    assert 2 * counters["pinot.segments_scanned"] <= asked * segments
    # Deterministic: a second run reproduces counters exactly.
    again, again_counters, __ = run()
    assert again.check == outcome.check
    assert again_counters == counters


def test_pruning_alone_reduces_segments_scanned(run):
    __, counters, segments = run()
    # Only the queries the cache missed reached the servers; pruning kept
    # them off some of the table's segments.
    reached = counters["pinot.cache_misses"]
    assert counters["pinot.segments_scanned"] < reached * segments
