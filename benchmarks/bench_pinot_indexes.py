"""Experiment C4 — §4.3: specialized indexes vs Druid-style scans.

Paper: Pinot "uses specialized indices for faster query execution such as
Startree, sorted and range indices, which could result in order of
magnitude difference of query latency" (the Druid comparison).

Same columnar data, four configurations: full scan (Druid-like baseline),
inverted index, sorted+range indexes, and star-tree.  The ladder is
asserted in quantities that repeat for a seed — docs examined by the plan,
cells the segment decoded or read, predicate calls — which is *why* one
rung is faster than the next; the wall factors are printed beside them as
read, never asserted (one stopwatch reading is not a measurement).
"""

from __future__ import annotations

import time

from repro.common.perf import measured
from benchmarks.foils.rowscan import ScanStore
from repro.pinot.query import (
    Aggregation,
    Filter,
    PinotQuery,
    execute_on_segment,
    group_fold,
)
from repro.pinot.segment import ImmutableSegment, IndexConfig
from repro.pinot.startree import StarTree, StarTreeConfig

from benchmarks.conftest import order_rows, print_table

N_ROWS = 30_000
REPEATS = 20

FILTER_QUERY = PinotQuery(
    "t",
    aggregations=[Aggregation("SUM", "amount")],
    filters=[Filter("restaurant_id", "=", "rest-7")],
    group_by=["item"],
    limit=50,
)

TIME_RANGE_QUERY = PinotQuery(
    "t",
    aggregations=[Aggregation("COUNT")],
    filters=[Filter("event_time", "BETWEEN", low=1000.0, high=2000.0)],
)


def build():
    # 200 restaurants: a realistically selective dashboard filter (~0.5%
    # of rows match), where index vs scan differences dominate.
    rows = order_rows(N_ROWS, restaurants=200)
    columns = {name: [r[name] for r in rows] for name in rows[0]}
    plain = ImmutableSegment("plain", columns)  # no indexes at all
    indexed = ImmutableSegment(
        "indexed", columns,
        IndexConfig(
            inverted=frozenset({"restaurant_id", "item", "status"}),
            range_indexed=frozenset({"amount"}),
            sort_column="event_time",
        ),
    )
    startree_segment = ImmutableSegment("startree", columns)
    startree_segment.startree = StarTree(
        rows,
        StarTreeConfig(dimensions=["restaurant_id", "item", "status"],
                       metrics=["amount"], max_leaf_records=100),
    )
    scanstore = ScanStore()
    scanstore.load_rows(rows, list(rows[0]))
    return plain, indexed, startree_segment, scanstore


def _on_segment(segment, query) -> dict:
    """One counted execution (the quantities that repeat), then the
    stopwatch over ``REPEATS`` more (reported only)."""
    with measured() as window:
        partial = execute_on_segment(segment, query)
        counts = dict(window.counts)
    start = time.perf_counter()
    for __ in range(REPEATS):
        execute_on_segment(segment, query)
    fold = group_fold(query)
    fold.merge(partial.groups)
    return {
        "wall_s": time.perf_counter() - start,
        "plan": partial.plan,
        "docs": partial.plan.docs_examined,
        # Cells the segment touched: bulk-decoded plus randomly read.
        "cells": counts.get("pinot.cells_decoded", 0)
        + counts.get("pinot.cell_reads", 0),
        "predicate_calls": counts.get("pinot.filter_evals", 0),
        "rows": fold.rows(),
    }


def _on_scanstore(scanstore, query) -> dict:
    """The Druid-like baseline: every filter evaluated on every row."""
    before = scanstore.docs_scanned
    rows = scanstore.execute(query)
    docs = scanstore.docs_scanned - before
    start = time.perf_counter()
    for __ in range(REPEATS):
        scanstore.execute(query)
    return {
        "wall_s": time.perf_counter() - start,
        "docs": docs,
        "cells": docs * len(query.filters),
        "predicate_calls": docs * len(query.filters),
        "rows": rows,
    }


def run_comparison():
    plain, indexed, startree_segment, scanstore = build()
    return {
        "druid-like scan": _on_scanstore(scanstore, FILTER_QUERY),
        "pinot no index": _on_segment(plain, FILTER_QUERY),
        "pinot inverted": _on_segment(indexed, FILTER_QUERY),
        "pinot star-tree": _on_segment(startree_segment, FILTER_QUERY),
        "druid-like (range q)": _on_scanstore(scanstore, TIME_RANGE_QUERY),
        "pinot no index (range q)": _on_segment(plain, TIME_RANGE_QUERY),
        "pinot sorted (range q)": _on_segment(indexed, TIME_RANGE_QUERY),
    }


def test_index_latency_ladder(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    def baseline(name: str) -> dict:
        ranged = "(range q)" in name
        return results["druid-like (range q)" if ranged else "druid-like scan"]

    print_table(
        f"C4: group-by/agg query over {N_ROWS} rows ({REPEATS} repeats timed)",
        ["configuration", "docs examined", "cells touched", "predicate calls",
         "latency (s)", "wall vs druid-like (as read)"],
        [
            [name, r["docs"], r["cells"], r["predicate_calls"],
             f"{r['wall_s']:.4f}", f"{baseline(name)['wall_s'] / r['wall_s']:.1f}x"]
            for name, r in results.items()
        ],
    )
    scan, plain = results["druid-like scan"], results["pinot no index"]
    inverted, startree = results["pinot inverted"], results["pinot star-tree"]
    # Every rung answers the same question the same way.
    assert plain["rows"] == inverted["rows"] == startree["rows"]
    assert sorted(map(repr, scan["rows"])) == sorted(map(repr, plain["rows"]))
    # No index: every doc examined, like the baseline — but in code space,
    # one predicate call per distinct restaurant instead of one per row.
    assert plain["docs"] == scan["docs"] == N_ROWS
    assert plain["plan"].access_paths == ["scan:restaurant_id"]
    assert plain["predicate_calls"] == 200 < scan["predicate_calls"] / 100
    # Inverted: the postings are the answer; only the ~0.5% matching docs'
    # group and metric cells are read.  An order of magnitude less work.
    assert inverted["plan"].access_paths == ["inverted:restaurant_id"]
    assert inverted["docs"] == 0 and inverted["predicate_calls"] == 0
    assert 0 < inverted["cells"] < plain["cells"] / 10
    # Star-tree: pre-aggregated records, no forward-index cell at all.
    assert startree["plan"].used_startree
    assert startree["docs"] < N_ROWS / 10 and startree["cells"] == 0
    # Range query: the sorted index turns BETWEEN into two bisects over doc
    # ids — nothing examined, decoded or compared per doc — where the
    # unindexed segment decodes the whole column (its filter is still two
    # bisects, on the dictionary) and the baseline compares every row.
    druid_range = results["druid-like (range q)"]
    plain_range = results["pinot no index (range q)"]
    sorted_range = results["pinot sorted (range q)"]
    assert sorted_range["rows"] == plain_range["rows"] == druid_range["rows"]
    assert sorted_range["rows"] == [{"count(*)": 1001}]
    assert sorted_range["plan"].access_paths == ["sorted:event_time"]
    assert sorted_range["docs"] == sorted_range["cells"] == 0
    assert plain_range["docs"] == druid_range["docs"] == N_ROWS
    assert plain_range["cells"] == N_ROWS and plain_range["predicate_calls"] == 0
    assert druid_range["predicate_calls"] == N_ROWS
    benchmark.extra_info.update(
        scan_over_inverted=scan["wall_s"] / inverted["wall_s"],
        scan_over_startree=scan["wall_s"] / startree["wall_s"],
    )
