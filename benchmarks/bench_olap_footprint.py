"""Experiment C3 — §4.3: Pinot vs Elasticsearch footprint and latency.

Paper: "With the same amount of data ingested into Elasticsearch and
Pinot, Elasticsearch's memory usage was 4x higher and disk usage was 8x
higher than Pinot.  In addition, Elasticsearch's query latency was 2x-4x
higher than Pinot, benchmarked with a combination of filters, aggregation
and group by/order by queries."

Same rows into both stores; disk = serialized representation, memory =
retained bytes, latency = wall time of the paper's query mix.  The two
footprints are byte counts that repeat for a seed and are asserted; the
latency factor is printed as read, never asserted (one stopwatch reading
is not a measurement).
"""

from __future__ import annotations

import time

from repro.pinot.baselines.docstore import DocStore
from repro.pinot.query import Aggregation, Filter, PinotQuery, execute_on_segment
from repro.pinot.segment import ImmutableSegment, IndexConfig

from benchmarks.conftest import order_rows, print_table

N_ROWS = 20_000

QUERY_MIX = [
    # filter + aggregation
    PinotQuery("t", aggregations=[Aggregation("COUNT")],
               filters=[Filter("restaurant_id", "=", "rest-3")]),
    # filter + group by + order by
    PinotQuery("t", aggregations=[Aggregation("SUM", "amount")],
               filters=[Filter("status", "=", "delivered")],
               group_by=["restaurant_id"],
               order_by=[("sum(amount)", True)], limit=10),
    # range filter + aggregation
    PinotQuery("t", aggregations=[Aggregation("AVG", "amount")],
               filters=[Filter("amount", "BETWEEN", low=20.0, high=60.0)]),
    # group by two dims
    PinotQuery("t", aggregations=[Aggregation("COUNT")],
               group_by=["restaurant_id", "status"], limit=100),
]


def build_stores():
    rows = order_rows(N_ROWS)
    columns = {name: [r[name] for r in rows] for name in rows[0]}
    segment = ImmutableSegment(
        "seg", columns,
        IndexConfig(
            inverted=frozenset({"restaurant_id", "status", "item"}),
            range_indexed=frozenset({"amount"}),
            sort_column="event_time",
        ),
    )
    docstore = DocStore()
    docstore.bulk_index(rows)
    return segment, docstore


def _time_queries(run_query) -> float:
    start = time.perf_counter()
    for query in QUERY_MIX:
        for __ in range(5):
            run_query(query)
    return time.perf_counter() - start


def run_comparison():
    segment, docstore = build_stores()
    pinot_latency = _time_queries(lambda q: execute_on_segment(segment, q))
    es_latency = _time_queries(docstore.execute)
    return {
        "pinot": (segment.disk_bytes(), segment.memory_bytes(), pinot_latency),
        "elasticsearch": (
            docstore.disk_bytes(), docstore.memory_bytes(), es_latency,
        ),
    }


def test_pinot_vs_elasticsearch(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    pinot_disk, pinot_mem, pinot_lat = results["pinot"]
    es_disk, es_mem, es_lat = results["elasticsearch"]
    print_table(
        f"C3: same {N_ROWS} rows in both stores",
        ["store", "disk bytes", "memory bytes", "query-mix latency (s, as read)"],
        [
            ["pinot", pinot_disk, pinot_mem, f"{pinot_lat:.4f}"],
            ["elasticsearch", es_disk, es_mem, f"{es_lat:.4f}"],
            [
                "ratio (es/pinot)",
                f"{es_disk / pinot_disk:.1f}x",
                f"{es_mem / pinot_mem:.1f}x",
                f"{es_lat / pinot_lat:.1f}x (as read)",
            ],
        ],
    )
    # Paper: disk 8x, memory 4x, latency 2x-4x.  Shape asserts, in bytes:
    assert es_disk > 4 * pinot_disk
    assert es_mem > 2 * pinot_mem
    benchmark.extra_info.update(
        disk_ratio=es_disk / pinot_disk,
        memory_ratio=es_mem / pinot_mem,
        latency_ratio=es_lat / pinot_lat,
    )
