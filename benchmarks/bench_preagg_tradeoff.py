"""Experiment C11 — §5.2: transformation-time vs query-time processing.

Paper: "The preprocessing during transformation time can create optimized
indices and reduce the amount of data for serving, but it reduces the
query flexibility on the serving layer."

Series: dashboard-query latency and docs examined on the raw table vs the
Flink pre-aggregated table; plus the flexibility cost — an ad-hoc query
(group by eater) that the pre-aggregated table simply cannot answer.
"""

from __future__ import annotations

import time

from repro.common.clock import SimulatedClock
from repro.kafka.cluster import KafkaCluster
from repro.kafka.producer import Producer
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.usecases.restaurant import ORDERS_TOPIC, RestaurantManager
from repro.workloads import EatsWorkload

from benchmarks.conftest import pinot_stack, print_table

REPEATS = 10


def build():
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    manager = RestaurantManager.deploy(kafka, pinot_stack())
    workload = EatsWorkload(seed=29, orders_per_second=4.0)
    producer = Producer(kafka, "eats", clock=clock)
    events = sorted(workload.order_events(3600.0), key=lambda e: e[1])
    for row, __ in events:
        producer.send(ORDERS_TOPIC, row, key=row["restaurant_id"],
                      event_time=row["event_time"])
    producer.flush()
    manager.process(flink_rounds=500, ingest_steps=500)
    return manager


def run_comparison():
    manager = build()
    raw_query = PinotQuery(
        "eats_orders",
        aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
        filters=[Filter("restaurant_id", "=", "rest-0"),
                 Filter("status", "=", "delivered")],
        group_by=["item"],
        limit=20,
    )
    preagg_query = PinotQuery(
        "eats_orders_preagg",
        aggregations=[Aggregation("SUM", "orders"), Aggregation("SUM", "sales")],
        filters=[Filter("restaurant_id", "=", "rest-0")],
        group_by=["item"],
        limit=20,
    )
    out = {}
    for name, query in (("raw table", raw_query), ("pre-aggregated", preagg_query)):
        start = time.perf_counter()
        results = [manager.broker.execute(query) for __ in range(REPEATS)]
        out[name] = (
            time.perf_counter() - start,
            # The first execution does the work; the repeats are served
            # from the broker's result cache and examine nothing.
            results[0].docs_examined(),
            results[-1].rows,
        )
    # Raw rows behind each table (the serving-data reduction).
    raw_count = manager.broker.execute(
        PinotQuery("eats_orders", aggregations=[Aggregation("COUNT")])
    ).rows[0]["count(*)"]
    preagg_count = manager.broker.execute(
        PinotQuery("eats_orders_preagg", aggregations=[Aggregation("COUNT")])
    ).rows[0]["count(*)"]
    # Flexibility: per-eater breakdown exists only in the raw table.
    flexible = manager.broker.execute(
        PinotQuery("eats_orders", aggregations=[Aggregation("COUNT")],
                   group_by=["eater_id"], limit=5)
    )
    from repro.common.errors import QueryError, ReproError

    try:
        manager.broker.execute(
            PinotQuery("eats_orders_preagg", aggregations=[Aggregation("COUNT")],
                       group_by=["eater_id"], limit=5)
        )
        preagg_flexible = True
    except (QueryError, ReproError):
        preagg_flexible = False
    return out, raw_count, preagg_count, bool(flexible.rows), preagg_flexible


def test_preagg_tradeoff(benchmark):
    out, raw_count, preagg_count, raw_flex, preagg_flex = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    raw_lat, raw_docs, raw_rows = out["raw table"]
    pre_lat, pre_docs, pre_rows = out["pre-aggregated"]
    print_table(
        "C11: dashboard query (top items of one restaurant)",
        ["serving table", "rows stored", "docs examined", "latency (s)",
         "latency vs raw", "answers ad-hoc per-eater query"],
        [
            ["raw", raw_count, raw_docs, f"{raw_lat:.4f}", "1.00x",
             "yes" if raw_flex else "no"],
            ["pre-aggregated", preagg_count, pre_docs, f"{pre_lat:.4f}",
             f"{pre_lat / raw_lat:.2f}x", "yes" if preagg_flex else "no"],
        ],
    )
    # Pre-aggregation reduces serving data and work (the latency column is
    # one stopwatch reading: reported above, not asserted)...
    assert preagg_count < raw_count / 2
    assert 0 < pre_docs < raw_docs
    # ...at the price of flexibility.
    assert raw_flex and not preagg_flex
    # And both agree where they overlap (delivered counts per item).
    raw_by_item = {r["item"]: r["count(*)"] for r in raw_rows}
    pre_by_item = {r["item"]: r["sum(orders)"] for r in pre_rows}
    for item, count in pre_by_item.items():
        assert raw_by_item.get(item, 0) == count
    benchmark.extra_info["data_reduction"] = raw_count / max(1, preagg_count)
