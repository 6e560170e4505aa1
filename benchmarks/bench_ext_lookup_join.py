"""Extension X2 — §4.3 current work: Pinot lookup joins vs Presto joins.

"Currently joins are performed by Presto ... this is done entirely
in-memory in the Presto worker and cannot be used for critical use cases.
We are contributing the ability to perform lookup joins to Pinot."

Series: rows shipped out of the OLAP layer and wall latency for the same
enrichment query — Presto hash join (fact rows cross into the worker) vs
the Pinot lookup join (only final aggregates leave the store).  Rows
shipped repeat for a seed and are asserted; the wall factor is printed
as read.
"""

from __future__ import annotations

import time

from repro.common.clock import SimulatedClock
from repro.common.rng import seeded_rng
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.lookupjoin import DimensionTable, LookupJoinSpec, execute_lookup_join
from repro.pinot.query import Aggregation, PinotQuery
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.segment import IndexConfig
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.sql.presto.connector import MemoryConnector, PinotConnector
from repro.sql.presto.engine import PrestoEngine
from repro.storage.blobstore import BlobStore

from benchmarks.conftest import print_table

N_FACTS = 20_000
N_RESTAURANTS = 50
REPEATS = 3

SCHEMA = Schema(
    "orders",
    (
        Field("restaurant_id", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


def build():
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("orders", TopicConfig(partitions=4))
    producer = Producer(kafka, "svc", clock=clock)
    rng = seeded_rng(61)
    for i in range(N_FACTS):
        clock.advance(0.05)
        rid = f"rest-{rng.randrange(N_RESTAURANTS)}"
        producer.send("orders", {"restaurant_id": rid,
                                 "amount": float(rng.randrange(5, 80)),
                                 "ts": clock.now()}, key=rid)
    producer.flush()
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)], PeerToPeerBackup(BlobStore())
    )
    state = controller.create_realtime_table(
        TableConfig("orders", SCHEMA, time_column="ts",
                    index_config=IndexConfig(inverted=frozenset({"restaurant_id"})),
                    segment_rows_threshold=2000),
        kafka, "orders",
    )
    state.ingestion.run_until_caught_up()
    broker = PinotBroker(controller)
    dim_rows = [
        {"id": f"rest-{i}", "name": f"Restaurant {i}",
         "cuisine": ["thai", "mexican", "italian"][i % 3]}
        for i in range(N_RESTAURANTS)
    ]
    dimension = DimensionTable("restaurants", "id")
    dimension.load(dim_rows)
    return broker, dimension, dim_rows


def run_comparison():
    broker, dimension, dim_rows = build()
    # Pinot lookup join: aggregate inside the store, enrich the 50 groups.
    start = time.perf_counter()
    lookup_result = None
    for __ in range(REPEATS):
        lookup_result = execute_lookup_join(
            broker,
            PinotQuery("orders",
                       aggregations=[Aggregation("SUM", "amount"),
                                     Aggregation("COUNT")],
                       group_by=["restaurant_id"], limit=1000),
            LookupJoinSpec(dimension, join_column="restaurant_id"),
        )
    lookup_latency = time.perf_counter() - start
    # Presto federated join: fact rows ship to the worker for the hash
    # join (predicate-only connector: no aggregation pushdown through a
    # join is possible anyway).
    engine = PrestoEngine(
        {
            "orders": PinotConnector(broker, "full"),
            "restaurants": MemoryConnector({"restaurants": dim_rows}),
        }
    )
    start = time.perf_counter()
    presto_out = None
    for __ in range(REPEATS):
        presto_out = engine.execute(
            "SELECT r.name, SUM(o.amount) AS total, COUNT(*) AS n "
            "FROM orders o JOIN restaurants r ON o.restaurant_id = r.id "
            "GROUP BY r.name LIMIT 1000"
        )
    presto_latency = time.perf_counter() - start
    return (
        lookup_result, lookup_latency, len(lookup_result.rows),
        presto_out, presto_latency, presto_out.stats.rows_transferred,
    )


def test_lookup_join_vs_presto(benchmark):
    (lookup_result, lookup_latency, lookup_shipped,
     presto_out, presto_latency, presto_shipped) = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    print_table(
        f"X2: enrich {N_FACTS} facts with a {N_RESTAURANTS}-row dimension",
        ["join path", "latency (s)", "rows leaving OLAP layer",
         "segments scanned", "cache hits"],
        [
            ["pinot lookup join", f"{lookup_latency:.4f}", lookup_shipped,
             "-", "-"],
            ["presto hash join", f"{presto_latency:.4f}", presto_shipped,
             presto_out.stats.segments_scanned, presto_out.stats.cache_hits],
        ],
    )
    print(
        f"  lookup join answers {presto_latency / lookup_latency:.1f}x faster "
        "(as read)"
    )
    # Same totals either way.
    lookup_total = sum(r["sum(amount)"] for r in lookup_result.rows)
    presto_total = sum(r["total"] for r in presto_out.rows)
    assert abs(lookup_total - presto_total) < 1e-6
    # The lookup join ships only final groups; Presto ships every fact row.
    assert lookup_shipped == N_RESTAURANTS
    assert presto_shipped >= N_FACTS
    benchmark.extra_info["rows_saved"] = presto_shipped - lookup_shipped
