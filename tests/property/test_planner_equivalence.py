"""Seeded property suite: the planned pipeline ≡ the query model.

Every optimization in the planner — predicate/projection/aggregation/
limit pushdown, join reordering, stage artifact reuse — must be
invisible: for any supported query over any connector, the stage
scheduler must return exactly what ``tests/reference/query.py`` answers
over the rows each table holds.  A seeded generator walks
a query grammar over a live federation of all three connectors — a
Pinot realtime table (checked both mid-consumption and caught-up), a
Pinot upsert table checked after fare corrections, a Hive dimension
table, and a memory table — and re-runs every query twice so the
artifact-served path is checked against the same oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.common.clock import SimulatedClock
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.sql.presto.connector import (
    HiveConnector,
    MemoryConnector,
    PinotConnector,
)
from repro.sql.presto.engine import PrestoEngine
from repro.storage.blobstore import BlobStore
from repro.storage.hive import HiveMetastore
from tests.pinot.fixtures import ingested_rows
from tests.reference.query import execute, latest_per_key

CITIES = [f"city-{i}" for i in range(5)]


class Federation:
    """One live stack: Pinot realtime + Pinot upsert + Hive + memory."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.clock = SimulatedClock()
        self.kafka = KafkaCluster("k", 3, clock=self.clock)
        self.kafka.create_topic("metrics", TopicConfig(partitions=4))
        self.kafka.create_topic("orders", TopicConfig(partitions=4))
        self.producer = Producer(self.kafka, "svc", clock=self.clock)
        for __ in range(260):
            self.clock.advance(0.5)
            city = rng.choice(CITIES)
            # partition_column="city" below promises the stream is keyed
            # by city — so key by city, or broker pruning would be wrong.
            self.producer.send(
                "metrics",
                {
                    "city": city,
                    "amount": float(rng.randrange(100)),
                    "ts": self.clock.now(),
                },
                key=city,
            )
        for i in range(120):
            self.clock.advance(0.5)
            self.producer.send(
                "orders",
                {
                    "order_id": f"o{i}",
                    "city": CITIES[i % len(CITIES)],
                    "fare": float(rng.randrange(50)),
                    "ts": self.clock.now(),
                },
                key=f"o{i}",
            )
        self.producer.flush()
        metrics_schema = Schema(
            "metrics",
            (
                Field("city", FieldType.STRING),
                Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
                Field("ts", FieldType.DOUBLE, FieldRole.TIME),
            ),
        )
        orders_schema = Schema(
            "orders",
            (
                Field("order_id", FieldType.STRING),
                Field("city", FieldType.STRING),
                Field("fare", FieldType.DOUBLE, FieldRole.METRIC),
                Field("ts", FieldType.DOUBLE, FieldRole.TIME),
            ),
        )
        self.controller = PinotController(
            [PinotServer(f"s{i}") for i in range(3)],
            PeerToPeerBackup(BlobStore()),
        )
        self.metrics_state = self.controller.create_realtime_table(
            TableConfig(
                "metrics", metrics_schema, time_column="ts",
                segment_rows_threshold=80, partition_column="city",
            ),
            self.kafka, "metrics",
        )
        self.orders_state = self.controller.create_realtime_table(
            TableConfig(
                "orders", orders_schema, time_column="ts",
                upsert_enabled=True, primary_key="order_id",
                segment_rows_threshold=60,
            ),
            self.kafka, "orders",
        )
        self.broker = PinotBroker(self.controller, clock=self.clock)
        metastore = HiveMetastore(BlobStore())
        cities_schema = Schema(
            "cities",
            (
                Field("city", FieldType.STRING),
                Field("region", FieldType.STRING),
                Field("population", FieldType.DOUBLE, FieldRole.METRIC),
            ),
        )
        cities = metastore.create_table("cities", cities_schema)
        self.city_rows = [
            {
                "city": city,
                "region": "west" if i < 2 else "east",
                "population": float(100 + 10 * i),
            }
            for i, city in enumerate(CITIES)
        ]
        cities.add_rows("p0", self.city_rows)
        self.mem_rows = [
            {"city": rng.choice(CITIES), "score": float(rng.randrange(20))}
            for __ in range(40)
        ]
        pinot = PinotConnector(self.broker, "full")
        self.catalog = {
            "metrics": pinot,
            "orders": pinot,
            "cities": HiveConnector(metastore),
            "mem": MemoryConnector({"mem": self.mem_rows}),
        }
        self.engine = PrestoEngine(self.catalog)

    def reference(self, sql: str) -> list[dict]:
        """The model's answer over what each table holds now; a Pinot
        table's rows are read from Kafka, not through the broker."""
        orders = ingested_rows(self.kafka, "orders", self.orders_state)
        tables = {
            "metrics": ingested_rows(self.kafka, "metrics", self.metrics_state),
            "orders": latest_per_key(orders, "order_id"),
            "cities": self.city_rows,
            "mem": self.mem_rows,
        }
        return execute(sql, tables)

    def upsert_corrections(self, rng: random.Random, count: int) -> None:
        """Fare corrections: re-send existing order ids with new fares."""
        for __ in range(count):
            i = rng.randrange(120)
            self.clock.advance(0.5)
            self.producer.send(
                "orders",
                {
                    "order_id": f"o{i}",
                    "city": CITIES[i % len(CITIES)],
                    "fare": float(100 + rng.randrange(50)),
                    "ts": self.clock.now(),
                },
                key=f"o{i}",
            )
        self.producer.flush()


def _normalized(rows):
    return [
        {
            k: (round(v, 6) if isinstance(v, float) else v)
            for k, v in row.items()
        }
        for row in rows
    ]


def _random_query(rng: random.Random) -> str:
    table, metric = rng.choice(
        [("metrics", "amount"), ("orders", "fare"), ("mem", "score"),
         ("cities", "population")]
    )
    where = rng.choice(
        [
            "",
            f" WHERE city = '{rng.choice(CITIES)}'",
            f" WHERE {metric} >= {rng.randrange(60)}",
            f" WHERE city != '{rng.choice(CITIES)}' AND {metric} < "
            f"{rng.randrange(20, 90)}",
            f" WHERE city IN ('{CITIES[0]}', '{CITIES[3]}')",
        ]
    )
    shape = rng.randrange(4)
    if shape == 0:  # plain projection
        tail = rng.choice(["", f" ORDER BY {metric} LIMIT {rng.randrange(1, 8)}"])
        return f"SELECT city, {metric} FROM {table}{where}{tail}"
    if shape == 1:  # grouped aggregation (pushdown candidate on Pinot)
        having = rng.choice(["", " HAVING n > 2"])
        tail = rng.choice(["", " ORDER BY city", " ORDER BY total DESC LIMIT 3"])
        return (
            f"SELECT city, COUNT(*) AS n, SUM({metric}) AS total "
            f"FROM {table}{where} GROUP BY city{having}{tail}"
        )
    if shape == 2:  # global aggregation
        agg = rng.choice(
            [f"MIN({metric}) AS lo", f"MAX({metric}) AS hi", "COUNT(*) AS n",
             "COUNT(DISTINCT city) AS cities"]
        )
        return f"SELECT {agg} FROM {table}{where}"
    # shape == 3: cross-connector join against the Hive dimension table.
    qualified_where = rng.choice(
        ["", f" WHERE f.{metric} >= {rng.randrange(50)}",
         f" WHERE d.region = 'west'"]
    )
    tail = rng.choice(["", " ORDER BY total DESC LIMIT 3", " ORDER BY city"])
    return (
        f"SELECT d.region AS city, SUM(f.{metric}) AS total "
        f"FROM {table} f JOIN cities d ON f.city = d.city"
        f"{qualified_where} GROUP BY d.region{tail}"
    )


QUERY_SEEDS = [11, 23, 47]


class TestPlannedEqualsUnplanned:
    @pytest.mark.parametrize("seed", QUERY_SEEDS)
    def test_equivalence_over_federation_states(self, seed):
        fed = Federation(seed)
        rng = random.Random(seed * 7919)

        def check(count):
            for __ in range(count):
                sql = _random_query(rng)
                expected = _normalized(fed.reference(sql))
                got = _normalized(fed.engine.execute(sql).rows)
                assert got == expected, f"divergence for {sql!r}"
                # Second run exercises the artifact-served path.
                again = _normalized(fed.engine.execute(sql).rows)
                assert again == expected, f"cached divergence for {sql!r}"

        # State 1: mid-consumption — segments still filling, some sealed.
        for __ in range(3):
            fed.metrics_state.ingestion.run_step()
            fed.orders_state.ingestion.run_step()
        check(12)

        # State 2: fully caught up (epoch moved; artifacts must refresh).
        fed.metrics_state.ingestion.run_until_caught_up()
        fed.orders_state.ingestion.run_until_caught_up()
        check(12)

        # State 3: post-upsert — fare corrections overwrite earlier rows.
        fed.upsert_corrections(rng, 25)
        fed.orders_state.ingestion.run_until_caught_up()
        check(12)

    def test_upsert_visibility_through_planner(self):
        fed = Federation(5)
        fed.orders_state.ingestion.run_until_caught_up()
        before = fed.engine.execute(
            "SELECT SUM(fare) AS total FROM orders"
        ).rows[0]["total"]
        rng = random.Random(99)
        fed.upsert_corrections(rng, 30)
        fed.orders_state.ingestion.run_until_caught_up()
        after = fed.engine.execute(
            "SELECT SUM(fare) AS total FROM orders"
        ).rows[0]["total"]
        # Corrections raise fares to >= 100; totals must move and agree
        # with the query model on the new state.
        assert after > before
        ref = fed.reference("SELECT SUM(fare) AS total FROM orders")
        assert round(after, 6) == round(ref[0]["total"], 6)
