import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import PinotError, SchemaError
from repro.common.rng import seeded_rng, zipf_sampler
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.segment import IndexConfig
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.pinot.upsert import UpsertManager
from repro.storage.blobstore import BlobStore

SCHEMA = Schema(
    "orders",
    (
        Field("order_id", FieldType.STRING),
        Field("status", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


def build_stack(upsert=False, partitions=4, threshold=100, servers=3):
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("orders", TopicConfig(partitions=partitions))
    server_objs = [PinotServer(f"s{i}") for i in range(servers)]
    controller = PinotController(server_objs, PeerToPeerBackup(BlobStore()))
    config = TableConfig(
        "orders",
        SCHEMA,
        time_column="ts",
        index_config=IndexConfig(inverted=frozenset({"status"})),
        upsert_enabled=upsert,
        primary_key="order_id" if upsert else None,
        segment_rows_threshold=threshold,
    )
    state = controller.create_realtime_table(config, kafka, "orders")
    return clock, kafka, controller, state


def produce_orders(kafka, clock, count, key_fn, value_fn):
    producer = Producer(kafka, "svc", clock=clock)
    for i in range(count):
        clock.advance(1.0)
        producer.send("orders", value_fn(i, clock.now()), key=key_fn(i))
    producer.flush()


class TestRealtimeIngestion:
    def test_ingests_and_seals(self):
        clock, kafka, controller, state = build_stack(threshold=50)
        produce_orders(
            kafka, clock, 300, lambda i: f"o{i}",
            lambda i, t: {"order_id": f"o{i}", "status": "placed",
                          "amount": 1.0, "ts": t},
        )
        state.ingestion.run_until_caught_up()
        assert state.ingestion.lag() == 0
        sealed = state.ingestion.segments_sealed
        assert sealed >= 4

    def test_consuming_rows_queryable_before_seal(self):
        clock, kafka, controller, state = build_stack(threshold=10_000)
        produce_orders(
            kafka, clock, 20, lambda i: f"o{i}",
            lambda i, t: {"order_id": f"o{i}", "status": "placed",
                          "amount": 1.0, "ts": t},
        )
        state.ingestion.run_step(100)
        broker = PinotBroker(controller)
        result = broker.execute(
            PinotQuery("orders", aggregations=[Aggregation("COUNT")])
        )
        assert result.rows[0]["count(*)"] == 20

    def test_schema_violations_rejected(self):
        clock, kafka, controller, state = build_stack()
        producer = Producer(kafka, "svc", clock=clock)
        producer.produce("orders", {"order_id": "o1", "status": 5,
                                    "amount": 1.0, "ts": 0.0}, key="o1")
        with pytest.raises(Exception):
            state.ingestion.run_step()

    @staticmethod
    def _ingest_one(row):
        """Produce ``row`` into a table whose ``amount`` is required."""
        clock = SimulatedClock()
        kafka = KafkaCluster("k", 3, clock=clock)
        kafka.create_topic("metrics", TopicConfig(partitions=1))
        schema = Schema(
            "metrics",
            (
                Field("city", FieldType.STRING),
                Field("amount", FieldType.DOUBLE, FieldRole.METRIC, nullable=False),
                Field("ts", FieldType.DOUBLE, FieldRole.TIME),
            ),
        )
        controller = PinotController(
            [PinotServer(f"s{i}") for i in range(3)], PeerToPeerBackup(BlobStore())
        )
        state = controller.create_realtime_table(
            TableConfig("metrics", schema, time_column="ts"), kafka, "metrics"
        )
        producer = Producer(kafka, "svc", clock=clock)
        producer.produce("metrics", row, key=row["city"])
        state.ingestion.run_step()

    def test_a_missing_required_field_raises(self):
        with pytest.raises(SchemaError, match="missing non-nullable field 'amount'"):
            self._ingest_one({"city": "c1", "ts": 0.5})

    def test_a_string_in_a_double_raises(self):
        with pytest.raises(SchemaError, match="'amount' expects double, got str"):
            self._ingest_one({"city": "c1", "amount": "not-a-number", "ts": 0.5})

    def test_replicas_receive_sealed_segments(self):
        clock, kafka, controller, state = build_stack(threshold=50)
        produce_orders(
            kafka, clock, 200, lambda i: f"o{i}",
            lambda i, t: {"order_id": f"o{i}", "status": "placed",
                          "amount": 1.0, "ts": t},
        )
        state.ingestion.run_until_caught_up()
        for partition, pstate in state.ingestion.partitions.items():
            for segment_name in pstate.sealed_segments:
                holders = [
                    s for s in controller.servers if s.has_segment(segment_name)
                ]
                assert len(holders) >= 2  # owner + replica


class TestUpsertManager:
    def test_latest_location_wins(self):
        manager = UpsertManager("t", 0)
        manager.apply("k", "seg-0", 0)
        manager.apply("k", "seg-0", 5)
        manager.apply("k", "seg-1", 2)
        assert manager.location("k") == ("seg-1", 2)
        assert manager.valid_docs("seg-0") == set()
        assert manager.valid_docs("seg-1") == {2}
        assert manager.upserts == 2
        assert manager.inserts == 1

    def test_rebuild_from_segments(self):
        manager = UpsertManager("t", 0)
        segments = [
            ("seg-0", [{"id": "a", "v": 1}, {"id": "b", "v": 1}]),
            ("seg-1", [{"id": "a", "v": 2}]),
        ]
        manager.rebuild_from_segments(segments, "id")
        assert manager.location("a") == ("seg-1", 0)
        assert manager.valid_docs("seg-0") == {1}
        assert manager.key_count() == 2

    def test_drop_segment(self):
        manager = UpsertManager("t", 0)
        manager.apply("a", "seg-0", 0)
        manager.drop_segment("seg-0")
        assert manager.location("a") is None


class TestUpsertEndToEnd:
    def test_query_sees_only_latest_version(self):
        clock, kafka, controller, state = build_stack(upsert=True, threshold=40)
        rng = seeded_rng(3)
        hot_key = zipf_sampler(rng, 50, skew=1.5)
        versions: dict[str, float] = {}
        producer = Producer(kafka, "svc", clock=clock)
        for i in range(600):
            clock.advance(1.0)
            order = f"order-{hot_key()}"
            amount = float(i)
            versions[order] = amount
            producer.send(
                "orders",
                {"order_id": order, "status": "corrected", "amount": amount,
                 "ts": clock.now()},
                key=order,
            )
        producer.flush()
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller)
        count = broker.execute(
            PinotQuery("orders", aggregations=[Aggregation("COUNT")])
        )
        assert count.rows[0]["count(*)"] == len(versions)
        total = broker.execute(
            PinotQuery("orders", aggregations=[Aggregation("SUM", "amount")])
        )
        assert total.rows[0]["sum(amount)"] == pytest.approx(
            sum(versions.values())
        )

    def test_point_lookup_returns_latest(self):
        clock, kafka, controller, state = build_stack(upsert=True, threshold=20)
        producer = Producer(kafka, "svc", clock=clock)
        for amount in (10.0, 20.0, 30.0):
            clock.advance(1.0)
            producer.produce(
                "orders",
                {"order_id": "target", "status": "corrected",
                 "amount": amount, "ts": clock.now()},
                key="target",
            )
        # Push the key's partition past the seal threshold so versions
        # span sealed and consuming segments.
        for i in range(60):
            clock.advance(1.0)
            producer.produce(
                "orders",
                {"order_id": "target", "status": "corrected",
                 "amount": 100.0 + i, "ts": clock.now()},
                key="target",
            )
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller)
        result = broker.execute(
            PinotQuery("orders", select_columns=["order_id", "amount"],
                       filters=[Filter("order_id", "=", "target")], limit=100)
        )
        assert len(result.rows) == 1
        assert result.rows[0]["amount"] == 159.0

    def test_upsert_requires_primary_key(self):
        with pytest.raises(PinotError):
            TableConfig("t", SCHEMA, upsert_enabled=True)

    def test_upsert_rejects_sort_column(self):
        with pytest.raises(PinotError):
            TableConfig(
                "t", SCHEMA, upsert_enabled=True, primary_key="order_id",
                index_config=IndexConfig(sort_column="ts"),
            )


class TestBrokerRouting:
    def test_scatter_gather_merges_across_partitions(self):
        clock, kafka, controller, state = build_stack(threshold=50)
        produce_orders(
            kafka, clock, 400, lambda i: f"o{i}",
            lambda i, t: {"order_id": f"o{i}",
                          "status": "placed" if i % 2 else "delivered",
                          "amount": float(i), "ts": t},
        )
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller)
        result = broker.execute(
            PinotQuery("orders", aggregations=[Aggregation("COUNT")],
                       group_by=["status"], limit=10)
        )
        counts = {r["status"]: r["count(*)"] for r in result.rows}
        assert counts == {"placed": 200, "delivered": 200}
        assert result.servers_queried >= 2

    def test_order_by_and_limit(self):
        clock, kafka, controller, state = build_stack(threshold=1000)
        produce_orders(
            kafka, clock, 100, lambda i: f"o{i}",
            lambda i, t: {"order_id": f"o{i}", "status": f"s{i % 10}",
                          "amount": float(i), "ts": t},
        )
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller)
        result = broker.execute(
            PinotQuery(
                "orders",
                aggregations=[Aggregation("SUM", "amount")],
                group_by=["status"],
                order_by=[("sum(amount)", True)],
                limit=3,
            )
        )
        sums = [r["sum(amount)"] for r in result.rows]
        assert len(sums) == 3
        assert sums == sorted(sums, reverse=True)

    def test_replica_serves_when_owner_down_non_upsert(self):
        clock, kafka, controller, state = build_stack(threshold=50)
        produce_orders(
            kafka, clock, 200, lambda i: f"o{i}",
            lambda i, t: {"order_id": f"o{i}", "status": "placed",
                          "amount": 1.0, "ts": t},
        )
        state.ingestion.run_until_caught_up()
        # Kill one server: sealed segments must still be served by peers.
        victim = state.ingestion.partitions[0].owner
        controller.kill_server(victim.name)
        broker = PinotBroker(controller)
        result = broker.execute(
            PinotQuery("orders", aggregations=[Aggregation("COUNT")])
        )
        # Consuming segments on the dead owner are not reachable, but all
        # sealed data still is (>= sealed row count).
        sealed_rows = 200 - sum(
            pstate.consuming.num_docs
            for pstate in state.ingestion.partitions.values()
            if pstate.owner is victim
        )
        assert result.rows[0]["count(*)"] >= sealed_rows - 50
