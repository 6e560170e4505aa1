"""Integration tests crossing subsystem boundaries (the Figure 3 paths)."""

import pytest

from repro.audit import IntegrityAuditor
from repro.common.clock import SimulatedClock
from repro.flink.runtime import JobRuntime
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.catalog import DataCatalog, DatasetKind, DatasetRef
from repro.metadata.registry import SchemaRegistry
from repro.metadata.schema import Field, FieldRole, FieldType, Schema, infer_schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.segment import IndexConfig
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.sql.flinksql import FlinkSqlCompiler, StreamTableDef
from repro.sql.presto.connector import HiveConnector, PinotConnector
from repro.sql.presto.engine import PrestoEngine
from repro.storage.blobstore import BlobStore
from repro.storage.hive import HiveMetastore
from repro.storage.rawlogs import RawLogArchiver, compact_to_hive


class TestKafkaToFlinkToPinotToPresto:
    def test_figure3_path(self):
        """events -> Kafka -> FlinkSQL window agg -> Kafka -> Pinot ->
        PrestoSQL, with exact end-to-end counting."""
        clock = SimulatedClock()
        kafka = KafkaCluster("k", 3, clock=clock)
        kafka.create_topic("rides", TopicConfig(partitions=4))
        kafka.create_topic("stats", TopicConfig(partitions=2))
        producer = Producer(kafka, "rides", clock=clock)
        for i in range(1200):
            clock.advance(0.5)
            producer.send(
                "rides",
                {"city": f"c{i % 3}", "fare": 10.0, "ts": clock.now()},
                key=f"c{i % 3}",
            )
        producer.flush()
        compiler = FlinkSqlCompiler(
            {"rides": StreamTableDef(kafka, "rides", timestamp_column="ts")}
        )
        graph = compiler.compile_streaming(
            "SELECT city, COUNT(*) AS rides, SUM(fare) AS revenue FROM rides "
            "GROUP BY TUMBLE(ts, 60), city",
            sink_kafka=(kafka, "stats"),
        )
        JobRuntime(graph, blob_store=BlobStore()).run_until_quiescent()
        schema = Schema(
            "stats",
            (
                Field("city", FieldType.STRING),
                Field("window_start", FieldType.DOUBLE),
                Field("window_end", FieldType.DOUBLE, FieldRole.TIME),
                Field("rides", FieldType.LONG, FieldRole.METRIC),
                Field("revenue", FieldType.DOUBLE, FieldRole.METRIC),
            ),
        )
        controller = PinotController(
            [PinotServer(f"s{i}") for i in range(3)],
            PeerToPeerBackup(BlobStore()),
        )
        state = controller.create_realtime_table(
            TableConfig("stats", schema, time_column="window_end",
                        index_config=IndexConfig(inverted=frozenset({"city"})),
                        segment_rows_threshold=10),
            kafka, "stats",
        )
        state.ingestion.run_until_caught_up()
        presto = PrestoEngine(
            {"stats": PinotConnector(PinotBroker(controller), "full")}
        )
        out = presto.execute(
            "SELECT SUM(rides) AS total FROM stats"
        )
        # All closed windows made it through; only the final open window
        # (one per city) is missing.
        assert out.rows[0]["total"] > 1100
        per_city = presto.execute(
            "SELECT city, SUM(revenue) AS rev FROM stats GROUP BY city "
            "ORDER BY city LIMIT 5"
        )
        assert len(per_city.rows) == 3

    def test_chaperone_audits_flink_hop(self):
        """Key, payload and event time survive Kafka -> Flink -> Kafka, so
        the window report localizes an injected loss to the Flink hop."""
        clock = SimulatedClock()
        kafka = KafkaCluster("k", 3, clock=clock)
        kafka.create_topic("in", TopicConfig(partitions=2))
        kafka.create_topic("out", TopicConfig(partitions=2))
        producer = Producer(kafka, "svc", clock=clock)
        for i in range(100):
            clock.advance(1.0)
            producer.send("in", {"i": i, "drop": i % 10 == 0}, key=f"k{i}")
        producer.flush()
        # A Flink job that (buggily) drops 10% of records.
        from repro.flink.graph import StreamEnvironment

        env = StreamEnvironment()
        env.from_kafka(kafka, "in", group="g") \
            .filter(lambda v: not v["drop"]) \
            .sink_to_kafka(kafka, "out")
        JobRuntime(env.build("lossy")).run_until_quiescent()
        audit = IntegrityAuditor("flink-hop")
        audit.add_kafka_stage(kafka, "in", stage="kafka-in")
        audit.add_kafka_stage(kafka, "out", stage="flink-out")
        alerts = audit.window_report(window_seconds=1000.0)
        assert alerts
        assert {(a.upstream, a.downstream) for a in alerts} == {
            ("kafka-in", "flink-out")
        }
        assert sum(a.missing_count for a in alerts) == 10
        assert sum(a.duplicate_count for a in alerts) == 0


class TestArchivalPath:
    def test_kafka_to_rawlogs_to_hive_to_presto(self):
        clock = SimulatedClock()
        kafka = KafkaCluster("k", 3, clock=clock)
        kafka.create_topic("orders", TopicConfig(partitions=2))
        producer = Producer(kafka, "svc", clock=clock)
        store = BlobStore()
        archiver = RawLogArchiver(store, "orders", batch_size=50)
        for i in range(200):
            clock.advance(1.0)
            row = {"city": f"c{i % 2}", "amount": float(i), "event_time": clock.now()}
            producer.send("orders", row, key=row["city"])
        producer.flush()
        for p in range(2):
            for entry in kafka.fetch("orders", p, 0, 1000):
                archiver.append(entry.record)
        archiver.flush()
        metastore = HiveMetastore(store)
        schema = infer_schema(
            "orders", [e.record.value for e in kafka.fetch("orders", 0, 0, 10)]
        )
        table = metastore.create_table("orders", schema)
        written = compact_to_hive(
            archiver, table,
            partition_of=lambda r: f"h={int(r.event_time // 100)}",
        )
        assert written == 200
        presto = PrestoEngine({"orders": HiveConnector(metastore)})
        out = presto.execute(
            "SELECT city, COUNT(*) AS n FROM orders GROUP BY city ORDER BY city"
        )
        assert [(r["city"], r["n"]) for r in out.rows] == [("c0", 100), ("c1", 100)]


class TestMetadataIntegration:
    def test_schema_registry_guards_pipeline_evolution(self):
        registry = SchemaRegistry()
        rows = [{"city": "sf", "amount": 1.0, "event_time": 1.0}]
        v1 = infer_schema("orders", rows)
        registry.register("orders", v1)
        # Evolving with a new nullable column is fine.
        evolved = v1.evolve(v1.fields + (Field("tip", FieldType.DOUBLE),))
        assert registry.register("orders", evolved) == 2
        # Breaking change rejected.
        from repro.common.errors import SchemaCompatibilityError

        broken = Schema("orders", (Field("city", FieldType.LONG),))
        with pytest.raises(SchemaCompatibilityError):
            registry.register("orders", broken)

    def test_lineage_tracks_figure3(self):
        catalog = DataCatalog()
        topic = DatasetRef(DatasetKind.KAFKA_TOPIC, "rides")
        job = DatasetRef(DatasetKind.FLINK_JOB, "city-stats")
        table = DatasetRef(DatasetKind.PINOT_TABLE, "stats")
        hive = DatasetRef(DatasetKind.HIVE_TABLE, "rides_archive")
        catalog.add_lineage(topic, job)
        catalog.add_lineage(job, table)
        catalog.add_lineage(topic, hive)
        impact = catalog.transitive_downstream(topic)
        assert impact == {job, table, hive}
