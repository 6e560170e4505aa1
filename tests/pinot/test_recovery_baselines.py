import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import StorageError
from repro.common.rng import seeded_rng
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from benchmarks.foils.docstore import DocStore
from benchmarks.foils.rowscan import ScanStore
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.recovery import (
    CentralizedBackup,
    PeerToPeerBackup,
    recover_segment_p2p,
)
from repro.pinot.segment import ImmutableSegment, IndexConfig
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore

SCHEMA = Schema(
    "t",
    (
        Field("k", FieldType.STRING),
        Field("v", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


def build(backup, threshold=50, partitions=2, servers=3):
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("t", TopicConfig(partitions=partitions))
    server_objs = [PinotServer(f"s{i}") for i in range(servers)]
    controller = PinotController(server_objs, backup)
    state = controller.create_realtime_table(
        TableConfig("t", SCHEMA, time_column="ts",
                    segment_rows_threshold=threshold),
        kafka, "t",
    )
    producer = Producer(kafka, "svc", clock=clock)
    return clock, kafka, controller, state, producer


def feed(producer, clock, count):
    for i in range(count):
        clock.advance(1.0)
        producer.send("t", {"k": f"k{i}", "v": float(i), "ts": clock.now()},
                      key=f"k{i}")
    producer.flush()


class TestCentralizedVsP2P:
    def test_centralized_store_outage_halts_ingestion(self):
        store = BlobStore()
        __, kafka, controller, state, producer = build(
            CentralizedBackup(store, uploads_per_step=1)
        )
        clock = kafka.clock
        store.set_available(False)
        feed(producer, clock, 300)
        for __ in range(20):
            state.ingestion.run_step()
            controller.backup.run_step()
        # Each partition blocks after its first seal: lag stays high.
        assert state.ingestion.lag() > 0
        blocked = state.ingestion.blocked_polls
        assert blocked > 0
        # Store returns; ingestion drains.
        store.set_available(True)
        state.ingestion.run_until_caught_up()
        assert state.ingestion.lag() == 0

    def test_p2p_store_outage_does_not_block(self):
        store = BlobStore()
        __, kafka, controller, state, producer = build(PeerToPeerBackup(store))
        clock = kafka.clock
        store.set_available(False)
        feed(producer, clock, 300)
        for __ in range(30):
            state.ingestion.run_step()
            controller.backup.run_step()
        assert state.ingestion.lag() == 0
        assert state.ingestion.blocked_polls == 0
        # Uploads are simply deferred.
        assert controller.backup.pending() > 0
        store.set_available(True)
        for __ in range(20):
            controller.backup.run_step()
        assert controller.backup.pending() == 0

    def test_centralized_controller_is_throughput_bottleneck(self):
        store = BlobStore()
        __, kafka, controller, state, producer = build(
            CentralizedBackup(store, uploads_per_step=1), threshold=20
        )
        clock = kafka.clock
        feed(producer, clock, 400)
        steps = 0
        while state.ingestion.lag() > 0 and steps < 200:
            state.ingestion.run_step()
            controller.backup.run_step()
            steps += 1
        centralized_steps = steps

        store2 = BlobStore()
        __, kafka2, controller2, state2, producer2 = build(
            PeerToPeerBackup(store2), threshold=20
        )
        feed(producer2, kafka2.clock, 400)
        steps = 0
        while state2.ingestion.lag() > 0 and steps < 200:
            state2.ingestion.run_step()
            controller2.backup.run_step()
            steps += 1
        assert steps < centralized_steps

    def test_p2p_recovery_prefers_live_peer(self):
        peers = [PinotServer("peer-0"), PinotServer("peer-1")]
        segment = ImmutableSegment("seg", {"a": [1, 2, 3]})
        peers[1].host_segment(segment)
        store = BlobStore()
        store.set_available(False)  # store down: only the peer can help
        strategy = PeerToPeerBackup(store)
        recovered = recover_segment_p2p("seg", "t", peers, strategy)
        assert recovered is segment

    def test_p2p_recovery_falls_back_to_store(self):
        store = BlobStore()
        strategy = PeerToPeerBackup(store)
        segment = ImmutableSegment("seg", {"a": [1, 2, 3]})
        strategy.request_backup("t", segment)
        strategy.run_step()
        recovered = recover_segment_p2p("seg", "t", [], strategy)
        assert recovered.num_docs == 3

    def test_unrecoverable_segment_raises(self):
        store = BlobStore()
        with pytest.raises(StorageError):
            recover_segment_p2p("ghost", "t", [], PeerToPeerBackup(store))

    def test_server_recovery_end_to_end(self):
        store = BlobStore()
        clock, kafka, controller, state, producer = build(
            PeerToPeerBackup(store), threshold=30, partitions=2, servers=3
        )
        feed(producer, clock, 200)
        state.ingestion.run_until_caught_up()
        victim = state.ingestion.partitions[0].owner
        controller.kill_server(victim.name)
        replacement = PinotServer("replacement")
        recovered = controller.recover_server(victim.name, replacement)
        assert recovered > 0
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller)
        result = broker.execute(
            PinotQuery("t", aggregations=[Aggregation("COUNT")])
        )
        assert result.rows[0]["count(*)"] == 200


def load_comparable_stores(n=2000):
    rng = seeded_rng(13)
    rows = [
        {
            "city": f"city-{rng.randrange(8)}",
            "status": f"status-{rng.randrange(4)}",
            "amount": float(rng.randrange(100)),
            "ts": float(i),
        }
        for i in range(n)
    ]
    columns = {k: [r[k] for r in rows] for k in rows[0]}
    pinot_segment = ImmutableSegment(
        "seg", columns,
        IndexConfig(inverted=frozenset({"city", "status"}),
                    range_indexed=frozenset({"amount"})),
    )
    docstore = DocStore()
    docstore.bulk_index(rows)
    scanstore = ScanStore()
    scanstore.load_rows(rows, list(rows[0]))
    return rows, pinot_segment, docstore, scanstore


class TestOlapBaselines:
    def test_docstore_disk_footprint_much_larger(self):
        __, segment, docstore, __s = load_comparable_stores()
        assert docstore.disk_bytes() > 4 * segment.disk_bytes()

    def test_docstore_memory_footprint_larger(self):
        __, segment, docstore, __s = load_comparable_stores()
        assert docstore.memory_bytes() > 1.5 * segment.memory_bytes()

    def test_docstore_results_match_pinot(self):
        rows, segment, docstore, __ = load_comparable_stores()
        query = PinotQuery(
            "t",
            aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
            filters=[Filter("city", "=", "city-1")],
            group_by=["status"],
            limit=100,
        )
        from repro.pinot.query import execute_on_segment

        partial = execute_on_segment(segment, query)
        pinot_rows = {
            key[0]: states[0] for key, states in partial.groups.items()
        }
        es_rows = {
            r["status"]: r["count(*)"] for r in docstore.execute(query)
        }
        assert pinot_rows == es_rows

    def test_scanstore_results_match_pinot(self):
        rows, segment, __, scanstore = load_comparable_stores()
        query = PinotQuery(
            "t",
            aggregations=[Aggregation("COUNT")],
            filters=[Filter("amount", ">=", 50.0)],
            limit=10,
        )
        from repro.pinot.query import execute_on_segment

        partial = execute_on_segment(segment, query)
        scan_result = scanstore.execute(query)
        assert partial.groups[()][0] == scan_result[0]["count(*)"]

    def test_scanstore_always_scans_everything(self):
        __, __, __d, scanstore = load_comparable_stores(500)
        scanstore.execute(
            PinotQuery("t", aggregations=[Aggregation("COUNT")],
                       filters=[Filter("city", "=", "city-0")])
        )
        assert scanstore.docs_scanned == 500
