"""Coverage for cross-cutting paths not exercised elsewhere: the lambda
(offline segment) path into Pinot, Kafka sinks from Flink, keyed process
functions, and sliding/session windows inside full pipelines."""

from repro.common.clock import SimulatedClock
from repro.flink.graph import StreamEnvironment
from repro.flink.operators import BoundedListSource
from repro.flink.runtime import JobRuntime
from repro.flink.windows import (
    CountAggregate,
    SessionWindows,
    SlidingWindows,
)
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.segment import ImmutableSegment, IndexConfig
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore

SCHEMA = Schema(
    "rides",
    (
        Field("city", FieldType.STRING),
        Field("fare", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


class TestLambdaOfflinePath:
    """§4.3: Pinot 'employs the lambda architecture to present a federated
    view between real-time and historical (offline) data'."""

    def _stack(self):
        clock = SimulatedClock()
        kafka = KafkaCluster("k", 3, clock=clock)
        kafka.create_topic("rides", TopicConfig(partitions=2))
        controller = PinotController(
            [PinotServer(f"s{i}") for i in range(3)],
            PeerToPeerBackup(BlobStore()),
        )
        state = controller.create_realtime_table(
            TableConfig("rides", SCHEMA, time_column="ts",
                        segment_rows_threshold=100),
            kafka, "rides",
        )
        return clock, kafka, controller, state

    def test_offline_and_realtime_federate(self):
        clock, kafka, controller, state = self._stack()
        # Historical data loaded as an offline segment (the Hive->Pinot
        # path of §4.3.3).
        offline = ImmutableSegment(
            "rides_offline_0",
            {
                "city": ["sf"] * 40 + ["nyc"] * 60,
                "fare": [10.0] * 100,
                "ts": [float(i) for i in range(100)],
            },
            IndexConfig(inverted=frozenset({"city"})),
        )
        controller.add_offline_segment("rides", offline)
        # Fresh data arriving through Kafka.
        producer = Producer(kafka, "svc", clock=clock)
        for i in range(50):
            clock.advance(1.0)
            producer.send("rides", {"city": "sf", "fare": 20.0,
                                    "ts": 1000.0 + i}, key="sf")
        producer.flush()
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller)
        result = broker.execute(
            PinotQuery("rides", aggregations=[Aggregation("COUNT"),
                                              Aggregation("SUM", "fare")],
                       filters=[Filter("city", "=", "sf")])
        )
        row = result.rows[0]
        assert row["count(*)"] == 90  # 40 offline + 50 realtime
        assert row["sum(fare)"] == 40 * 10.0 + 50 * 20.0

    def test_offline_segment_survives_host_failure(self):
        clock, kafka, controller, state = self._stack()
        offline = ImmutableSegment(
            "rides_offline_0",
            {"city": ["sf"], "fare": [1.0], "ts": [0.0]},
        )
        controller.add_offline_segment("rides", offline, copies=2)
        __, hosts = controller.table("rides").offline_segments["rides_offline_0"]
        controller.kill_server(hosts[0].name)
        broker = PinotBroker(controller)
        result = broker.execute(
            PinotQuery("rides", aggregations=[Aggregation("COUNT")])
        )
        assert result.rows[0]["count(*)"] == 1


class TestFlinkKafkaSink:
    def test_results_land_in_kafka_with_window_flattening(self):
        clock = SimulatedClock()
        kafka = KafkaCluster("k", 3, clock=clock)
        kafka.create_topic("in", TopicConfig(partitions=2))
        kafka.create_topic("out", TopicConfig(partitions=2))
        producer = Producer(kafka, "svc", clock=clock)
        for i in range(200):
            clock.advance(1.0)
            producer.send("in", {"k": f"k{i % 2}", "ts": clock.now()},
                          key=f"k{i % 2}")
        producer.flush()
        from repro.flink.windows import TumblingWindows

        env = StreamEnvironment()
        env.from_kafka(kafka, "in", group="g") \
            .key_by(lambda v: v["k"]) \
            .window(TumblingWindows(60.0)) \
            .aggregate(CountAggregate()) \
            .sink_to_kafka(kafka, "out")
        JobRuntime(env.build("sink-job")).run_until_quiescent()
        written = []
        for p in range(2):
            offset = 0
            while True:
                batch = kafka.fetch("out", p, offset, 100)
                if not batch:
                    break
                written.extend(e.record.value for e in batch)
                offset = batch[-1].offset + 1
        assert written
        # WindowResults are flattened into plain dict rows for Kafka.
        assert {"key", "window_start", "window_end", "value"} <= set(written[0])
        assert sum(r["value"] for r in written) <= 200


class TestProcessOperatorPipelines:
    def test_keyed_dedup_with_state(self):
        elements = [({"id": f"e{i % 5}", "n": i}, float(i)) for i in range(50)]
        out: list = []
        env = StreamEnvironment()

        def dedupe(record, state, emit):
            if state.get("seen", record.value["id"]) is None:
                state.put("seen", record.value["id"], True)
                emit(record.value)

        env.add_source(BoundedListSource(elements)) \
            .key_by(lambda v: v["id"]) \
            .process(dedupe, parallelism=2) \
            .sink_to_list(out)
        JobRuntime(env.build("dedupe")).run_until_quiescent()
        assert len(out) == 5
        assert {v["id"] for v in out} == {f"e{i}" for i in range(5)}


class TestWindowShapesInPipelines:
    def test_sliding_windows_end_to_end(self):
        elements = [({"k": "a"}, float(t)) for t in range(0, 100, 10)]
        out: list = []
        env = StreamEnvironment()
        env.add_source(BoundedListSource(elements)) \
            .key_by(lambda v: v["k"]) \
            .window(SlidingWindows(40.0, 20.0)) \
            .aggregate(CountAggregate()) \
            .sink_to_list(out)
        JobRuntime(env.build("sliding")).run_until_quiescent()
        # Every element lands in size/slide = 2 windows.
        assert sum(r.value for r in out) == 2 * len(elements)
        # Window starts step by the slide.
        starts = sorted({r.window.start for r in out})
        assert all(b - a == 20.0 for a, b in zip(starts, starts[1:]))

    def test_session_windows_end_to_end(self):
        # Two bursts separated by a gap larger than the session gap.
        times = [0.0, 5.0, 10.0] + [100.0, 104.0]
        elements = [({"k": "rider"}, t) for t in times]
        out: list = []
        env = StreamEnvironment()
        env.add_source(BoundedListSource(elements)) \
            .key_by(lambda v: v["k"]) \
            .window(SessionWindows(30.0)) \
            .aggregate(CountAggregate()) \
            .sink_to_list(out)
        JobRuntime(env.build("sessions")).run_until_quiescent()
        counts = sorted(r.value for r in out)
        assert counts == [2, 3]
