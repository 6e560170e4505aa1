"""Trace context propagation across layer boundaries.

Each test exercises one boundary of the Figure 3 path: producer
batches, broker replication, consumer polling, and the Flink source ->
window -> Kafka sink chain that re-produces derived records under the
origin trace.  A component is traced when it has a collector; a record's
trace id is its Kafka coordinates whether or not anything traces it, and
the last test holds the offset-reuse rule of ``repro.observability.trace``.
"""

from repro.common.clock import SimulatedClock
from repro.flink.graph import StreamEnvironment
from repro.flink.runtime import JobRuntime
from repro.flink.windows import CountAggregate, TumblingWindows
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.consumer import Consumer, GroupCoordinator
from repro.kafka.producer import Producer
from repro.observability.trace import (
    ORIGIN_HEADER,
    TRACE_HEADER,
    EntryTrace,
    SpanCollector,
    TraceContext,
    record_id,
)
from repro.storage.blobstore import BlobStore


def _cluster(tracer, partitions=2):
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock, tracer=tracer)
    kafka.create_topic("events", TopicConfig(partitions=partitions))
    return clock, kafka


def context(trace: EntryTrace) -> TraceContext:
    """What a reader of ``trace`` sees, as a comparable value."""
    return TraceContext(trace.trace_id, trace.origin_event_time, trace.entered)


class TestProducerStamping:
    def test_untraced_producer_adds_no_trace_header(self):
        clock, kafka = _cluster(tracer=None)
        producer = Producer(kafka, "svc", clock=clock)
        meta = producer.produce("events", {"v": 1}, key="a", event_time=2.0)
        entry = kafka.fetch("events", meta.partition, meta.offset, 1)[0]
        assert entry.record.headers == {}
        # The coordinates are the record's identity, traced or not.
        ctx = context(EntryTrace("events", meta.partition, entry))
        assert ctx == TraceContext(record_id("events", meta.partition, 0), 2.0)

    def test_traced_producer_adds_no_header_of_its_own(self):
        headers = []
        for tracer in (None, SpanCollector()):
            clock, kafka = _cluster(tracer)
            producer = Producer(kafka, "svc", clock=clock, tracer=tracer)
            meta = producer.produce("events", {"v": 1}, key="a")
            entry = kafka.fetch("events", meta.partition, meta.offset, 1)[0]
            headers.append(sorted(entry.record.headers))
        assert headers[0] == headers[1]
        assert TRACE_HEADER not in headers[1] and ORIGIN_HEADER not in headers[1]

    def test_produce_span_is_named_by_the_records_coordinates(self):
        tracer = SpanCollector()
        clock, kafka = _cluster(tracer)
        producer = Producer(kafka, "svc", clock=clock, tracer=tracer)
        producer.produce("events", {"v": 0}, key="a")
        clock.advance(3.0)
        meta = producer.produce("events", {"v": 1}, key="a", event_time=2.0)
        assert meta.offset == 1
        entry = kafka.fetch("events", meta.partition, meta.offset, 1)[0]
        ctx = context(EntryTrace("events", meta.partition, entry))
        assert ctx == TraceContext(f"events-{meta.partition}@1", 2.0)
        [__, span] = tracer.spans("produce")
        assert span.trace_id == ctx.trace_id
        assert span.attrs["offset"] == 1
        assert span.end >= span.start

    def test_existing_trace_header_is_kept(self):
        # A derived record re-produced under its origin trace keeps that
        # id, not its own coordinates.
        tracer = SpanCollector()
        clock, kafka = _cluster(tracer)
        producer = Producer(kafka, "svc", clock=clock, tracer=tracer)
        producer.produce(
            "events", {"v": 1}, key="a", headers={TRACE_HEADER: "origin-1"}
        )
        [span] = tracer.spans("produce")
        assert span.trace_id == "origin-1"


class TestBrokerAndConsumer:
    def test_replication_emits_replicate_spans(self):
        tracer = SpanCollector()
        clock, kafka = _cluster(tracer)
        producer = Producer(kafka, "svc", clock=clock, tracer=tracer)
        producer.produce("events", {"v": 1}, key="a")
        clock.advance(1.0)
        kafka.replicate()
        [span] = tracer.spans("replicate")
        assert span.layer == "kafka"
        assert span.end >= span.start

    def test_consumer_emits_consume_span_per_traced_record(self):
        tracer = SpanCollector()
        clock, kafka = _cluster(tracer, partitions=1)
        producer = Producer(kafka, "svc", clock=clock, tracer=tracer)
        for i in range(3):
            producer.produce("events", {"v": i}, key="a")
        consumer = Consumer(
            kafka, GroupCoordinator(kafka), "g", "events", "m0", tracer=tracer
        )
        messages = consumer.poll()
        assert len(messages) == 3
        consume = tracer.spans("consume")
        assert len(consume) == 3
        produced_ids = {s.trace_id for s in tracer.spans("produce")}
        assert {s.trace_id for s in consume} == produced_ids


class TestFlinkPropagation:
    def test_window_result_re_produced_under_origin_trace(self):
        """source -> key_by -> tumbling count -> Kafka sink keeps a
        representative origin trace on the derived record."""
        tracer = SpanCollector()
        clock, kafka = _cluster(tracer, partitions=1)
        kafka.create_topic("counts", TopicConfig(partitions=1))
        producer = Producer(kafka, "svc", clock=clock, tracer=tracer)
        for i in range(10):
            clock.advance(5.0)
            producer.produce(
                "events", {"v": i}, key="a", event_time=clock.now()
            )
        env = StreamEnvironment()
        (
            env.from_kafka(kafka, "events", group="job")
            .key_by(lambda v: "all")
            .window(TumblingWindows(20.0))
            .aggregate(CountAggregate())
            .sink_to_kafka(kafka, "counts")
        )
        runtime = JobRuntime(env.build("counter"), tracer=tracer)
        runtime.run_until_quiescent()

        produced_ids = {
            s.trace_id for s in tracer.spans("produce") if s.attrs["topic"] == "events"
        }
        out = kafka.fetch("counts", 0, 0, 100)
        assert out  # at least one closed window reached the sink
        for entry in out:
            ctx = context(EntryTrace("counts", 0, entry))
            assert ctx.trace_id in produced_ids

    def test_process_span_brackets_source_to_sink(self):
        tracer = SpanCollector()
        clock, kafka = _cluster(tracer, partitions=1)
        kafka.create_topic("out", TopicConfig(partitions=1))
        producer = Producer(kafka, "svc", clock=clock, tracer=tracer)
        producer.produce("events", {"v": 1}, key="a", event_time=1.0)
        env = StreamEnvironment()
        (
            env.from_kafka(kafka, "events", group="job")
            .map(lambda v: v)
            .sink_to_kafka(kafka, "out")
        )
        runtime = JobRuntime(env.build("passthrough"), tracer=tracer)
        runtime.run_until_quiescent()
        [span] = tracer.spans("process")
        assert span.layer == "flink"
        assert span.finished
        assert span.attrs["job"] == "passthrough"
        assert tracer.anomalies() == []

    def test_untraced_job_builds_no_trace_state(self):
        # Without a collector the job builds no trace context.
        clock, kafka = _cluster(tracer=None, partitions=1)
        producer = Producer(kafka, "svc", clock=clock)
        for i in range(3):
            producer.produce("events", {"v": i}, key="a", event_time=float(i))
        seen = []
        env = StreamEnvironment()
        env.from_kafka(kafka, "events", group="job").sink_to_list(seen)
        runtime = JobRuntime(env.build("untraced"))
        [source] = runtime.tasks[runtime.graph.sources()[0].op_id]
        elements = source.reader.poll(10)
        assert len(elements) > 3
        assert all(getattr(e, "trace", None) is None for e in elements)


def _job_runtime(kafka, tracer, build, blob_store=None):
    env = StreamEnvironment()
    build(env.from_kafka(kafka, "events", group="job"))
    return JobRuntime(env.build("job"), blob_store=blob_store, tracer=tracer)


class TestProcessSpans:
    """The process span runs from the time an element entered the job to
    the sink write of each output that carries its trace."""

    def test_a_window_closing_after_100k_source_records_keeps_its_span(self):
        tracer = SpanCollector(capacity=500_000)
        clock, kafka = _cluster(tracer, partitions=1)
        producer = Producer(kafka, "svc", clock=clock, tracer=tracer)
        producer.produce("events", {"k": "lone"}, key="lone", event_time=1.0)
        [lone] = tracer.spans("produce")
        clock.advance(1.0)
        for i in range(100_001):
            producer.send("events", {"k": "busy"}, key="busy", event_time=2.0)
        producer.produce("events", {"k": "close"}, key="close", event_time=99.0)
        out = []
        runtime = _job_runtime(
            kafka,
            tracer,
            lambda stream: stream.key_by(lambda v: v["k"])
            .window(TumblingWindows(50.0))
            .aggregate(CountAggregate())
            .sink_to_list(out),
        )
        runtime.run_until_quiescent()
        assert sorted((r.key, r.value) for r in out) == [
            ("busy", 100_001),
            ("lone", 1),
        ]
        process = {s.trace_id: s for s in tracer.spans("process")}
        assert lone.trace_id in process
        assert process[lone.trace_id].start <= process[lone.trace_id].end
        assert tracer.anomalies() == []

    def test_each_sink_output_of_one_trace_records_its_own_span(self):
        tracer = SpanCollector()
        clock, kafka = _cluster(tracer, partitions=1)
        producer = Producer(kafka, "svc", clock=clock, tracer=tracer)
        producer.produce("events", {"v": 1}, key="a", event_time=1.0)
        left, right = [], []

        def branches(stream):
            stream.flat_map(lambda v: [v, v]).sink_to_list(left, name="left")
            stream.map(lambda v: v).sink_to_list(right, name="right")

        runtime = _job_runtime(kafka, tracer, branches)
        clock.advance(2.0)
        runtime.run_until_quiescent()
        assert left == [{"v": 1}] * 2 and right == [{"v": 1}]
        [produced] = tracer.spans("produce")
        spans = tracer.spans("process")
        assert sorted(s.attrs["sink"] for s in spans) == ["left", "left", "right"]
        assert {s.trace_id for s in spans} == {produced.trace_id}
        assert len(tracer.trace(produced.trace_id)) == 4

    def test_a_restored_window_still_records_its_span(self):
        # The collector of the failed process is gone with it; the entry
        # time travels in the window's checkpoint.
        clock, kafka = _cluster(tracer=None, partitions=1)
        producer = Producer(kafka, "svc", clock=clock)
        producer.produce("events", {"v": 1}, key="a", event_time=1.0)
        store = BlobStore(clock=clock)
        out = []

        def count(stream):
            stream.key_by(lambda v: "all").window(TumblingWindows(10.0)).aggregate(
                CountAggregate()
            ).sink_to_list(out)

        before = _job_runtime(kafka, SpanCollector(), count, store)
        clock.advance(3.0)
        entered = clock.now()
        before.run_until_quiescent()
        checkpoint = before.trigger_checkpoint()
        assert out == []

        tracer = SpanCollector()
        after = _job_runtime(kafka, tracer, count, store)
        after.restore_from(checkpoint)
        producer.produce("events", {"v": 2}, key="a", event_time=20.0)
        clock.advance(4.0)
        after.run_until_quiescent()
        assert [r.value for r in out] == [1]
        [span] = tracer.spans("process")
        assert (span.start, span.end) == (entered, clock.now())
        assert span.trace_id == record_id("events", 0, 0)


class TestOffsetReuse:
    """A record lost with an ``acks=1`` leader gives its offset, and so its
    trace id, to the record appended there next."""

    def test_the_lost_produce_span_joins_its_replacements_trace(self):
        tracer = SpanCollector()
        clock = SimulatedClock()
        kafka = KafkaCluster("k", 2, clock=clock, tracer=tracer)
        kafka.create_topic("events", TopicConfig(partitions=1, replication_factor=2))
        producer = Producer(kafka, "svc", clock=clock, tracer=tracer)
        lost = producer.produce("events", {"v": "lost"}, key="a")  # t=0
        leader = kafka.topics["events"].partitions[0].leader
        clock.advance(2.0)
        kafka.kill_broker(leader)  # before any follower copied the record
        clock.advance(2.0)
        kept = producer.produce("events", {"v": "kept"}, key="a")  # t=4
        assert (kept.partition, kept.offset) == (lost.partition, lost.offset) == (0, 0)
        clock.advance(1.0)
        kafka.restart_broker(leader)  # truncates the lost record, resyncs: t=5
        consumer = Consumer(
            kafka, GroupCoordinator(kafka), "g", "events", "m0", tracer=tracer
        )
        clock.advance(2.0)
        consumer.poll()  # t=7
        [entry] = kafka.fetch("events", 0, 0, 10)
        assert entry.record.value == {"v": "kept"}

        shared = record_id("events", 0, 0)
        assert tracer.trace_ids() == [shared]
        # trace(): both sends, then the replacement's later hops.
        assert [(s.name, s.start, s.end) for s in tracer.trace(shared)] == [
            ("produce", 0.0, 0.0),
            ("produce", 4.0, 4.0),
            ("replicate", 4.0, 5.0),
            ("consume", 4.0, 7.0),
        ]
        # trace_latency(): from the lost send, high by the 4 s between sends.
        assert tracer.trace_latency(shared, "produce", "consume") == 7.0
        # anomalies(): nothing, the lost send starts before every later hop.
        assert tracer.anomalies() == []
