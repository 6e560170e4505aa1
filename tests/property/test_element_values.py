"""The stream path's one rule, checked: an element is never assigned to
after it is built.

The twelve classes built once per record or per stream element on the
Kafka → Flink path are slotted dataclasses without ``frozen=True``, which
would make every construction store each field through
``object.__setattr__``.  They are still shared as values: a broadcast
edge pushes one object to every channel, a transactional sink buffers
what it was given until a checkpoint commits, in-sync replicas adopt the
leader's log entries (``extend_shared``) and the tumbling assigner hands
out its last window again.  An assignment to any of them would corrupt
every holder silently.

The ``refreeze`` fixture turns the twelve back into what ``frozen=True``
generates — ``__setattr__`` / ``__delattr__`` raise
:class:`dataclasses.FrozenInstanceError` and ``__init__`` writes through
``object.__setattr__``, default factories included — for the rest of the
test.  Each scenario runs plain, then guarded, and must produce the same
bytes: nothing on the path assigns to an element, and nothing depends on
the classes being plain.  ``test_an_operator_that_assigns_to_a_record_is_caught``
is the check on the check.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    BlobStore,
    Consumer,
    Field,
    FieldRole,
    FieldType,
    GroupCoordinator,
    IndexConfig,
    KafkaCluster,
    Platform,
    Producer,
    Record,
    Schema,
    SimulatedClock,
    StreamEnvironment,
    TableConfig,
    TopicConfig,
)
from repro.common import serde
from repro.common.records import reset_uid_counter
from repro.common.rng import seeded_rng
from repro.flink.graph import OperatorSpec
from repro.flink.operators import IntervalJoinOperator
from repro.flink.runtime import JobRuntime
from repro.flink.time import (
    CheckpointBarrier,
    RecordBatch,
    StreamRecord,
    StreamStatus,
    Watermark,
)
from repro.flink.windows import (
    AvgAggregate,
    SumAggregate,
    TimeWindow,
    TumblingWindows,
    WindowResult,
)
from repro.kafka.consumer import ConsumedMessage
from repro.kafka.log import LogEntry
from repro.kafka.producer import RecordMetadata
from repro.observability.trace import TraceContext

ELEMENTS = (
    StreamRecord,
    Watermark,
    CheckpointBarrier,
    StreamStatus,
    RecordBatch,
    TimeWindow,
    WindowResult,
    Record,
    LogEntry,
    RecordMetadata,
    ConsumedMessage,
    TraceContext,
)


def frozen_twin(cls: type) -> type:
    """``cls`` as ``@dataclass(frozen=True)`` would declare it: the same
    fields, defaults and default factories."""
    namespace: dict = {"__annotations__": {}}
    for field in dataclasses.fields(cls):
        namespace["__annotations__"][field.name] = field.type
        if field.default is not dataclasses.MISSING:
            namespace[field.name] = field.default
        elif field.default_factory is not dataclasses.MISSING:
            namespace[field.name] = dataclasses.field(
                default_factory=field.default_factory
            )
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


@pytest.fixture
def refreeze(monkeypatch):
    """Call to make the twelve classes frozen until the test ends."""

    def freeze() -> None:
        for cls in ELEMENTS:
            twin = frozen_twin(cls)
            for name in ("__init__", "__setattr__", "__delattr__", "__hash__"):
                monkeypatch.setattr(cls, name, getattr(twin, name))

    return freeze


def some(cls: type):
    """An instance with every required field ``None``."""
    required = [
        f
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    return cls(*[None] * len(required))


# -- scenarios: each returns what it produced, as bytes ------------------------


def dump_topic(kafka: KafkaCluster, topic: str) -> list:
    rows = []
    for partition in range(kafka.partition_count(topic)):
        for entry in kafka.fetch(topic, partition, 0, 10_000):
            record = entry.record
            head = [partition, entry.offset, entry.append_time, record.key]
            rows.append(head + [record.value, record.event_time, dict(record.headers)])
    return rows


def join_backfill() -> bytes:
    """Kafka preload, interval join, keyed tumbling average, Kafka sink —
    the ``join_backfill`` workload's job at a few hundred records."""
    reset_uid_counter()
    rng = seeded_rng(7, "element-values-join")
    platform = (
        Platform(tracing=False)
        .with_kafka()
        .topic("predictions", partitions=2)
        .topic("outcomes", partitions=2)
        .topic("model_error", partitions=2)
    )
    kafka = platform.kafka
    producer = platform.producer("replay")
    for seq in range(300):
        ts = seq * 0.05
        key = f"k{rng.randrange(40)}"
        producer.send(
            "predictions",
            {"id": key, "model": f"m{seq % 3}", "val": rng.random(), "ts": ts},
            key=key,
            event_time=ts,
        )
        if rng.random() < 0.9:
            outcome_ts = ts + rng.uniform(0.5, 4.0)
            producer.send(
                "outcomes",
                {"id": key, "obs": rng.random(), "ts": outcome_ts},
                key=key,
                event_time=outcome_ts,
            )
    producer.flush()
    for topic in ("predictions", "outcomes"):
        for partition in range(2):
            key = f"end-{partition}"
            end = {"id": key, "model": "none", "val": 0.0, "obs": 0.0, "ts": 1000.0}
            kafka.append(topic, partition, Record(key, end, 1000.0, {}))
    kafka.replicate()
    env = StreamEnvironment()
    predictions, outcomes = (
        env.from_kafka(kafka, topic, "backfill", max_out_of_orderness=0.5)
        for topic in ("predictions", "outcomes")
    )
    predictions.interval_join(
        outcomes,
        key_fns=(lambda p: p["id"], lambda o: o["id"]),
        lower=-5.0,
        upper=0.0,
        join_fn=lambda p, o: {"model": p["model"], "err": abs(p["val"] - o["obs"])},
        allowed_lateness=1.0,
        state_ttl=10.0,
        parallelism=2,
        name="join",
    ).key_by("model").window(TumblingWindows(2.0)).aggregate(
        AvgAggregate("err")
    ).sink_to_kafka(kafka, "model_error")
    runtime = platform.job(env.build("element-values-join"))
    runtime.run_until_quiescent()
    kafka.replicate()
    out = dump_topic(kafka, "model_error")
    assert len(out) > 10  # windows closed and reached the sink
    return serde.encode([out, runtime.records_processed()])


def platform_sql() -> bytes:
    """``Platform()`` defaults, tracer on: FlinkSQL → Kafka → Pinot."""
    reset_uid_counter()
    rng = seeded_rng(11, "element-values-platform")
    platform = (
        Platform()
        .with_kafka()
        .with_pinot()
        .with_presto()
        .topic("rides", partitions=2)
        .topic("city_stats", partitions=2)
        .stream_table("rides", timestamp_column="event_time")
    )
    platform.streaming_sql(
        "SELECT city, COUNT(*) AS rides, SUM(fare) AS revenue FROM rides "
        "GROUP BY TUMBLE(event_time, 2), city",
        sink_topic="city_stats",
        job_name="city-stats",
    )
    platform.realtime_table(
        TableConfig(
            "city_stats",
            Schema(
                "city_stats",
                (
                    Field("city", FieldType.STRING),
                    Field("window_start", FieldType.DOUBLE),
                    Field("window_end", FieldType.DOUBLE, FieldRole.TIME),
                    Field("rides", FieldType.LONG, FieldRole.METRIC),
                    Field("revenue", FieldType.DOUBLE, FieldRole.METRIC),
                ),
            ),
            time_column="window_end",
            index_config=IndexConfig(inverted=frozenset({"city"})),
            segment_rows_threshold=8,
        ),
        topic="city_stats",
    )
    producer = platform.producer("rides-service")
    for tick in range(8):
        for i in range(20):
            event = {
                "city": f"c{rng.randrange(4)}",
                "fare": rng.randrange(64, 640) / 64,
                "event_time": tick + (i + 0.5) / 20,
            }
            producer.send(
                "rides", event, key=event["city"], event_time=event["event_time"]
            )
        producer.flush()
        platform.step(1.0)
    rows = platform.sql(
        "SELECT city, window_start, rides, revenue FROM city_stats "
        "ORDER BY window_start, city"
    ).rows
    assert len(rows) > 8
    spans = [[s.trace_id, s.name, s.start, s.end] for s in platform.tracer.spans()]
    assert spans
    return serde.encode([rows, dump_topic(platform.kafka, "city_stats"), spans])


def broadcast_two_phase() -> bytes:
    """Tumbling sums over a broadcast edge into a transactional (2PC)
    sink, through checkpoints, crashes and ``restore_from``."""
    reset_uid_counter()
    clock = SimulatedClock()
    cluster = KafkaCluster(clock=clock)
    cluster.create_topic("events", TopicConfig(partitions=2))
    out: list = []
    env = StreamEnvironment()
    sums = (
        env.from_kafka(cluster, "events", group="bcast", timestamp_fn=lambda r: r["ts"])
        .key_by(lambda row: row["k"])
        .window(TumblingWindows(5.0))
        .aggregate(SumAggregate(lambda row: row["v"]))
    )
    fanout = OperatorSpec(
        "fanout",
        "map",
        parallelism=3,
        fn=lambda r: {"k": r.key, "start": r.window.start, "sum": r.value},
    )
    sums._chain(fanout, "broadcast").sink_to_list(out, transactional=True)
    runtime = JobRuntime(
        env.build("element-values-2pc"), blob_store=BlobStore(clock=clock), clock=clock
    )
    producer = Producer(cluster, "workload")
    rng = seeded_rng(3, "element-values-2pc")
    crashes = 0
    for chunk in range(12):
        for i in range(10):
            key, ts = f"k{rng.randrange(4)}", (chunk * 10 + i) * 0.7
            event = {"k": key, "v": float(rng.randrange(50)), "ts": ts}
            producer.produce("events", event, key=key, event_time=ts)
        runtime.run_until_quiescent()
        if chunk % 3 == 0:
            runtime.trigger_checkpoint()
        if chunk % 4 == 3:
            runtime.restore_from(runtime.completed_checkpoints()[-1])
            runtime.run_until_quiescent()
            crashes += 1
    flush = {"k": "flush", "v": 0.0, "ts": 1e6}
    producer.produce("events", flush, key="flush", event_time=1e6)
    runtime.run_until_quiescent()
    runtime.trigger_checkpoint()
    assert crashes == 3 and len(out) > 30
    return serde.encode(out)


def replicate_and_poll() -> bytes:
    """``acks=all`` produce (followers adopt the leader's entries), an
    ``acks=1`` burst caught up by ``replicate``, then a consumer group."""
    reset_uid_counter()
    clock = SimulatedClock()
    cluster = KafkaCluster(clock=clock)
    cluster.create_topic("payments", TopicConfig(partitions=2, replication_factor=3))
    metadata = []
    for acks in ("all", "1"):
        producer = Producer(cluster, f"svc-{acks}", acks=acks, batch_size=512)
        for i in range(60):
            value = {"n": i, "acks": acks}
            producer.send("payments", value, key=f"u{i % 7}", event_time=float(i))
            clock.advance(0.01)
        metadata += producer.flush()
    cluster.replicate()
    for partition in range(2):
        pstate = cluster._pstate("payments", partition)
        leader = cluster._leader_log(pstate).read(0, 10_000)
        for broker_id in pstate.replica_brokers:
            log = cluster.brokers[broker_id].replicas[("payments", partition)]
            # Every replica holds the leader's very objects.
            assert all(a is b for a, b in zip(log.read(0, 10_000), leader))
    coordinator = GroupCoordinator(cluster)
    members = [
        Consumer(cluster, coordinator, "audit", "payments", f"m{i}") for i in range(2)
    ]
    polled = []
    while True:
        batch = [message for member in members for message in member.poll(25)]
        if not batch:
            break
        for m in batch:
            record = m.entry.record
            polled.append(
                [m.topic, m.partition, m.offset, record.key, record.value]
                + [dict(record.headers)]
            )
    assert len(polled) == 120
    return serde.encode([[[m.topic, m.partition, m.offset] for m in metadata], polled])


SCENARIOS = [join_backfill, platform_sql, broadcast_two_phase, replicate_and_poll]


# -- the checks -------------------------------------------------------------------


@pytest.mark.parametrize("cls", ELEMENTS, ids=lambda cls: cls.__name__)
def test_the_guard_is_the_frozen_class(refreeze, cls):
    plain = some(cls)
    field = dataclasses.fields(cls)[0].name
    setattr(plain, field, None)  # the classes themselves do not refuse
    refreeze()
    element = some(cls)  # __init__ stores through object.__setattr__
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(element, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(element, field)
    assert element == plain


def test_a_default_factory_is_stored_under_the_guard(refreeze):
    refreeze()
    assert Record("k", 1, 0.0).headers == {}
    assert Record("k", 1, 0.0).headers is not Record("k", 1, 0.0).headers


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_no_element_is_assigned_to(refreeze, scenario):
    plain = scenario()
    refreeze()
    assert scenario() == plain


def test_an_operator_that_assigns_to_a_record_is_caught(refreeze, monkeypatch):
    process = IntervalJoinOperator.process

    def restamping(self, record, input_index=0):
        record.key = str(record.key)
        return process(self, record, input_index)

    monkeypatch.setattr(IntervalJoinOperator, "process", restamping)
    join_backfill()  # unguarded, the write goes unnoticed
    refreeze()
    with pytest.raises(dataclasses.FrozenInstanceError):
        join_backfill()
