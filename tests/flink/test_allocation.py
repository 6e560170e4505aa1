"""A record is paid for once per hop: exact construction counts.

Elements are values (never assigned to after they are built,
``tests/property/test_element_values.py``): built where a value changes
and shared everywhere else.  These tests count calls of the dataclass-generated ``__init__``
code objects (``sys.setprofile``) over a fixed keyed tumbling-count job,
so a copy that creeps back onto the live path — a re-stamped key the
record already carried, a window rebuilt per record, a record re-keyed
after the task that built it, a trace object built per traced record, a
send time kept for a producer nobody traces — moves an integer.
"""

import sys
from collections import Counter
from operator import itemgetter

import pytest

from repro import Field, FieldRole, FieldType, Platform, Schema, TableConfig
from repro.common.clock import SimulatedClock
from repro.flink.graph import StreamEnvironment
from repro.flink.operators import (
    BoundedListReader,
    BoundedListSource,
    IntervalJoinOperator,
    KafkaSource,
    WindowOperator,
)
from repro.flink.runtime import MICRO_BATCH, JobRuntime, SubTask
from repro.flink.time import StreamRecord
from repro.flink.windows import CountAggregate, TimeWindow, TumblingWindows
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.observability import trace
from repro.sql.planner.scheduler import StageScheduler

RECORDS = 1_000
WINDOWS = 5
KEYS = ("a", "b", "c", "d")


def elements():
    """1,000 records in event-time order over 5 one-minute windows."""
    step = WINDOWS * 60.0 / RECORDS
    keys = [KEYS[i % len(KEYS)] for i in range(RECORDS)]
    return [
        ({"k": key, "other": f"o{i % 3}", "n": i}, i * step, key)
        for i, key in enumerate(keys)
    ]


def count_constructions(runtime, classes=(StreamRecord, TimeWindow)) -> Counter:
    """Run the job to quiescence; constructions of ``classes`` by class."""
    codes = {cls.__init__.__code__: cls.__name__ for cls in classes}
    built: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            built[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        runtime.run_until_quiescent()
    finally:
        sys.setprofile(None)
    return built


def run_counted(key_fn, monkeypatch):
    """Run the job; returns (constructions by class, records the source
    emitted, records the window operator received, fired results)."""
    emitted, received, out = [], [], []
    read, process = BoundedListReader._read, WindowOperator.process
    deliver = SubTask._deliver
    # The length of every run delivered to the window task, and of every
    # run its operator was called with.
    delivered, calls = [], []

    def spy_read(self, *args):
        batch = read(self, *args)
        emitted.extend(batch)
        return batch

    def spy_deliver(self, data, channel):
        if self.spec.kind == "window":
            delivered.append(len(data))
        return deliver(self, data, channel)

    def spy_process(self, records, input_index=0):
        calls.append(len(records))
        received.extend(records)
        return process(self, records, input_index)

    monkeypatch.setattr(BoundedListReader, "_read", spy_read)
    monkeypatch.setattr(SubTask, "_deliver", spy_deliver)
    monkeypatch.setattr(WindowOperator, "process", spy_process)
    env = StreamEnvironment()
    env.add_source(BoundedListSource(elements())).key_by(key_fn).window(
        TumblingWindows(60.0)
    ).aggregate(CountAggregate()).sink_to_list(out)
    built = count_constructions(JobRuntime(env.build("allocation")))
    # One operator call per delivered run, never one per record: each
    # 100-record poll reaches the window between two watermarks, as runs
    # of at most MICRO_BATCH records.
    assert calls == delivered == [32, 32, 32, 4] * (RECORDS // 100)
    assert MICRO_BATCH == 32
    return built, emitted, received, out


def test_a_key_the_record_already_carries_costs_no_copy(monkeypatch):
    built, emitted, received, out = run_counted(lambda v: v["k"], monkeypatch)
    fired = WINDOWS * len(KEYS)
    assert len(out) == fired and sum(r.value for r in out) == RECORDS
    # One StreamRecord per source record, one per fired result: the hash
    # edge hands the operator the very object the source emitted.
    assert built["StreamRecord"] == RECORDS + fired
    assert len(received) == RECORDS
    assert all(got is sent for got, sent in zip(received, emitted))
    # One TimeWindow per distinct window, one per fired WindowResult.
    assert built["TimeWindow"] == WINDOWS + fired


def test_a_joined_pair_is_built_once():
    # Each prediction joins exactly its own outcome, 1 s later; the window
    # is keyed by model, not by the join key, and the join builds each
    # pair keyed by model.
    pairs = 200
    predictions = [({"id": i, "model": f"m{i % 2}"}, float(i), i) for i in range(pairs)]
    outcomes = [({"id": i, "err": 1.0}, i + 1.0, i) for i in range(pairs)]
    out = []
    env = StreamEnvironment()
    left = env.add_source(BoundedListSource(predictions))
    right = env.add_source(BoundedListSource(outcomes))
    joined = left.interval_join(
        right,
        key_fns=(lambda p: p["id"], lambda o: o["id"]),
        lower=-5.0,
        upper=0.0,
        join_fn=lambda p, o: {"model": p["model"], "err": o["err"]},
    )
    windowed = joined.key_by("model").window(TumblingWindows(60.0))
    windowed.aggregate(CountAggregate()).sink_to_list(out)
    runtime = JobRuntime(env.build("join-rekey"))
    built = count_constructions(runtime)
    assert sum(result.value for result in out) == pairs
    assert runtime.records_processed()["interval_join-2"] == 2 * pairs
    # Source records, then one per pair, then one per fired window.
    assert built["StreamRecord"] == 2 * pairs + pairs + len(out)
    assert {result.key for result in out} == {"m0", "m1"}


def _layout_containers(tables, values) -> int:
    """Lists, tuples and dicts reachable from the state tables, the record
    values (and what they hold) excluded."""
    values = {id(value) for value in values}
    count, stack = 0, list(tables.values())
    while stack:
        obj = stack.pop()
        if id(obj) in values:
            continue
        if isinstance(obj, dict):
            count += 1
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            count += 1
            stack.extend(obj)
    return count


@pytest.mark.parametrize("records", [1_000, 10_000])
def test_a_buffered_join_record_is_no_container_of_its_own(records):
    # Join state outlives every step, so what it holds per record is what
    # the collector walks again and again: a key's buffer is one list,
    # however many records it holds.  No watermark: nothing is evicted.
    keys = 25
    op = IntervalJoinOperator(-5.0, 5.0, lambda p, o: None)
    values = []
    for side in (0, 1):
        run = []
        for i in range(records // 2):
            value = {"n": i, "side": side}
            values.append(value)
            run.append(StreamRecord(value, float(i % 100), f"k{i % keys}"))
        op.process(run, side)
    assert op.state.entry_count() == 2 * keys
    assert _layout_containers(op.state.tables, values) == 2 + 2 * keys


def test_a_different_key_is_stamped_where_the_record_is_built(monkeypatch):
    # The source's only out edge is the key_by's hash edge, so the source
    # builds each record keyed by it and the edge routes that very object.
    built, emitted, received, out = run_counted(lambda v: v["other"], monkeypatch)
    fired = len(out)
    assert built["StreamRecord"] == RECORDS + fired
    assert [r.key for r in received] == [r.value["other"] for r in emitted]
    assert all(got is sent for got, sent in zip(received, emitted))
    assert all(got.value is sent.value for got, sent in zip(received, emitted))
    assert {r.key for r in out} == {"o0", "o1", "o2"}


def _count_by(stream, key_fn) -> list:
    """``key_by`` into a one-minute tumbling count; the list it fills."""
    out: list = []
    windowed = stream.key_by(key_fn).window(TumblingWindows(60.0))
    windowed.aggregate(CountAggregate()).sink_to_list(out)
    return out


def _transform_then_key_by(transform: str) -> tuple[Counter, list]:
    """200 source records keyed by their index, through a map or a
    flat_map to a value keyed by another field, into a tumbling count."""
    env = StreamEnvironment()
    source = BoundedListSource([({"n": i}, float(i), i) for i in range(200)])
    stream = env.add_source(source)
    if transform == "map":
        stream = stream.map(lambda v: {"k": "x", "n": v["n"]})
    else:
        stream = stream.flat_map(lambda v: [{"k": "x", "n": v["n"]}])
    out = _count_by(stream, "k")
    return count_constructions(JobRuntime(env.build(transform))), out


@pytest.mark.parametrize("transform", ["map", "flat_map"])
def test_a_transform_before_key_by_builds_each_record_once(transform):
    built, out = _transform_then_key_by(transform)
    assert [r.value for r in out] == [60, 60, 60, 20]
    assert {r.key for r in out} == {"x"}
    # Source records, then one per transformed record, then one per fired
    # window: the transform builds its output keyed for the edge.
    assert built["StreamRecord"] == 200 + 200 + len(out) == 404


def _bounded_job(rows, key_fn):
    env = StreamEnvironment()
    source = BoundedListSource([(row, row["ts"], 0) for row in rows], batch_size=200)
    return env, _count_by(env.add_source(source), key_fn)


def _kafka_job(rows, key_fn):
    cluster = KafkaCluster(clock=SimulatedClock())
    cluster.create_topic("rows", TopicConfig(partitions=1))
    producer = Producer(cluster, "rows-service")
    for row in rows:
        producer.send("rows", row, key=0, event_time=row["ts"])
    producer.flush()
    env = StreamEnvironment()
    return env, _count_by(env.add_source(KafkaSource(cluster, "rows", "g")), key_fn)


def _reader_progress(reader) -> tuple:
    """Where the reader is and the watermarks it derived from it."""
    return (
        reader.snapshot(),
        reader.watermarks.current_watermark(),
        reader._emitted_watermark,
    )


@pytest.mark.parametrize("job", [_bounded_job, _kafka_job], ids=["list", "kafka"])
def test_a_raising_key_fn_consumes_nothing_of_the_poll(job):
    # Each poll reads 200 records; the second one raises on record 250,
    # in its middle.  It moves neither the reader's position nor its
    # watermark and routes nothing; once the key function stops raising,
    # the job ends as a job whose key function never raised.
    rows = [{"n": i, "ts": float(i), "k": i % 3} for i in range(400)]
    broken = [True]

    def key_fn(row):
        if broken[0] and row["n"] == 250:
            raise KeyError("bad row")
        return row["k"]

    env, out = job(rows, key_fn)
    runtime = JobRuntime(env.build("raising-key"))
    (source,) = next(
        tasks for tasks in runtime.tasks.values() if tasks[0].spec.kind == "source"
    )
    runtime.run_rounds(1)
    before = _reader_progress(source.reader)
    assert before[1] > float("-inf")
    with pytest.raises(KeyError, match="bad row"):
        runtime.run_rounds(1)
    assert source.reader.out_key_fn is key_fn
    assert _reader_progress(source.reader) == before
    assert not any(
        isinstance(element, StreamRecord)
        for tasks in runtime.tasks.values()
        for task in tasks
        for channel in task.inputs.values()
        for element in channel.queue
    )
    broken[0] = False
    runtime.run_until_quiescent()
    clean_env, clean = job(rows, itemgetter("k"))
    JobRuntime(clean_env.build("clean")).run_until_quiescent()
    assert [(r.key, r.window, r.value) for r in out] == [
        (r.key, r.window, r.value) for r in clean
    ]
    assert sum(r.value for r in out) >= 300


def test_an_equal_key_of_another_type_is_still_restamped():
    # 5 == 5.0, but the type the key function returns is the type the
    # window state is keyed by and the result reports: identity decides.
    out = []
    env = StreamEnvironment()
    env.add_source(BoundedListSource([({"n": 1}, 1.0, 5)])).key_by(
        lambda v: 5.0
    ).window(TumblingWindows(60.0)).aggregate(CountAggregate()).sink_to_list(out)
    JobRuntime(env.build("retyped")).run_until_quiescent()
    assert [type(r.key) for r in out] == [float]


#: The objects that carry a record's trace through a Flink job.
TRACE_OBJECTS = ("TraceContext", "EntryTrace", "EntryScope")


def test_a_traced_source_builds_no_trace_object_per_record():
    # Kafka source -> key_by -> tumbling count over 200 records: a traced
    # source stamps what it reads with the entry and its poll's scope, the
    # window keeps a record it was handed, and nothing is built per record
    # to carry a trace.
    cluster = KafkaCluster(clock=SimulatedClock())
    cluster.create_topic("rows", TopicConfig(partitions=1))
    producer = Producer(cluster, "rows-service")
    for i in range(200):
        producer.send("rows", {"n": i, "k": i % 2}, key=i % 2, event_time=float(i))
    producer.flush()
    env = StreamEnvironment()
    out = _count_by(env.add_source(KafkaSource(cluster, "rows", "g")), "k")
    tracer = trace.SpanCollector()
    runtime = JobRuntime(env.build("traced"), tracer=tracer)
    classes = [
        cls for cls in map(vars(trace).get, TRACE_OBJECTS) if isinstance(cls, type)
    ]
    built = count_constructions(runtime, classes)
    # An unbounded source never closes the last window, [180, 240).
    assert sum(r.value for r in out) == 180
    assert sum(built.values()) <= len(out) == 6
    # Every fired window's process span is still recorded under a trace
    # the source read.
    process = tracer.spans("process")
    assert len(process) == len(out)
    assert {s.trace_id for s in process} <= {f"rows-0@{i}" for i in range(200)}


def test_an_untraced_producer_and_engine_build_nothing_for_a_tracer(monkeypatch):
    schema = Schema(
        "rows",
        (Field("n", FieldType.LONG, FieldRole.METRIC),
         Field("ts", FieldType.DOUBLE, FieldRole.TIME)),
    )
    platform = (
        Platform(tracing=False).with_kafka().with_pinot().with_presto().topic("rows", 1)
    )
    platform.realtime_table(TableConfig("rows", schema, time_column="ts"), "rows")
    producer = platform.producer("rows-service")
    for i in range(50):
        producer.send("rows", {"n": i, "ts": float(i)}, event_time=float(i))
    # The pending batch keeps no send time per record.
    [batch] = producer._batches.values()
    assert len(batch.records) == 50 and not batch.sent_at
    producer.flush()
    platform.run_until_caught_up()
    query_ids = []
    run = StageScheduler.run

    def spy(self, plan, versions, query_id):
        query_ids.append(query_id)
        return run(self, plan, versions, query_id)

    monkeypatch.setattr(StageScheduler, "run", spy)
    assert platform.sql("SELECT COUNT(*) AS n FROM rows").rows == [{"n": 50}]
    assert query_ids == [None]
