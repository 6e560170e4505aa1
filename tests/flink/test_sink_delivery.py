"""A sink writes a delivery, not a record.

The runtime hands a sink one delivery at a time — a micro-batched run of
up to ``MICRO_BATCH`` records, or a committed 2PC transaction — and
flushes it after the last write.  A :class:`KafkaSink` therefore sends a
delivery as one producer batch per partition, and a keyed delivery lands
exactly where one ``produce`` per record would have put it.  A flush
that fails leaves nothing behind for the next delivery.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import BrokerUnavailableError
from repro.flink.graph import StreamEnvironment
from repro.flink.operators import BoundedListSource, KafkaSink, WindowOperator
from repro.flink.runtime import MICRO_BATCH, JobRuntime
from repro.flink.time import StreamRecord, Watermark
from repro.flink.windows import CountAggregate, TumblingWindows
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer, hash_partitioner
from repro.observability.trace import SpanCollector, element_trace
from repro.storage.blobstore import BlobStore

PARTITIONS = 4
KEYS = [f"k{i}" for i in range(7)]


def _cluster() -> KafkaCluster:
    cluster = KafkaCluster(clock=SimulatedClock())
    cluster.create_topic("in", TopicConfig(partitions=1))
    cluster.create_topic("out", TopicConfig(partitions=PARTITIONS))
    return cluster


def _log(cluster: KafkaCluster, topic: str = "out") -> list:
    """Every stored entry of ``topic``: position, stored size and record."""
    rows = []
    for partition in range(cluster.partition_count(topic)):
        log = cluster._leader_log(cluster._pstate(topic, partition))
        entries, sizes = log.read_with_sizes(0, 1_000_000)
        for entry, size in zip(entries, sizes):
            record = entry.record
            rows.append(
                (partition, entry.offset, size, record.key, record.value)
                + (record.event_time, dict(record.headers))
            )
    return rows


def _stored(cluster: KafkaCluster) -> int:
    return sum(cluster.end_offset("out", p) for p in range(PARTITIONS))


def _bounded_job(cluster: KafkaCluster, rows: list) -> tuple[JobRuntime, KafkaSink]:
    env = StreamEnvironment()
    env.add_source(BoundedListSource(rows)).sink_to_kafka(cluster, "out")
    graph = env.build("deliveries")
    return JobRuntime(graph, clock=cluster.clock), graph.sinks()[0].sink


def _kafka_job(
    cluster: KafkaCluster, key_fn=None, blob_store=None, tracer=None
) -> tuple[JobRuntime, KafkaSink]:
    """``in`` -> ``out`` through a Kafka sink, transactional when the job
    checkpoints to ``blob_store``."""
    env = StreamEnvironment()
    env.from_kafka(cluster, "in", group="g").sink_to_kafka(
        cluster, "out", key_fn=key_fn, transactional=blob_store is not None
    )
    graph = env.build("relay")
    runtime = JobRuntime(graph, blob_store, clock=cluster.clock, tracer=tracer)
    return runtime, graph.sinks()[0].sink


def _send(cluster: KafkaCluster, count: int, start: int = 0) -> None:
    producer = Producer(cluster, "client")
    for i in range(start, start + count):
        producer.send("in", {"n": i}, key=KEYS[i % len(KEYS)], event_time=float(i))
    producer.flush()


def _fail_first_append(cluster: KafkaCluster, monkeypatch) -> None:
    """The next ``append_batch`` into ``out`` raises; later ones land."""
    append = cluster.append_batch
    failed = []

    def failing(topic, *args, **kwargs):
        if topic == "out" and not failed:
            failed.append(topic)
            raise BrokerUnavailableError("leader of out is down")
        return append(topic, *args, **kwargs)

    monkeypatch.setattr(cluster, "append_batch", failing)


def test_a_delivery_is_one_producer_batch_per_partition():
    cluster = _cluster()
    rows = [({"n": i}, float(i), KEYS[i % len(KEYS)]) for i in range(3 * MICRO_BATCH)]
    runtime, sink = _bounded_job(cluster, rows)
    runtime.run_until_quiescent()
    deliveries = [rows[i : i + MICRO_BATCH] for i in range(0, len(rows), MICRO_BATCH)]
    assert sink._producer.batches_sent == sum(
        len({hash_partitioner(key, PARTITIONS) for *__, key in delivery})
        for delivery in deliveries
    )
    assert _stored(cluster) == len(rows)


def test_a_keyed_delivery_writes_what_one_produce_per_record_writes(monkeypatch):
    cluster = _cluster()
    _send(cluster, 5 * MICRO_BATCH + 3)
    runtime, __ = _kafka_job(cluster, tracer=SpanCollector())
    written = []
    write = KafkaSink.write

    def spy(self, record):
        written.append(record)
        write(self, record)

    monkeypatch.setattr(KafkaSink, "write", spy)
    runtime.run_until_quiescent()

    reference = _cluster()
    producer = Producer(reference, "flink-sink-out")
    for record in written:
        producer.produce(
            "out",
            record.value,
            key=record.key,
            event_time=record.timestamp,
            headers=element_trace(record.trace, record.scope).to_headers(),
        )
    log = _log(cluster)
    assert len(log) == len(written)
    assert all(headers for *__, headers in log)  # traced: continuation headers
    assert log == _log(reference)


def test_a_keyless_delivery_fills_one_sticky_partition():
    """As Kafka batches keyless records: one partition per batch, the
    next batch on the next partition."""
    cluster = _cluster()
    rows = [({"n": i}, float(i)) for i in range(3 * MICRO_BATCH)]
    runtime, sink = _bounded_job(cluster, rows)
    runtime.run_until_quiescent()
    ends = [cluster.end_offset("out", p) for p in range(PARTITIONS)]
    assert ends == [MICRO_BATCH, MICRO_BATCH, MICRO_BATCH, 0]
    assert sink._producer.batches_sent == 3
    first = [row[4]["n"] for row in _log(cluster) if row[0] == 0]
    assert first == list(range(MICRO_BATCH))


def test_a_failed_flush_leaves_nothing_for_the_next_delivery(monkeypatch):
    cluster = _cluster()
    runtime, __ = _kafka_job(cluster)
    _send(cluster, 20)
    _fail_first_append(cluster, monkeypatch)
    with pytest.raises(BrokerUnavailableError):
        runtime.run_until_quiescent()
    after_failure = _log(cluster)
    assert len(after_failure) < 20  # the failed batch was not written

    _send(cluster, 10, start=20)
    runtime.run_until_quiescent()
    log = _log(cluster)
    fresh = [row for row in log if row not in after_failure]
    assert sorted(row[4]["n"] for row in fresh) == list(range(20, 30))


def test_a_failed_write_still_sends_what_came_before_it_and_no_more():
    """As one ``produce`` per record did: the records written before the
    one that failed are sent, and nothing of the delivery is left over."""

    def key_fn(value):
        if value["n"] == 5:
            raise ValueError("no key for record 5")
        return KEYS[value["n"] % len(KEYS)]

    cluster = _cluster()
    runtime, __ = _kafka_job(cluster, key_fn=key_fn)
    _send(cluster, 20)
    with pytest.raises(ValueError):
        runtime.run_until_quiescent()
    assert sorted(row[4]["n"] for row in _log(cluster)) == list(range(5))

    _send(cluster, 10, start=20)
    runtime.run_until_quiescent()
    assert sorted(row[4]["n"] for row in _log(cluster)) == [*range(5), *range(20, 30)]


def test_a_failed_commit_leaves_nothing_past_on_restore(monkeypatch):
    cluster = _cluster()
    runtime, sink = _kafka_job(cluster, blob_store=BlobStore(clock=cluster.clock))
    empty = runtime.trigger_checkpoint()
    _send(cluster, 20)
    runtime.run_until_quiescent()
    _fail_first_append(cluster, monkeypatch)
    epoch = sink._producer.epoch
    with pytest.raises(BrokerUnavailableError):
        runtime.trigger_checkpoint()
    stored = _stored(cluster)
    assert stored < 20

    runtime.restore_from(empty)
    assert sink._producer.epoch == epoch + 1
    runtime.run_until_quiescent()
    runtime.trigger_checkpoint()
    # The replayed transaction is written whole, and nothing else is.
    assert _stored(cluster) - stored == 20


@pytest.mark.parametrize("held", [False, True], ids=["empty", "holding"])
def test_a_late_only_record_leaves_window_state_unchanged(held):
    operator = WindowOperator(TumblingWindows(10.0), CountAggregate())
    if held:
        operator.process([StreamRecord({"n": 0}, 105.0, "k")])
    operator.on_watermark(Watermark(100.0))
    tables = {name: dict(table) for name, table in operator.state.tables.items()}
    checkpoint = operator.state.snapshot()

    assert operator.process([StreamRecord({"n": 1}, 95.0, "k")]) == []
    assert operator.late_dropped == 1
    assert operator.state.tables == tables
    assert ("acc" in operator.state.tables) is held
    assert operator.state.snapshot() == checkpoint
