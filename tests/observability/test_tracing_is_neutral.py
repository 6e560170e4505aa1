"""Tracing observes the log; it does not change it.

A record's trace id is its Kafka coordinates — topic, partition and
offset — which the log gives it anyway, so a traced producer adds no
header: the same client sends give the same offsets, the same stored
record sizes, the same producer batches and the same broker bytes with
the tracer on (``Platform()``) and off (``Platform(tracing=False)``), and
a plain send's record carries no header at all.  Nothing a process keeps
between runs feeds a record's bytes either, so the same sends made twice
in one process write the same log.  Only a Flink sink's re-produce
carries the two continuation headers (``trace_id``,
``origin_event_time``), and only when its job is traced: the derived
record continues the trace of a record the job read.
"""

from __future__ import annotations

import random

from repro import Field, FieldRole, FieldType, Platform, Schema, TableConfig
from repro.observability.trace import ORIGIN_HEADER, TRACE_HEADER, record_id

SENDS = 5_000


def _log(platform: Platform, topic: str) -> list:
    """Every stored entry of ``topic``: position, record and stored size."""
    kafka = platform.kafka
    rows = []
    for partition in range(kafka.partition_count(topic)):
        log = kafka._leader_log(kafka._pstate(topic, partition))
        entries, sizes = log.read_with_sizes(0, 1_000_000)
        for entry, size in zip(entries, sizes):
            record = entry.record
            rows.append(
                [partition, entry.offset, size, record.key, record.value]
                + [record.event_time, dict(record.headers)]
            )
    return rows


def _client_sends(tracing: bool) -> dict:
    rng = random.Random(5)
    platform = Platform(seed=5, tracing=tracing).with_kafka().topic("rides", 4)
    producer = platform.producer("rides-service")
    for i in range(SENDS):
        city = f"city-{rng.randrange(12)}"
        event = {"city": city, "fare": rng.randrange(500, 9000) / 100, "n": i}
        producer.send("rides", event, key=city, event_time=i * 0.01)
    producer.flush()
    platform.kafka.replicate()
    return {
        "log": _log(platform, "rides"),
        "batches_sent": producer.batches_sent,
        "total_bytes": platform.kafka.total_bytes(),
        "spans": platform.tracer.span_count() if tracing else 0,
    }


def test_the_same_client_sends_write_the_same_log():
    traced, untraced = _client_sends(True), _client_sends(False)
    assert traced["spans"] > SENDS  # the tracer was on and saw every hop
    assert traced["log"] == untraced["log"]
    assert traced["batches_sent"] == untraced["batches_sent"]
    assert traced["total_bytes"] == untraced["total_bytes"]
    assert len(traced["log"]) == SENDS
    assert all(row[-1] == {} for row in traced["log"])


def test_the_same_sends_twice_in_one_process_write_the_same_log():
    first, second = _client_sends(False), _client_sends(False)
    assert first == second


def _pipeline(tracing: bool) -> Platform:
    rng = random.Random(9)
    platform = (
        Platform(seed=9, tracing=tracing)
        .with_kafka()
        .with_pinot()
        .topic("rides", partitions=2)
        .topic("city_stats", partitions=1)
        .stream_table("rides", timestamp_column="event_time")
    )
    platform.streaming_sql(
        "SELECT city, COUNT(*) AS rides FROM rides "
        "GROUP BY TUMBLE(event_time, 2), city",
        sink_topic="city_stats",
        job_name="city-stats",
    )
    schema = Schema(
        "city_stats",
        (
            Field("city", FieldType.STRING),
            Field("window_start", FieldType.DOUBLE),
            Field("window_end", FieldType.DOUBLE, FieldRole.TIME),
            Field("rides", FieldType.LONG, FieldRole.METRIC),
        ),
    )
    platform.realtime_table(
        TableConfig("city_stats", schema, time_column="window_end"),
        topic="city_stats",
    )
    producer = platform.producer("rides-service")
    for tick in range(8):
        for i in range(20):
            city = f"c{rng.randrange(3)}"
            event = {"city": city, "event_time": tick + (i + 0.5) / 20}
            producer.send("rides", event, key=city, event_time=event["event_time"])
        producer.flush()
        platform.step(1.0)
    return platform


def test_only_a_flink_sink_re_produce_carries_the_continuation():
    traced, untraced = _pipeline(True), _pipeline(False)
    assert _log(traced, "rides") == _log(untraced, "rides")
    derived = _log(traced, "city_stats")
    plain = _log(untraced, "city_stats")
    assert len(derived) == len(plain) > 3
    # Same results; the traced job's carry the trace of a ride it read.
    assert [row[4] for row in derived] == [row[4] for row in plain]
    # Each carries the id and event time of a ride it read.
    rides = {record_id("rides", row[0], row[1]): row for row in _log(traced, "rides")}
    for row in derived:
        assert set(row[-1]) == {TRACE_HEADER, ORIGIN_HEADER}
        assert row[-1][ORIGIN_HEADER] == rides[row[-1][TRACE_HEADER]][5]
    assert all(row[-1] == {} for row in plain)
