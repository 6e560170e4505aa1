"""Kappa+ is the ordinary job over a Hive source (Section 7), beside its
two foils: Kafka-replay Kappa and a separate Lambda batch."""

from typing import NamedTuple

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import BackfillError
from benchmarks.foils.backfill import kappa_replay, lambda_batch
from repro.flink.graph import StreamEnvironment
from repro.flink.runtime import JobRuntime
from repro.flink.windows import SumAggregate, TumblingWindows
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.storage.blobstore import BlobStore
from repro.storage.hive import HiveMetastore

HOUR = 3600.0

SCHEMA = Schema(
    "events",
    (
        Field("k", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("event_time", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


def pipeline(stream):
    return (
        stream.key_by(lambda row: row["k"])
        .window(TumblingWindows(HOUR))
        .aggregate(SumAggregate(lambda row: row["amount"]))
    )


def build_world(hours=10, per_hour=50, retention_hours=2):
    """Produce `hours` hours of data; Kafka retains the last
    `retention_hours`; Hive has everything."""
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic(
        "events",
        TopicConfig(partitions=2, retention_seconds=retention_hours * HOUR),
    )
    producer = Producer(kafka, "svc", clock=clock)
    metastore = HiveMetastore(BlobStore())
    table = metastore.create_table("events", SCHEMA)
    rows = []
    for h in range(hours):
        hour_rows = []
        for i in range(per_hour):
            clock.advance(HOUR / per_hour)
            row = {
                "k": f"k{i % 3}",
                "amount": 1.0,
                "event_time": clock.now(),
            }
            hour_rows.append(row)
            rows.append(row)
            producer.send("events", row, key=row["k"])
        producer.flush()
        table.add_rows(f"hour={h}", hour_rows)
    kafka.apply_retention()
    return clock, kafka, table, rows


class Backfill(NamedTuple):
    rows_read: int
    out: list
    rounds: int
    peak_buffered: int  # elements left buffered after a scheduler round


def kappa_plus(table, start_time, end_time, **source_options) -> Backfill:
    """The streaming pipeline over a Hive slice, one scheduler round at a
    time so the buffering between rounds can be read."""
    env = StreamEnvironment()
    out: list = []
    source = env.from_hive(table, "event_time", start_time, end_time, **source_options)
    pipeline(source).sink_to_list(out)
    runtime = JobRuntime(env.build("kappa-plus"))
    rounds = peak = 0
    while runtime.run_rounds(1):
        rounds += 1
        peak = max(peak, runtime.total_buffered_elements())
    return Backfill(runtime.records_processed()[source.op_id], out, rounds, peak)


class TestKappaPlus:
    def test_processes_full_history_from_hive(self):
        __, __k, table, rows = build_world()
        report = kappa_plus(table, 0.0, 11 * HOUR)
        assert report.rows_read == len(rows)
        assert sum(r.value for r in report.out) == len(rows)  # every row counted

    def test_start_end_boundaries_respected(self):
        __, __k, table, rows = build_world()
        report = kappa_plus(table, 2 * HOUR, 5 * HOUR)
        expected = sum(1 for r in rows if 2 * HOUR <= r["event_time"] < 5 * HOUR)
        assert report.rows_read == expected
        assert sum(r.value for r in report.out) == expected

    def test_boundary_skips_the_files_outside_it(self, monkeypatch):
        """The range is checked against each hourly file's stats before
        the file is read: 4 of the 10 files hold a row in [2h, 5h)."""
        __, __k, table, rows = build_world()
        reads = []
        get = BlobStore.get
        monkeypatch.setattr(
            BlobStore, "get", lambda store, key: reads.append(key) or get(store, key)
        )
        report = kappa_plus(table, 2 * HOUR, 5 * HOUR)
        assert len(reads) == 4 and len(table.partitions()) == 10
        assert report.rows_read == 150
        assert sum(r.value for r in report.out) == 150

    def test_throttling_bounds_buffering(self):
        __, __k, table, __r = build_world(hours=6, per_hour=100)
        tight = kappa_plus(table, 0.0, 7 * HOUR, batch_size=50)
        loose = kappa_plus(table, 0.0, 7 * HOUR, batch_size=5000)
        assert tight.peak_buffered < loose.peak_buffered
        assert tight.rounds > loose.rounds

    def test_out_of_order_offline_data_handled(self):
        """Hive files shuffled across time still aggregate correctly,
        thanks to the wide watermark slack."""
        clock = SimulatedClock()
        metastore = HiveMetastore(BlobStore())
        table = metastore.create_table("events", SCHEMA)
        # Write hours out of order: hour 1's file lands before hour 0's.
        for h in (1, 0, 2):
            table.add_rows(
                f"zhour={h}" if h else "ahour=0",
                [
                    {"k": "k0", "amount": 1.0, "event_time": h * HOUR + i * 60.0}
                    for i in range(50)
                ],
            )
        report = kappa_plus(table, 0.0, 4 * HOUR, max_out_of_orderness=2 * HOUR)
        assert report.rows_read == 150
        assert sum(r.value for r in report.out) == 150

    def test_invalid_range(self):
        __, __k, table, __r = build_world(hours=1)
        with pytest.raises(BackfillError):
            StreamEnvironment().from_hive(table, "event_time", 10.0, 10.0)

    def test_empty_range_is_clean(self):
        __, __k, table, __r = build_world(hours=1)
        report = kappa_plus(table, 1e9, 2e9)
        assert report.rows_read == 0
        assert report.out == []


class TestKappaReplay:
    def test_replay_misses_expired_data(self):
        __, kafka, __t, rows = build_world(hours=10, retention_hours=2)
        out = []
        report = kappa_replay(
            kafka, "events", "event_time", 0.0, 11 * HOUR, pipeline, out
        )
        assert report.rows_missing > 0
        assert report.rows_read < len(rows)
        assert report.rows_read + report.rows_missing == len(rows)

    def test_replay_complete_when_retention_covers(self):
        __, kafka, __t, rows = build_world(hours=3, retention_hours=100)
        out = []
        report = kappa_replay(
            kafka, "events", "event_time", 0.0, 4 * HOUR, pipeline, out
        )
        assert report.rows_missing == 0
        assert report.rows_read == len(rows)
        assert sum(r.value for r in out) == len(rows)


class TestLambda:
    def test_separate_batch_implementation_runs(self):
        __, __k, table, rows = build_world(hours=3)

        def batch_fn(batch_rows):
            totals: dict[tuple, float] = {}
            for row in batch_rows:
                key = (row["k"], int(row["event_time"] // HOUR))
                totals[key] = totals.get(key, 0.0) + row["amount"]
            return sorted(totals.items())

        report = lambda_batch(table, "event_time", 0.0, 4 * HOUR, batch_fn)
        assert report.rows_read == len(rows)
        assert sum(v for __, v in report.results) == len(rows)

    def test_drift_between_implementations_is_observable(self):
        """The Lambda liability: the second implementation can silently
        diverge from the streaming one."""
        __, __k, table, rows = build_world(hours=3)
        streaming_total = sum(r.value for r in kappa_plus(table, 0.0, 4 * HOUR).out)

        def drifted(batch_rows):  # "bug": double counting
            return [("all", sum(r["amount"] for r in batch_rows) * 2)]

        report = lambda_batch(table, "event_time", 0.0, 4 * HOUR, drifted)
        lambda_total = sum(v for __, v in report.results)
        assert lambda_total != streaming_total
