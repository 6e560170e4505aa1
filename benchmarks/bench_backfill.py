"""Experiment C13 — §7: backfill architectures.

Paper: Lambda "leads to maintenance and consistency issues when trying to
keep both implementations in sync"; Kappa "requires very long data
retention in Kafka ... we limit Kafka retention to only a few days.
Therefore, we're unable to adopt the Kappa architecture"; Kappa+ reuses
the streaming logic over Hive with throttling and out-of-order tolerance.
Here Kappa+ is the ordinary job with a Hive slice as its source
(``StreamEnvironment.from_hive``), throttled by the source's poll size.

Series: completeness, correctness and bounded memory when reprocessing a
week of data with one day of Kafka retention.  Memory is the peak number
of elements left buffered in the job's channels after a scheduler round.
"""

from __future__ import annotations

from repro.common.clock import SimulatedClock
from benchmarks.foils.backfill import kappa_replay, lambda_batch
from repro.flink.graph import StreamEnvironment
from repro.flink.runtime import JobRuntime
from repro.flink.windows import SumAggregate, TumblingWindows
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.storage.blobstore import BlobStore
from repro.storage.hive import HiveMetastore

from benchmarks.conftest import print_table

DAY = 86_400.0
DAYS = 7
PER_DAY = 400

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
        .window(TumblingWindows(DAY))
        .aggregate(SumAggregate(lambda row: row["amount"]))
    )


def build_world():
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic(
        "events", TopicConfig(partitions=4, retention_seconds=DAY)
    )
    producer = Producer(kafka, "svc", clock=clock)
    table = HiveMetastore(BlobStore()).create_table("events", SCHEMA)
    total = 0.0
    for day in range(DAYS):
        day_rows = []
        for i in range(PER_DAY):
            clock.advance(DAY / PER_DAY)
            row = {"k": f"k{i % 5}", "amount": 1.0, "event_time": clock.now()}
            day_rows.append(row)
            total += 1.0
            producer.send("events", row, key=row["k"])
        producer.flush()
        table.add_rows(f"day={day}", day_rows)
    kafka.apply_retention()
    return kafka, table, total


def kappa_plus(table, batch_size, sink_collector):
    """Kappa+: the streaming pipeline over the whole Hive table, polled
    ``batch_size`` rows at a time; returns (rows read, peak buffered)."""
    env = StreamEnvironment()
    source = env.from_hive(
        table, "event_time", 0.0, (DAYS + 1) * DAY, batch_size=batch_size
    )
    pipeline(source).sink_to_list(sink_collector)
    runtime = JobRuntime(env.build("kappa-plus"))
    peak = 0
    while runtime.run_rounds(1):
        peak = max(peak, runtime.total_buffered_elements())
    return runtime.records_processed()[source.op_id], peak


def run_all():
    kafka, table, truth_total = build_world()
    out = {}
    kappa_out: list = []
    kappa = kappa_replay(
        kafka, "events", "event_time", 0.0, (DAYS + 1) * DAY, pipeline, kappa_out
    )
    out["kappa (kafka replay)"] = (
        kappa.rows_read, sum(r.value for r in kappa_out), 0
    )
    def drifted_batch(rows):  # the unsynchronized second implementation
        return [("total", sum(r["amount"] for r in rows if r["amount"] > 0.5) * 1.02)]

    lam = lambda_batch(table, "event_time", 0.0, (DAYS + 1) * DAY, drifted_batch)
    out["lambda (separate batch)"] = (
        lam.rows_read, sum(v for __, v in lam.results), 0
    )
    kplus_out: list = []
    kplus_rows, kplus_peak = kappa_plus(table, 100, kplus_out)
    out["kappa+ (hive, throttled)"] = (
        kplus_rows,
        sum(r.value for r in kplus_out),
        kplus_peak,
    )
    # Throttling comparison for the memory claim.
    __, wide_peak = kappa_plus(table, 5000, [])
    return out, truth_total, kplus_peak, wide_peak


def test_backfill_architectures(benchmark):
    out, truth_total, throttled_peak, unthrottled_peak = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    print_table(
        f"C13: reprocess {DAYS} days ({int(truth_total)} rows), "
        "Kafka retains 1 day",
        ["architecture", "rows read", "computed total", "correct",
         "peak buffered"],
        [
            [name, rows, f"{total:.0f}",
             "yes" if abs(total - truth_total) < 1e-6 else "NO", peak]
            for name, (rows, total, peak) in out.items()
        ],
    )
    kappa_total = out["kappa (kafka replay)"][1]
    lambda_total = out["lambda (separate batch)"][1]
    kplus_total = out["kappa+ (hive, throttled)"][1]
    # Kappa: incomplete (retention expired most of the week).
    assert kappa_total < truth_total * 0.5
    # Lambda: complete but silently wrong (implementation drift).
    assert out["lambda (separate batch)"][0] == truth_total
    assert abs(lambda_total - truth_total) > 1.0
    # Kappa+: complete and correct with the SAME streaming code.
    assert out["kappa+ (hive, throttled)"][0] == truth_total
    assert abs(kplus_total - truth_total) < 1e-6
    # Throttling bounds memory.
    assert throttled_peak < unthrottled_peak
    print_table(
        "C13: Kappa+ throttling bounds in-flight memory",
        ["throttle (source poll size)", "peak buffered elements"],
        [[100, throttled_peak], [5000, unthrottled_peak]],
    )
    benchmark.extra_info["kappa_completeness"] = kappa_total / truth_total
