"""Kappa+ backfill (Section 7).

A week of order data is archived from Kafka into Hive, but Kafka retention
only covers the last day.  A bug fix requires reprocessing the full week
with the same streaming logic, so Kappa+ runs the *streaming* pipeline
directly over the Hive archive: the job's source is a bounded Hive slice
instead of a topic, with a throttled poll size and wide watermark slack
for out-of-order files.

The two designs Kappa+ replaces — replaying the Kafka log (which misses
everything retention expired) and a separate batch implementation (which
drifts) — are compared with it in ``benchmarks/bench_backfill.py`` (C13).

Run:  PYTHONPATH=src python examples/backfill_demo.py
"""

from __future__ import annotations

from repro.common import SimulatedClock
from repro.flink import JobRuntime, StreamEnvironment
from repro.flink.windows import SumAggregate, TumblingWindows
from repro.kafka import KafkaCluster, Producer, TopicConfig
from repro.metadata import Field, FieldRole, FieldType, Schema
from repro.storage import BlobStore, HiveMetastore, RawLogArchiver, compact_to_hive
from repro.workloads import EatsWorkload

DAY = 86_400.0
WEEK = 7 * DAY


def streaming_pipeline(stream):
    """The production logic: daily revenue of delivered orders."""
    return (
        stream.filter(lambda row: row["status"] == "delivered")
        .key_by(lambda row: row["restaurant_id"])
        .window(TumblingWindows(DAY))
        .aggregate(SumAggregate(lambda row: row["amount"]))
    )


def main() -> None:
    clock = SimulatedClock()
    kafka = KafkaCluster("orders", num_brokers=3, clock=clock)
    # Retention: one day only (the paper: "we limit Kafka retention to
    # only a few days").
    kafka.create_topic(
        "orders", TopicConfig(partitions=4, retention_seconds=DAY)
    )
    producer = Producer(kafka, service_name="orders", clock=clock)
    archiver = RawLogArchiver(BlobStore("rawlogs"), "orders")

    workload = EatsWorkload(seed=9, orders_per_second=0.05)
    events = sorted(workload.order_events(WEEK), key=lambda e: e[1])
    from repro.common.records import Record

    for row, arrival in events:
        clock.run_until(max(clock.now(), arrival))
        producer.send("orders", row, key=row["restaurant_id"],
                      event_time=row["event_time"])
        archiver.append(Record(row["restaurant_id"], row, row["event_time"]))
    producer.flush()
    archiver.flush()
    kafka.apply_retention()
    print(f"produced {len(events)} events over a stream-week; "
          f"Kafka retains only the last day")

    # Compact the raw archive into a Hive table.
    schema = Schema(
        "orders_hive",
        tuple(
            Field(name, ftype, role)
            for name, ftype, role in [
                ("order_id", FieldType.STRING, FieldRole.DIMENSION),
                ("restaurant_id", FieldType.STRING, FieldRole.DIMENSION),
                ("eater_id", FieldType.STRING, FieldRole.DIMENSION),
                ("courier_id", FieldType.STRING, FieldRole.DIMENSION),
                ("item", FieldType.STRING, FieldRole.DIMENSION),
                ("hex_id", FieldType.STRING, FieldRole.DIMENSION),
                ("status", FieldType.STRING, FieldRole.DIMENSION),
                ("amount", FieldType.DOUBLE, FieldRole.METRIC),
                ("event_time", FieldType.DOUBLE, FieldRole.TIME),
            ]
        ),
    )
    metastore = HiveMetastore(BlobStore("warehouse"))
    table = metastore.create_table("orders_hive", schema)
    compacted = compact_to_hive(
        archiver, table, partition_of=lambda r: f"day={int(r.event_time // DAY)}"
    )
    print(f"compacted {compacted} rows into Hive partitions {table.partitions()}")

    # Kappa+: the same streaming code, with a Hive slice as its source.
    env = StreamEnvironment()
    kplus_out: list = []
    hive_source = env.from_hive(table, "event_time", 0.0, WEEK, batch_size=200)
    streaming_pipeline(hive_source).sink_to_list(kplus_out)
    runtime = JobRuntime(env.build("kappa-plus"))
    peak_buffered = 0
    while runtime.run_rounds(1):
        peak_buffered = max(peak_buffered, runtime.total_buffered_elements())
    kplus_rows_read = runtime.records_processed()[hive_source.op_id]

    total = lambda results: sum(r.value for r in results)
    print("\n                 rows read   outputs   total revenue")
    print(f"kappa+ (hive):   {kplus_rows_read:9d}  {len(kplus_out):8d}"
          f"   ${total(kplus_out):12.2f}   <- complete & correct")
    print(f"\nkappa+ peak buffered elements under throttling: "
          f"{peak_buffered}")


if __name__ == "__main__":
    main()
