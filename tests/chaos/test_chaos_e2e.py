"""The acceptance scenario: one chaos run hitting every layer.

A live pipeline (orders -> FlinkSQL tumbling windows -> city_counts ->
Pinot) takes a broker kill/restart, a Flink crash-restore from the last
snapshot, and a Pinot server death with peer-to-peer recovery — all in a
single seeded timeline — and must come out the other side with:

* no acked record lost (``acks=all`` + RetryPolicy rides out the outage),
* exactly-once sink delivery: the job's sink is transactional (2PC), so
  the raw city_counts log contains every closed window exactly once —
  no duplicate re-emissions after the crash-restore,
* a clean cross-layer integrity audit (Section 9.4): lineage digests
  reconcile with zero missing / duplicated / reordered records across
  the orders log, the city_counts log, and the Pinot table scan,
* the freshness SLO re-attained, with every fault visible as a span.
"""

from repro import (
    Field,
    FieldRole,
    FieldType,
    Platform,
    RetryPolicy,
    Schema,
    SloTarget,
    TableConfig,
)
from repro.audit import IntegrityAuditor
from repro.chaos import faults

WINDOW = 10.0


def _not_probe_record(record):
    return not str(record.value.get("city", "")).startswith("__probe")


def _not_probe_row(row):
    return not str(row.get("city", "")).startswith("__probe")


def run_scenario(seed=2021):
    """Build the pipeline, script the faults, drive to completion.

    Returns ``(platform, chaos, expected)`` where ``expected`` maps
    ``(window_start, city) -> (orders, volume)`` computed directly from
    the produced events — the fault-free ground truth.
    """
    platform = (
        Platform(seed=seed, name="chaos")
        .with_kafka(num_brokers=3)
        .with_pinot(servers=3, backup="p2p")
        .with_presto()
        .topic("orders", partitions=2, replication_factor=2)
        .topic("city_counts", partitions=1, replication_factor=2)
        .stream_table("orders", timestamp_column="ts")
    )
    platform.streaming_sql(
        "SELECT city, COUNT(*) AS orders, SUM(amount) AS volume FROM orders "
        f"GROUP BY TUMBLE(ts, {int(WINDOW)}), city",
        sink_topic="city_counts",
        job_name="city-counts",
        sink_transactional=True,
    )
    schema = Schema(
        "city_counts",
        (
            Field("city", FieldType.STRING),
            Field("window_start", FieldType.DOUBLE),
            Field("window_end", FieldType.DOUBLE, FieldRole.TIME),
            Field("orders", FieldType.LONG, FieldRole.METRIC),
            Field("volume", FieldType.DOUBLE, FieldRole.METRIC),
        ),
    )
    platform.realtime_table(
        TableConfig("city_counts", schema, time_column="window_end",
                    segment_rows_threshold=10, dedup_enabled=True),
        topic="city_counts",
    )
    platform.slo(SloTarget("city_counts", "freshness", 99, 30.0))

    # The transactional sink only writes on checkpoint completion, so the
    # timeline checkpoints regularly: before the broker outage, after it
    # (the restore point for the t=35 crash), and once more after the
    # flush event so the final windows commit.
    chaos = (
        platform.chaos()
        .checkpoint_flink(at=15.0)
        .kill_broker(at=20.0, broker_id=0)
        .restart_broker(at=30.0, broker_id=0)
        .checkpoint_flink(at=33.0)
        .crash_flink_job(at=35.0)
        .kill_pinot_server(at=45.0, name="chaos-pinot-0")
        .recover_pinot_server(at=50.0, failed="chaos-pinot-0",
                              replacement="chaos-pinot-3")
        .checkpoint_flink(at=55.0)
    )

    # acks=all + bounded exponential backoff: the producer blocks through
    # the t=20..30 outage and lands every record once the broker returns
    # (the restart timer fires *inside* the retry backoff).
    producer = platform.producer(
        "orders-svc",
        acks="all",
        retry_policy=RetryPolicy(max_attempts=10, base_delay=0.5, max_delay=5.0),
    )
    kafka = platform.kafka
    acked = []  # (partition, offset, uid): the zero-loss ledger
    expected = {}  # (window_start, city) -> (orders, volume)
    orders_audit = IntegrityAuditor("orders")
    for i in range(60):
        city = f"c{i % 3}"
        amount = 1.0 + i % 5
        ts = platform.clock.now()
        payload = {"city": city, "amount": amount, "ts": ts}
        orders_audit.record_expected(city, payload)
        meta = producer.produce("orders", payload, key=city)
        [entry] = kafka.fetch("orders", meta.partition, meta.offset, 1)
        acked.append((meta.partition, meta.offset, entry.record.headers["uid"]))
        window_start = ts // WINDOW * WINDOW
        orders, volume = expected.get((window_start, city), (0, 0.0))
        expected[(window_start, city)] = (orders + 1, volume + amount)
        chaos.run(until=min(ts + 0.7, 60.0))
    # One far-future flush event pushes the watermark past every real
    # window so they all close; its own window never emits, so it is not
    # part of the expectation.
    flush_ts = platform.clock.now() + 100.0
    flush_payload = {"city": "flush", "amount": 0.0, "ts": flush_ts}
    orders_audit.record_expected("flush", flush_payload)
    producer.produce("orders", flush_payload, key="flush", event_time=flush_ts)
    chaos.run(until=platform.clock.now() + 15.0)

    def sink_sums():
        # With a transactional sink the raw log is already exactly-once;
        # the keyed dedupe below is therefore a pure identity map, and the
        # sums must equal the fault-free expectation.
        sums = {}
        for entry in kafka.fetch("city_counts", 0, 0, 100_000):
            value = entry.record.value
            if str(value.get("city", "")).startswith("__probe"):
                continue  # freshness-probe sentinels, not window emissions
            sums[(value["window_start"], value["city"])] = (
                value["orders"], value["volume"],
            )
        return sums

    # Cross-layer integrity audit (Section 9.4): the source ledger against
    # the orders log, and the analytically-expected window rows against
    # BOTH the city_counts log and the Pinot table scan.  Registered
    # before the freshness invariant so the scans run before probe
    # sentinels are produced (they are filtered out regardless).
    orders_audit.add_kafka_stage(kafka, "orders")
    counts_audit = IntegrityAuditor("city-counts")
    for (window_start, city), (orders, volume) in expected.items():
        counts_audit.record_expected(
            (window_start, city),
            {
                "city": city,
                "window_start": window_start,
                "window_end": window_start + WINDOW,
                "orders": orders,
                "volume": volume,
            },
        )
    counts_key = lambda value: (value["window_start"], value["city"])  # noqa: E731
    counts_audit.add_kafka_stage(
        kafka,
        "city_counts",
        key_fn=lambda record: counts_key(record.value),
        value_fn=lambda record: record.value,
        where=_not_probe_record,
    )
    counts_audit.add_pinot_stage(
        platform.pinot,
        "city_counts",
        key_fn=counts_key,
        where=_not_probe_row,
    )

    chaos.expect_no_acked_loss("orders", acked)
    chaos.expect_equal("exactly-once-window-sums", sink_sums, expected)
    chaos.expect_integrity(orders_audit)
    chaos.expect_integrity(counts_audit)
    chaos.expect_freshness("city_counts", target_seconds=30.0, sentinels=2)
    return platform, chaos, expected


class TestChaosEndToEnd:
    def test_pipeline_survives_multi_layer_fault_schedule(self):
        platform, chaos, expected = run_scenario()
        report = chaos.report()
        assert report.ok, report.render()
        assert len(report.invariants) == 5
        assert expected  # the ground truth covered real windows
        # The whole schedule actually ran, in order.
        kinds = [e.kind for e in chaos.events]
        assert kinds == [
            faults.FLINK_CHECKPOINT,
            faults.KAFKA_KILL_BROKER,
            faults.KAFKA_RESTART_BROKER,
            faults.FLINK_CHECKPOINT,
            faults.FLINK_CRASH,
            faults.PINOT_KILL_SERVER,
            faults.PINOT_RECOVER_SERVER,
            faults.FLINK_CHECKPOINT,
        ]
        times = [e.time for e in chaos.events]
        assert times == sorted(times) == [
            15.0, 20.0, 30.0, 33.0, 35.0, 45.0, 50.0, 55.0,
        ]

    def test_faults_are_visible_as_spans_on_the_dashboard(self):
        platform, chaos, __ = run_scenario()
        report = chaos.report()
        assert report.ok, report.render()
        spans = platform.tracer.spans(layer="chaos")
        assert [s.name for s in spans] == [e.kind for e in chaos.events]
        assert {s.trace_id for s in spans} == {"chaos-2021"}
        # Fault spans share the timeline with the pipeline's own spans, so
        # the dashboard can correlate them.
        assert platform.tracer.spans("produce", layer="kafka")
        text = platform.dashboard()
        assert "chaos" in text and "freshness" in text

    def test_crash_restore_no_duplicate_sink_emissions(self):
        """The old at-least-once duplicate behaviour is gone: with the 2PC
        transactional sink, the RAW city_counts log — not a deduped view —
        contains every closed window exactly once, despite the crash at
        t=35 rewinding the sources and re-emitting windows into the
        (aborted, then regenerated) transaction buffers."""
        platform, chaos, expected = run_scenario()
        report = chaos.report()
        assert report.ok, report.render()
        raw = [
            entry.record.value
            for entry in platform.kafka.fetch("city_counts", 0, 0, 100_000)
            if not str(entry.record.value.get("city", "")).startswith("__probe")
        ]
        distinct = {(v["window_start"], v["city"]) for v in raw}
        assert len(raw) == len(distinct)
        assert distinct == set(expected)

    def test_integrity_audit_catches_an_injected_duplicate(self):
        """Negative control: the auditor is not vacuously green.  Replay
        one orders record after the run — the audit must flag exactly that
        key as duplicated while the other stages stay clean."""
        platform, chaos, __ = run_scenario()
        [entry] = platform.kafka.fetch("orders", 0, 0, 1)
        platform.producer("rogue-replayer").produce(
            "orders", dict(entry.record.value), key=entry.record.value["city"]
        )
        report = chaos.report()
        assert not report.ok
        audit = next(
            r for r in report.invariants if r.name == "integrity:orders"
        )
        assert not audit.passed
        assert "duplicated 1" in audit.detail

    def test_same_seed_byte_identical_timeline_and_report(self):
        __, first, __ = run_scenario()
        __, second, __ = run_scenario()
        assert first.report().render() == second.report().render()
        assert [e.render() for e in first.events] == [
            e.render() for e in second.events
        ]
        # report() reconciled every registered cross-layer audit: their
        # full per-key missing/duplicated/reordered findings, lineage
        # digests included, are part of the byte comparison.
        audits = [a.last_report.render() for a in first.auditors]
        assert audits and all(audits)
        assert audits == [a.last_report.render() for a in second.auditors]

    def test_different_seed_changes_only_the_label(self):
        """The schedule is scripted; the seed namespaces the run (trace id,
        report header) without silently changing scripted fault times."""
        __, a, __ = run_scenario(seed=2021)
        __, b, __ = run_scenario(seed=77)
        assert a.trace_id == "chaos-2021" and b.trace_id == "chaos-77"
        assert [e.time for e in a.events] == [e.time for e in b.events]
