"""End-to-end observability across the Figure 3 path, on the Platform facade.

The acceptance bar: one record traced across at least four layer hops with
monotonically ordered span timestamps, and a freshness view reporting a
seconds-level append -> queryable interval (paper Section 8).
"""

import pytest

from repro import (
    Field,
    FieldRole,
    FieldType,
    Platform,
    Producer,
    Schema,
    SloTarget,
    TableConfig,
)
from repro.common.errors import PlatformError
from repro.observability.trace import HOP_ORDER


def build_pipeline(events: int = 300) -> Platform:
    platform = (
        Platform(seed=7, name="e2e")
        .with_kafka(num_brokers=3)
        .with_pinot(servers=3, backup="p2p")
        .with_presto()
        .topic("orders", partitions=2)
        .topic("city_counts", partitions=1)
        .stream_table("orders", timestamp_column="ts")
    )
    producer = platform.producer("orders-svc")
    for i in range(events):
        platform.clock.advance(0.5)
        producer.send(
            "orders",
            {"city": f"c{i % 3}", "amount": 1.0 + i % 5, "ts": platform.clock.now()},
            key=f"c{i % 3}",
        )
    producer.flush()
    platform.streaming_sql(
        "SELECT city, COUNT(*) AS orders, SUM(amount) AS volume FROM orders "
        "GROUP BY TUMBLE(ts, 30), city",
        sink_topic="city_counts",
        job_name="city-counts",
    ).run_until_quiescent()
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
    state = platform.realtime_table(
        TableConfig("city_counts", schema, time_column="window_end",
                    segment_rows_threshold=20),
        topic="city_counts",
    )
    state.ingestion.run_until_caught_up()
    return platform


class TestTraceAcrossTheStack:
    def test_one_record_covers_four_layer_hops_in_order(self):
        platform = build_pipeline()
        platform.sql("SELECT city, SUM(orders) AS n FROM city_counts GROUP BY city")
        tracer = platform.tracer
        assert tracer is not None
        best = max(
            tracer.trace_ids(),
            key=lambda tid: len({s.name for s in tracer.trace(tid)}),
        )
        spans = tracer.trace(best)
        hops = {s.name for s in spans}
        # The full path: produced into Kafka, processed through Flink,
        # ingested into Pinot, served by a query.
        assert {"produce", "process", "ingest", "query"} <= hops
        assert len({s.layer for s in spans}) >= 4  # kafka/flink/pinot/presto
        # Monotonically ordered: the first occurrence of each hop starts no
        # earlier than the hop before it.
        firsts = [
            min(s.start for s in spans if s.name == hop)
            for hop in HOP_ORDER
            if any(s.name == hop for s in spans)
        ]
        assert firsts == sorted(firsts)
        assert tracer.anomalies() == []

    def test_trace_latency_measured_for_ingested_traces(self):
        platform = build_pipeline()
        tracer = platform.tracer
        latencies = [
            tracer.trace_latency(tid)
            for tid in tracer.traces_for_table("city_counts")
        ]
        latencies = [v for v in latencies if v is not None]
        assert latencies
        assert all(v >= 0 for v in latencies)


class TestFreshnessSlo:
    def test_freshness_view_reports_seconds_level_freshness(self):
        platform = build_pipeline()
        # Rows produced straight into the table's topic wait for the next
        # ingest step: each is queryable one step (2 s) after its append.
        producer = platform.producer("counts-svc")
        for i in range(5):
            producer.send(
                "city_counts",
                {
                    "city": f"late-{i}",
                    "window_start": 0.0,
                    "window_end": 30.0,
                    "orders": 1,
                    "volume": 1.0,
                },
                key=f"late-{i}",
            )
        producer.flush()
        platform.step(2.0)
        ingestion = platform.pinot.table("city_counts").ingestion
        report = platform.freshness("city_counts")
        # One sample per ingested row: the view is every ingest, not a probe.
        assert report.count == ingestion.total_rows_ingested()
        assert report.samples.count(2.0) == 5 and report.max == 2.0
        assert ingestion.staleness() == {0: 0.0}
        # Seconds-level, far inside the Table 1 surge band.
        assert report.p99 <= 30.0
        platform.slo(SloTarget("e2e", "freshness", 99, 120.0))
        platform.slo_monitor.ingest_report("e2e", report)
        assert not platform.slo_monitor.violations()
        assert "OK" in platform.dashboard()
        assert platform.tracer.anomalies() == []

    def test_dashboard_renders_spans_and_slos_together(self):
        platform = build_pipeline()
        platform.slo(SloTarget("e2e", "freshness", 99, 120.0))
        platform.slo_monitor.ingest_report("e2e", platform.freshness("city_counts"))
        text = platform.dashboard()
        for token in ("layer", "ingest", "use case", "freshness"):
            assert token in text

    def test_an_untraced_platform_has_no_freshness_view(self):
        platform = Platform(tracing=False).with_kafka().with_pinot()
        with pytest.raises(PlatformError, match="tracing=True"):
            platform.freshness("city_counts")


class TestClockConsistencyRegression:
    def test_producer_with_skewed_clock_yields_no_inversions(self):
        """A producer holding its own (behind) clock must still emit spans
        on the broker-side timeline — the latent bug the tracer surfaced."""
        from repro.common.clock import SimulatedClock

        platform = (
            Platform(seed=3, name="skew")
            .with_kafka()
            .topic("t", partitions=1)
        )
        behind = SimulatedClock(start=0.0)  # never advanced
        platform.clock.advance(100.0)
        producer = Producer(
            platform.kafka, "svc", clock=behind, tracer=platform.tracer
        )
        producer.produce("t", {"v": 1}, key="k")
        platform.clock.advance(1.0)
        platform.kafka.replicate()
        [span] = platform.tracer.spans("produce")
        assert span.start >= 100.0  # broker time, not the skewed clock
        assert platform.tracer.anomalies() == []
