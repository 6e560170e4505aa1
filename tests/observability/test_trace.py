"""Unit tests for trace contexts, spans and the span collector."""

import pytest

from repro.common.metrics import MetricsRegistry
from repro.observability.trace import (
    HOP_ORDER,
    ORIGIN_HEADER,
    TRACE_HEADER,
    Span,
    SpanCollector,
    TraceContext,
)


class TestTraceContext:
    def test_header_round_trip(self):
        ctx = TraceContext("evt-7", origin_event_time=12.5)
        headers = ctx.to_headers()
        assert headers == {TRACE_HEADER: "evt-7", ORIGIN_HEADER: 12.5}
        assert TraceContext.from_headers(headers) == ctx

    def test_origin_omitted_when_unset(self):
        headers = TraceContext("evt-1").to_headers()
        assert ORIGIN_HEADER not in headers
        assert TraceContext.from_headers(headers) == TraceContext("evt-1")

    def test_untraced_headers_yield_none(self):
        # A bare audit uid does not opt a record into tracing.
        assert TraceContext.from_headers({"uid": "evt-3"}) is None
        assert TraceContext.from_headers({}) is None


class TestSpanLifecycle:
    def test_record_span_one_shot(self):
        collector = SpanCollector()
        span = collector.record_span(
            "t1", "produce", "kafka", start=1.0, end=2.5, topic="rides"
        )
        assert span.finished
        assert span.duration == 1.5
        assert collector.spans("produce") == [span]
        assert collector.trace_ids() == ["t1"]

    def test_begin_end_split_across_hops(self):
        collector = SpanCollector()
        collector.begin_span("t1", "process", "flink", start=1.0, job="j")
        assert collector.open_span_count() == 1
        assert collector.spans("process") == []
        span = collector.end_span("t1", "process", end=4.0, sink="s")
        assert span is not None
        assert span.duration == 3.0
        assert span.attrs == {"job": "j", "sink": "s"}
        assert collector.open_span_count() == 0
        assert collector.spans("process") == [span]

    def test_end_without_begin_is_noop(self):
        collector = SpanCollector()
        assert collector.end_span("ghost", "process", end=1.0) is None
        assert collector.spans() == []

    def test_open_spans_evicted_oldest_first(self):
        # Records aggregated away inside Flink never reach a sink; their
        # process spans must not accumulate without bound.
        collector = SpanCollector(max_open_spans=3)
        for i in range(5):
            collector.begin_span(f"t{i}", "process", "flink", start=float(i))
        assert collector.open_span_count() == 3
        assert collector.end_span("t0", "process", end=9.0) is None  # evicted
        assert collector.end_span("t4", "process", end=9.0) is not None

    def test_duration_of_open_span_raises(self):
        span = Span("t", "process", "flink", start=1.0)
        with pytest.raises(ValueError):
            span.duration


class TestMetricsExport:
    def test_finished_span_observes_histogram(self):
        metrics = MetricsRegistry("obs")
        collector = SpanCollector(metrics=metrics)
        collector.record_span("t1", "ingest", "pinot", start=0.0, end=2.0)
        assert metrics.counter("spans_finished").value == 1
        assert metrics.histogram("span.pinot.ingest").percentile(50) == 2.0

    def test_inverted_span_counted(self):
        metrics = MetricsRegistry("obs")
        collector = SpanCollector(metrics=metrics)
        collector.record_span("t1", "ingest", "pinot", start=5.0, end=1.0)
        assert metrics.counter("spans_inverted").value == 1


class TestTableQueryFanOut:
    def _collector_with_ingests(self):
        collector = SpanCollector()
        for tid in ("a", "b"):
            collector.record_span(
                tid, "ingest", "pinot", start=1.0, end=2.0, table="stats"
            )
        collector.record_span(
            "c", "ingest", "pinot", start=1.0, end=2.0, table="other"
        )
        return collector

    def test_query_attaches_to_each_ingested_trace(self):
        collector = self._collector_with_ingests()
        attached = collector.record_table_query(
            "stats", "pinot", start=3.0, end=4.0
        )
        assert attached == 2
        # Stored once, seen from every trace ingested into the table.
        [query] = collector.spans("query")
        assert query.trace_id is None
        assert query.attrs["table"] == "stats"
        for tid in ("a", "b"):
            [covering] = [s for s in collector.trace(tid) if s.name == "query"]
            assert covering == Span(tid, "query", "pinot", 3.0, 4.0, query.attrs)
        assert [s.name for s in collector.trace("c")] == ["ingest"]

    def test_query_latency_observed_once_not_per_trace(self):
        metrics = MetricsRegistry("obs")
        collector = SpanCollector(metrics=metrics)
        for tid in ("a", "b", "c"):
            collector.record_span(
                tid, "ingest", "pinot", start=1.0, end=2.0, table="stats"
            )
        before = metrics.histogram("span.pinot.query").count
        collector.record_table_query("stats", "pinot", start=3.0, end=4.0)
        assert metrics.histogram("span.pinot.query").count == before + 1

    def test_query_on_unknown_table_still_observed(self):
        metrics = MetricsRegistry("obs")
        collector = SpanCollector(metrics=metrics)
        assert collector.record_table_query(
            "empty", "presto", start=0.0, end=1.0
        ) == 0
        assert metrics.histogram("span.presto.query").count == 1


class TestIntrospection:
    def test_trace_orders_spans_by_start_then_hop(self):
        collector = SpanCollector()
        collector.record_span("t", "ingest", "pinot", start=5.0, end=6.0)
        collector.record_span("t", "produce", "kafka", start=1.0, end=2.0)
        collector.record_span("t", "process", "flink", start=5.0, end=5.5)
        names = [s.name for s in collector.trace("t")]
        assert names == ["produce", "process", "ingest"]

    def test_trace_latency_boundary_to_boundary(self):
        collector = SpanCollector()
        collector.record_span("t", "produce", "kafka", start=1.0, end=2.0)
        collector.record_span("t", "ingest", "pinot", start=5.0, end=7.5)
        assert collector.trace_latency("t") == 6.5
        assert collector.trace_latency("t", last_hop="query") is None

    def test_traces_for_table(self):
        collector = SpanCollector()
        collector.record_span(
            "a", "ingest", "pinot", start=0.0, end=1.0, table="stats"
        )
        assert collector.traces_for_table("stats") == {"a"}
        assert collector.traces_for_table("missing") == set()


class TestAnomalies:
    def test_clean_trace_has_no_anomalies(self):
        collector = SpanCollector()
        for i, hop in enumerate(HOP_ORDER):
            collector.record_span(
                "t", hop, "kafka", start=float(i), end=float(i) + 0.5
            )
        assert collector.anomalies() == []

    def test_end_before_start_reported(self):
        collector = SpanCollector()
        collector.record_span("t", "ingest", "pinot", start=5.0, end=3.0)
        problems = collector.anomalies()
        assert len(problems) == 1
        assert "ends" in problems[0]

    def test_hop_order_inversion_reported(self):
        collector = SpanCollector()
        collector.record_span("t", "produce", "kafka", start=10.0, end=11.0)
        collector.record_span("t", "ingest", "pinot", start=2.0, end=3.0)
        problems = collector.anomalies()
        assert len(problems) == 1
        assert "ingest starts" in problems[0]

    def test_second_hop_cycle_paired_occurrence_wise(self):
        # A window result produced back into Kafka gives the trace a second
        # produce/replicate cycle much later; pairing the k-th occurrences
        # keeps that legal (regression for the quickstart false positive).
        collector = SpanCollector()
        collector.record_span("t", "produce", "kafka", start=1.0, end=1.1)
        collector.record_span("t", "replicate", "kafka", start=2.0, end=2.1)
        collector.record_span("t", "process", "flink", start=50.0, end=50.5)
        collector.record_span("t", "produce", "kafka", start=50.5, end=50.6)
        collector.record_span("t", "replicate", "kafka", start=51.0, end=51.1)
        assert collector.anomalies() == []

    def test_summary_lists_every_hop(self):
        collector = SpanCollector()
        collector.record_span("t", "produce", "kafka", start=0.0, end=1.0)
        collector.record_span("t", "ingest", "pinot", start=1.0, end=4.0)
        summary = collector.summary()
        assert "kafka" in summary and "produce" in summary
        assert "pinot" in summary and "ingest" in summary
