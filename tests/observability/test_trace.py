"""Unit tests for trace contexts, spans and the span collector."""

import pytest

from repro.common.records import Record
from repro.kafka.log import LogEntry
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
        # Only a record no client stamped has no identity.
        assert TraceContext.from_headers({}) is None
        assert TraceContext.from_headers({"service": "raw"}) is None

    def test_audit_identity_is_the_fallback(self):
        # A record's own uid / produced_at are its trace id and origin; a
        # continued trace's pair wins over them.
        own = {"uid": "evt-3", "produced_at": 1.5, "service": "svc"}
        assert TraceContext.from_headers(own) == TraceContext("evt-3", 1.5)
        continued = dict(own, **TraceContext("evt-1", 0.5).to_headers())
        assert TraceContext.from_headers(continued) == TraceContext("evt-1", 0.5)

    def test_entry_time_never_travels_in_headers(self):
        ctx = TraceContext.from_headers({"uid": "evt-3"}, entered=7.0)
        assert ctx == TraceContext("evt-3", None, entered=7.0)
        assert ctx.to_headers() == {TRACE_HEADER: "evt-3"}


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

    def test_a_hop_over_log_entries_starts_at_each_append(self):
        collector = SpanCollector()
        entries = [
            LogEntry(7, Record("k", 1, 0.0, {"uid": "a"}), append_time=2.0),
            LogEntry(8, Record("k", 2, 0.0, {"uid": "b"}), append_time=3.5),
            LogEntry(9, Record("k", 3, 0.0, {}), append_time=4.0),
        ]
        collector.record_entries("consume", "kafka", entries, end=5.0, group="g")
        spans = collector.spans("consume")
        assert [(s.trace_id, s.start, s.end) for s in spans] == [
            ("a", 2.0, 5.0),
            ("b", 3.5, 5.0),
            (None, 4.0, 5.0),  # no client stamped it: a hop of no trace
        ]
        assert spans[0].attrs == {"group": "g"}
        assert collector.trace_ids() == ["a", "b"]

    def test_trace_ids_are_read_off_headers_only_when_asked(self):
        reads = []

        class Headers(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

        collector = SpanCollector()
        records = [Record("k", i, 0.0, Headers(uid=f"t{i}")) for i in range(3)]
        collector.record_batch("produce", "kafka", records, [0.0] * 3, end=1.0)
        assert reads == [] and collector.span_count() == 3
        assert collector.trace_ids() == ["t0", "t1", "t2"]
        assert reads  # the first reader worked them out

    def test_duration_of_open_span_raises(self):
        span = Span("t", "process", "flink", start=1.0)
        with pytest.raises(ValueError):
            span.duration


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
        assert collector.record_table_query("stats", "pinot", 3.0, 4.0) is None
        assert collector.traces_for_table("stats") == {"a", "b"}
        # Stored once, seen from every trace ingested into the table.
        [query] = collector.spans("query")
        assert query.trace_id is None
        assert query.attrs["table"] == "stats"
        for tid in ("a", "b"):
            [covering] = [s for s in collector.trace(tid) if s.name == "query"]
            assert covering == Span(tid, "query", "pinot", 3.0, 4.0, query.attrs)
        assert [s.name for s in collector.trace("c")] == ["ingest"]

    def test_query_latency_observed_once_not_per_trace(self):
        collector = SpanCollector()
        for tid in ("a", "b", "c"):
            collector.record_span(
                tid, "ingest", "pinot", start=1.0, end=2.0, table="stats"
            )
        before = collector.span_count()
        collector.record_table_query("stats", "pinot", start=3.0, end=4.0)
        assert collector.span_count() == before + 1
        assert [s.duration for s in collector.spans("query", "pinot")] == [1.0]

    def test_query_on_unknown_table_still_observed(self):
        collector = SpanCollector()
        collector.record_table_query("empty", "presto", start=0.0, end=1.0)
        assert collector.traces_for_table("empty") == set()
        assert len(collector.spans("query", "presto")) == 1


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

    def test_inverted_span_reported_when_read(self):
        collector = SpanCollector()
        collector.record_span("t1", "ingest", "pinot", start=5.0, end=1.0)
        [problem] = collector.anomalies()
        assert "ingest[pinot] of t1 ends" in problem

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

    def test_summary_counts_and_ranks_each_hop(self):
        collector = SpanCollector()
        for i, duration in enumerate((2.0, 1.0, 3.0)):
            collector.record_span(f"t{i}", "ingest", "pinot", 0.0, duration)
        [header, row, dropped] = collector.summary().splitlines()
        assert row.split() == ["pinot", "ingest", "3", "2.000", "3.000"]
        assert dropped == "spans dropped: 0"
