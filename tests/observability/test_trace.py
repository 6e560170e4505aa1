"""Unit tests for trace contexts, spans and the span collector."""

import pytest

from repro.common.records import Record
from repro.kafka.log import LogEntry
from repro.observability.trace import (
    HOP_ORDER,
    ORIGIN_HEADER,
    TRACE_HEADER,
    EntryTrace,
    Span,
    SpanCollector,
    TraceContext,
    record_id,
)


def entry(offset: int, headers: dict, event_time: float = 1.5) -> LogEntry:
    return LogEntry(offset, Record("k", offset, event_time, headers), append_time=0.0)


def context(trace: EntryTrace) -> TraceContext:
    """What a reader of ``trace`` sees, as a comparable value."""
    return TraceContext(trace.trace_id, trace.origin_event_time, trace.entered)


class TestTraceContext:
    def test_header_round_trip(self):
        ctx = TraceContext("rides-0@7", origin_event_time=12.5)
        headers = ctx.to_headers()
        assert headers == {TRACE_HEADER: "rides-0@7", ORIGIN_HEADER: 12.5}
        assert context(EntryTrace("out", 0, entry(3, headers))) == ctx

    def test_origin_omitted_when_unset(self):
        headers = TraceContext("rides-0@1").to_headers()
        assert ORIGIN_HEADER not in headers
        continued = context(EntryTrace("out", 0, entry(3, headers)))
        assert continued == TraceContext("rides-0@1")

    def test_an_entry_is_named_by_its_coordinates(self):
        # No header names a record: its id is where the log holds it, its
        # origin its event time.
        assert record_id("rides", 2, 17) == "rides-2@17"
        ctx = context(EntryTrace("rides", 2, entry(17, {})))
        assert ctx == TraceContext("rides-2@17", 1.5)

    def test_a_continued_pair_wins_over_the_coordinates(self):
        continued = TraceContext("rides-0@1", 0.5).to_headers()
        ctx = context(EntryTrace("out", 0, entry(3, continued)))
        assert ctx == TraceContext("rides-0@1", 0.5)

    def test_entry_time_never_travels_in_headers(self):
        trace = EntryTrace("rides", 0, entry(3, {}), entered=7.0)
        assert context(trace) == TraceContext("rides-0@3", 1.5, entered=7.0)
        assert trace.to_headers() == {TRACE_HEADER: "rides-0@3", ORIGIN_HEADER: 1.5}


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
            LogEntry(7, Record("k", 1, 0.0, {}), append_time=2.0),
            LogEntry(8, Record("k", 2, 0.0, {TRACE_HEADER: "a"}), append_time=3.5),
            LogEntry(9, Record("k", 3, 0.0, {}), append_time=4.0),
        ]
        collector.record_entries(
            "consume", "kafka", entries, end=5.0, topic="t", partition=1, group="g"
        )
        spans = collector.spans("consume")
        assert [(s.trace_id, s.start, s.end) for s in spans] == [
            ("t-1@7", 2.0, 5.0),
            ("a", 3.5, 5.0),  # a continued trace keeps its id
            ("t-1@9", 4.0, 5.0),
        ]
        assert spans[0].attrs == {"group": "g", "topic": "t", "partition": 1}
        assert collector.trace_ids() == ["a", "t-1@7", "t-1@9"]

    def test_trace_ids_are_read_off_headers_only_when_asked(self):
        reads = []

        class Headers(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

        collector = SpanCollector()
        records = [Record("k", i, 0.0, Headers()) for i in range(3)]
        collector.record_batch(
            "produce", "kafka", records, [0.0] * 3, 1.0, "t", 0, base_offset=4
        )
        assert reads == [] and collector.span_count() == 3
        assert collector.trace_ids() == ["t-0@4", "t-0@5", "t-0@6"]
        assert reads  # the first reader worked them out
        assert [s.attrs["offset"] for s in collector.spans()] == [4, 5, 6]

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
