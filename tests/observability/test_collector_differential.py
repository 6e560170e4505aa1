"""The collector against its reference model, a real pipeline and its bound.

``SpanCollector`` stores a query once and a hop once per batch, by
reference to the records the hop held, works out their trace ids and
"which queries covered trace T" when asked, and keeps only the newest
``capacity`` rows.  None of that may change what a reader is told:

* differentially, over seeded random schedules, it must answer like the
  eager fan-out model of ``tests/reference/tracer.py`` — exactly while
  nothing has been dropped, and for exactly the surviving spans afterwards;
* on a real ``Platform`` pipeline the number of spans must grow with the
  records, not with records × queries;
* the bound must drop oldest first, count what it dropped, and never show
  a dropped span through any view, and hold nothing of a dropped row
  anywhere else.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro import Field, FieldType, Platform, Schema, TableConfig
from repro.common.records import Record
from repro.kafka.log import LogEntry
from repro.observability.trace import TRACE_HEADER, SpanCollector, record_id

from tests.reference.tracer import EagerCollector, survivors

TABLES = ("rides", "stats", "empty")
TRACES = tuple(record_id("rides", 0, i) for i in range(9))
HOPS = ("produce", "replicate", "consume", "ingest", "custom")
LATENCIES = (("produce", "ingest"), ("produce", "query"), ("ingest", "query"))


class Pair:
    """One schedule applied to the collector and to the reference.

    Every row is tagged with its arrival ordinal (``n``) and every query
    with ``probe``, which is what ``survivors`` needs to say what a bounded
    store may still hold.
    """

    def __init__(self, rng: random.Random, capacity: int) -> None:
        self.rng = rng
        self.now = 0.0
        self.rows = 0
        self.new = SpanCollector(capacity=capacity)
        self.ref = EagerCollector()
        # Ids a batch gave records by their coordinates: later rows join them.
        self.named: list[str] = []

    def _interval(self, invertible: bool = True) -> tuple[float, float]:
        self.now += self.rng.choice((0.0, 0.0, 0.25, 1.0))
        start = self.now - self.rng.choice((0.0, 0.5, 2.0))
        end = self.now
        if invertible and self.rng.random() < 0.04:
            end = start - 1.0  # a clock-skew anomaly both must report
        return start, end

    def span(self) -> None:
        tid = self.rng.choice(TRACES + tuple(self.named[-3:]))
        name = self.rng.choice(HOPS)
        start, end = self._interval()
        attrs = {"offset": self.rows}
        if name == "ingest" and self.rng.random() < 0.8:
            attrs["table"] = self.rng.choice(TABLES[:2])
        made = self.new.record_span(tid, name, "layer", start, end, **attrs)
        assert made == self.ref.record_span(tid, name, "layer", start, end, **attrs)
        self.rows += 1

    def batch(self) -> None:
        """One hop of a batch of records at offsets ``n`` on of partition
        ``p``, handed over as the records themselves (some continuing a
        trace, the rest named by their coordinates) or as trace ids; the
        reference gets the per-record loop the call sites used to run, with
        each id worked out up front."""
        name = self.rng.choice(HOPS[:4])
        size = self.rng.randrange(0, 6)
        partition = self.rng.randrange(2)
        ordinals = range(self.rows, self.rows + size)
        continued = [self.rng.random() < 0.5 for __ in ordinals]
        ids = [
            self.rng.choice(TRACES) if cont else record_id("rides", partition, n)
            for cont, n in zip(continued, ordinals)
        ]
        starts = [self._interval()[0] for __ in range(size)]
        end = self.now
        attrs = {"topic": "rides", "partition": partition}
        if name == "ingest":
            attrs["table"] = self.rng.choice(TABLES[:2])
        if self.rng.random() < 0.5:
            records = [
                Record("k", n, 0.0, {TRACE_HEADER: tid} if cont else {})
                for n, tid, cont in zip(ordinals, ids, continued)
            ]
            self.new.record_batch(
                name, "layer", records, starts, end, base_offset=self.rows, **attrs
            )
        else:
            columns = {"offset": ordinals}
            self.new.record_spans(name, "layer", ids, starts, end, columns, **attrs)
        for n, tid, start in zip(ordinals, ids, starts):
            self.ref.record_span(tid, name, "layer", start, end, **attrs, offset=n)
        self.named += [tid for tid, cont in zip(ids, continued) if not cont]
        self.rows += size

    def query(self) -> None:
        table = self.rng.choice(TABLES)
        start, end = self._interval(invertible=False)
        attrs = {"offset": self.rows, "probe": True, "rows": self.rng.randrange(9)}
        assert self.new.record_table_query(table, "pinot", start, end, **attrs) is None
        self.ref.record_table_query(table, "pinot", start, end, **attrs)
        self.rows += 1

    def step(self) -> None:
        kind = self.rng.choices(
            (self.span, self.batch, self.query), weights=(30, 30, 20)
        )[0]
        kind()

    def expected(self) -> EagerCollector:
        assert self.new.spans_dropped == max(0, self.rows - self.new.capacity)
        return survivors(self.ref, self.new.spans_dropped, "offset", "probe")

    def assert_same_views(self) -> None:
        expected = self.expected()
        assert self.new.span_count() == self.rows - self.new.spans_dropped
        assert self.new.trace_ids() == expected.trace_ids()
        for tid in sorted(set(TRACES + tuple(self.named))) + ["never-seen"]:
            assert self.new.trace(tid) == expected.trace(tid)
            for first, last in LATENCIES:
                assert self.new.trace_latency(tid, first, last) == (
                    expected.trace_latency(tid, first, last)
                )
        for table in TABLES:
            assert self.new.traces_for_table(table) == expected.traces_for_table(
                table
            )
        assert self.new.anomalies() == expected.anomalies()
        # A query is stored once, whatever it covered.
        probes = {s.attrs["offset"] for s in expected.finished if "probe" in s.attrs}
        stored = [s.attrs["offset"] for s in self.new.spans("query")]
        assert len(stored) == len(set(stored)) and probes <= set(stored)
        # The indexes hold the stored rows of a trace and nothing else, so
        # the one capacity bounds them too (no view can show it: a stale
        # entry is older than anything a reader is still asked about).
        new = self.new
        assert sum(map(len, new._table_queries.values())) == len(stored)
        assert sum(map(len, new._by_trace.values())) == sum(
            s.name != "query" for s in new.spans()
        )


class TestAgainstEagerReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_answers_while_nothing_is_dropped(self, seed):
        pair = Pair(random.Random(seed), capacity=10_000)
        for i in range(250):
            pair.step()
            if i % 40 == 39:  # reads interleave with writes: the index grows
                pair.assert_same_views()
        pair.assert_same_views()
        assert pair.new.spans_dropped == 0
        assert pair.new.spans("query")
        assert any(s.trace_id in pair.named for s in pair.new.spans("ingest"))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("capacity", (1, 7, 40))
    def test_same_answers_for_what_survives_overflow(self, seed, capacity):
        pair = Pair(random.Random(1000 + seed), capacity=capacity)
        for i in range(200):
            pair.step()
            if i % 9 == 8:
                pair.assert_same_views()
        pair.assert_same_views()
        assert pair.new.spans_dropped > 100


class TestSpansGrowWithRecordsNotQueries:
    ROWS_PER_TICK = 6

    def _spans_after(self, ticks: int) -> int:
        platform = (
            Platform(seed=3)
            .with_kafka(num_brokers=3)
            .with_pinot(servers=2)
            .with_presto()
            .topic("rides", partitions=2)
        )
        schema = Schema(
            "rides",
            (Field("city", FieldType.STRING), Field("fare", FieldType.DOUBLE)),
        )
        platform.realtime_table(TableConfig("rides", schema), topic="rides")
        producer = platform.producer("rides-svc")
        for tick in range(ticks):
            for i in range(self.ROWS_PER_TICK):
                producer.send("rides", {"city": f"c{i % 3}", "fare": float(tick)})
            producer.flush()
            platform.step(1.0)
            output = platform.sql("SELECT COUNT(*) AS n FROM rides")
            assert output.rows == [{"n": (tick + 1) * self.ROWS_PER_TICK}]
        assert platform.tracer.spans_dropped == 0
        return len(platform.tracer.spans())

    def test_one_query_per_tick_stays_linear(self):
        # Quadratic before: every query left a span on every ingested trace.
        ticks = 40
        short, long = self._spans_after(ticks), self._spans_after(2 * ticks)
        assert long <= 2.2 * short
        assert long <= 6 * (2 * ticks * self.ROWS_PER_TICK)


class TestBound:
    def _filled(self):
        collector = SpanCollector(capacity=6)
        for i in range(4):
            collector.record_span(f"t{i}", "produce", "kafka", float(i), i + 0.5)
        collector.record_spans(
            "ingest",
            "pinot",
            ["t0", "t1", "t2", "t3"],
            [4.0, 4.0, 4.0, 4.0],
            end=5.0,
            columns={"offset": range(10, 14)},
            table="rides",
        )
        return collector

    def test_oldest_rows_dropped_first_and_counted(self):
        collector = self._filled()
        # 8 rows into a capacity of 6: the two oldest produce spans went.
        assert collector.spans_dropped == 2
        assert collector.span_count() == 6
        assert [s.trace_id for s in collector.spans("produce")] == ["t2", "t3"]
        assert [s.name for s in collector.trace("t0")] == ["ingest"]
        assert collector.trace_latency("t0") is None
        assert collector.trace_latency("t3") == 2.0
        assert "spans dropped: 2" in collector.summary()

    def test_a_batch_is_trimmed_row_by_row(self):
        collector = self._filled()
        collector.record_table_query("rides", "pinot", 6.0, 6.5)
        for i in range(3):
            collector.record_span("late", "consume", "kafka", 7.0 + i, 8.0 + i)
        # 12 rows: both remaining produce spans and t0's, t1's ingest went.
        assert collector.spans_dropped == 6
        assert collector.traces_for_table("rides") == {"t2", "t3"}
        assert collector.trace_ids() == ["late", "t2", "t3"]
        assert collector.trace("t0") == collector.trace("t1") == []
        [ingest, query] = collector.trace("t2")
        assert (ingest.name, ingest.attrs["offset"]) == ("ingest", 12)
        assert (query.name, query.trace_id) == ("query", "t2")

    def test_no_view_returns_a_dropped_span(self):
        collector = self._filled()
        collector.trace_ids()  # build the index, then overflow past it
        for i in range(5):
            collector.record_table_query("rides", "presto", 6.0 + i, 6.5 + i)
        assert collector.spans_dropped == 7
        # One ingest row (t3's) and the five queries are what is left.
        assert collector.traces_for_table("rides") == {"t3"}
        assert collector.trace_ids() == ["t3"]
        assert [s.name for s in collector.trace("t3")] == ["ingest"] + ["query"] * 5
        collector.record_table_query("rides", "presto", 20.0, 20.5)
        # t3's ingest is gone: the table lists no trace, queries cover none.
        assert collector.traces_for_table("rides") == set()
        assert collector.trace_ids() == [] and collector.trace("t3") == []
        collector.record_table_query("rides", "presto", 21.0, 21.5)
        assert len(collector.spans()) == collector.span_count() == 6
        assert all(s.trace_id is None for s in collector.spans())

    def test_one_batch_larger_than_the_store(self):
        collector = SpanCollector(capacity=3)
        collector.record_spans(
            "consume", "kafka", [f"t{i}" for i in range(5)], [0.0] * 5, end=1.0
        )
        assert collector.spans_dropped == 2
        assert collector.trace_ids() == ["t2", "t3", "t4"]

    def test_a_hop_over_log_entries_is_trimmed_like_any_batch(self):
        collector = SpanCollector(capacity=3)
        entries = [
            LogEntry(i, Record("k", i, 0.0, {}), append_time=float(i))
            for i in range(5)
        ]
        collector.record_entries(
            "ingest", "pinot", entries, 9.0, "t", partition=0, table="rides"
        )
        assert collector.spans_dropped == 2
        assert [(s.trace_id, s.start) for s in collector.spans()] == [
            ("t-0@2", 2.0),
            ("t-0@3", 3.0),
            ("t-0@4", 4.0),
        ]
        assert collector.traces_for_table("rides") == {"t-0@2", "t-0@3", "t-0@4"}
        assert collector.trace_latency("t-0@3", "ingest", "ingest") == 6.0

    def test_capacity_must_hold_something(self):
        with pytest.raises(ValueError):
            SpanCollector(capacity=0)

    def test_a_trimmed_batch_leaves_the_hops_records_alone(self):
        # The store keeps the hop's own list; dropping its head must not
        # write into it (the producer, log and replicas share it).
        collector = SpanCollector(capacity=3)
        records = [Record("k", i, 0.0, {}) for i in range(5)]
        sent_at = [float(i) for i in range(5)]
        collector.record_batch("produce", "kafka", records, sent_at, 9.0, "t", 0, 0)
        assert [r.value for r in records] == [0, 1, 2, 3, 4]
        assert sent_at == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert collector.trace_ids() == ["t-0@2", "t-0@3", "t-0@4"]
        assert [s.start for s in collector.spans()] == [2.0, 3.0, 4.0]

    def test_a_dropped_batch_is_held_nowhere(self):
        # The platform's own tracer: nothing beside the ring (an exported
        # copy, a queue for a later reader) may keep a hop's batch alive.
        class Starts(list):
            pass  # a list that takes weak references

        tracer = Platform().tracer
        starts = Starts([0.5])
        held = weakref.ref(starts)
        tracer.record_spans("produce", "kafka", ["t0"], starts, end=1.0)
        del starts
        filler = ["filler"] * tracer.capacity
        tracer.record_spans("consume", "kafka", filler, [1.0] * tracer.capacity, 2.0)
        assert tracer.spans_dropped == 1
        gc.collect()
        assert held() is None
