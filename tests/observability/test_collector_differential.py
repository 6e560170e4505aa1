"""The collector against its reference model, a real pipeline and its bound.

``SpanCollector`` stores a query once and a hop once per batch, resolves
"which queries covered trace T" when asked, and keeps only the newest
``capacity`` rows.  None of that may change what a reader is told:

* differentially, over seeded random schedules, it must answer like the
  eager fan-out model of ``eager_reference.py`` — exactly while nothing
  has been dropped, and for exactly the surviving spans afterwards;
* on a real ``Platform`` pipeline the number of spans must grow with the
  records, not with records × queries;
* the bound must drop oldest first, count what it dropped, and never show
  a dropped span through any view.
"""

from __future__ import annotations

import random

import pytest

from repro import Field, FieldType, Platform, Schema, TableConfig
from repro.common.metrics import MetricsRegistry
from repro.observability.trace import SpanCollector

from tests.observability.eager_reference import EagerCollector, survivors

TABLES = ("rides", "stats", "empty")
TRACES = tuple(f"evt-{i}" for i in range(9))
HOPS = ("produce", "replicate", "consume", "ingest", "custom")
LATENCIES = (("produce", "ingest"), ("produce", "query"), ("ingest", "query"))


class Pair:
    """One schedule applied to the collector and to the reference.

    Every row is tagged with its arrival ordinal (``n``) and every query
    with ``probe``, which is what ``survivors`` needs to say what a bounded
    store may still hold.
    """

    def __init__(self, rng: random.Random, capacity: int, max_open: int) -> None:
        self.rng = rng
        self.now = 0.0
        self.rows = 0
        self.new = SpanCollector(max_open_spans=max_open, capacity=capacity)
        self.ref = EagerCollector(max_open_spans=max_open)

    def _interval(self, invertible: bool = True) -> tuple[float, float]:
        self.now += self.rng.choice((0.0, 0.0, 0.25, 1.0))
        start = self.now - self.rng.choice((0.0, 0.5, 2.0))
        end = self.now
        if invertible and self.rng.random() < 0.04:
            end = start - 1.0  # a clock-skew anomaly both must report
        return start, end

    def span(self) -> None:
        tid, name = self.rng.choice(TRACES), self.rng.choice(HOPS)
        start, end = self._interval()
        attrs = {"n": self.rows}
        if name == "ingest" and self.rng.random() < 0.8:
            attrs["table"] = self.rng.choice(TABLES[:2])
        made = self.new.record_span(tid, name, "layer", start, end, **attrs)
        assert made == self.ref.record_span(tid, name, "layer", start, end, **attrs)
        self.rows += 1

    def batch(self) -> None:
        """One hop of a batch of records, some of them untraced; the
        reference gets the per-record loop the call sites used to run."""
        name = self.rng.choice(HOPS[:4])
        size = self.rng.randrange(0, 6)
        ids = [self.rng.choice(TRACES + (None,)) for __ in range(size)]
        starts = [self._interval()[0] for __ in range(size)]
        end = self.now
        attrs = {"partition": self.rng.randrange(4)}
        if name == "ingest":
            attrs["table"] = self.rng.choice(TABLES[:2])
        traced = [i for i, tid in enumerate(ids) if tid is not None]
        ordinals = list(range(self.rows, self.rows + len(traced)))
        sparse = iter(ordinals)
        recorded = self.new.record_spans(
            name,
            "layer",
            ids,
            starts,
            end,
            columns={
                "n": [None if tid is None else next(sparse) for tid in ids],
                "offset": range(100, 100 + size),
            },
            **attrs,
        )
        assert recorded == len(traced)
        for n, i in zip(ordinals, traced):
            self.ref.record_span(
                ids[i], name, "layer", starts[i], end, **attrs, n=n, offset=100 + i
            )
        self.rows += len(traced)

    def query(self) -> None:
        table = self.rng.choice(TABLES)
        start, end = self._interval(invertible=False)
        attrs = {"n": self.rows, "probe": True, "rows": self.rng.randrange(9)}
        covered = self.new.record_table_query(table, "pinot", start, end, **attrs)
        self.ref.record_table_query(table, "pinot", start, end, **attrs)
        self.rows += 1
        # "Covered" counts the traces with a stored ingest into the table.
        assert covered == len(self.expected().traces_for_table(table))

    def begin(self) -> None:
        tid = self.rng.choice(TRACES)
        start, __ = self._interval()
        self.new.begin_span(tid, "process", "flink", start, job="j")
        self.ref.begin_span(tid, "process", "flink", start, job="j")
        assert self.new.open_span_count() == len(self.ref.open)
        assert self.new.open_spans_evicted == self.ref.open_spans_evicted

    def end(self) -> None:
        tid = self.rng.choice(TRACES)
        __, end = self._interval()
        made = self.new.end_span(tid, "process", end, sink="s", n=self.rows)
        assert made == self.ref.end_span(tid, "process", end, sink="s", n=self.rows)
        if made is not None:
            self.rows += 1

    def step(self) -> None:
        kind = self.rng.choices(
            (self.span, self.batch, self.query, self.begin, self.end),
            weights=(30, 20, 20, 15, 15),
        )[0]
        kind()

    def expected(self) -> EagerCollector:
        assert self.new.spans_dropped == max(0, self.rows - self.new.capacity)
        return survivors(self.ref, self.new.spans_dropped, "n", "probe")

    def assert_same_views(self) -> None:
        expected = self.expected()
        assert self.new.span_count() == self.rows - self.new.spans_dropped
        assert self.new.trace_ids() == expected.trace_ids()
        for tid in TRACES + ("never-seen",):
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
        probes = {s.attrs["n"] for s in expected.finished if "probe" in s.attrs}
        stored = [s.attrs["n"] for s in self.new.spans("query")]
        assert len(stored) == len(set(stored)) and probes <= set(stored)
        # The indexes hold the stored rows and nothing else, so the one
        # capacity bounds them too (no view can show it: a stale entry is
        # older than anything a reader is still asked about).
        new = self.new
        assert sum(map(len, new._table_queries.values())) == len(stored)
        assert sum(map(len, new._by_trace.values())) == new.span_count() - len(stored)
        assert sum(sum(c.values()) for c in new._table_traces.values()) == sum(
            "table" in s.attrs for s in new.spans("ingest")
        )


class TestAgainstEagerReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_answers_while_nothing_is_dropped(self, seed):
        pair = Pair(random.Random(seed), capacity=10_000, max_open=3)
        for i in range(250):
            pair.step()
            if i % 40 == 39:  # reads interleave with writes: the index grows
                pair.assert_same_views()
        pair.assert_same_views()
        assert pair.new.spans_dropped == 0
        assert pair.new.spans("query") and pair.ref.open_spans_evicted

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("capacity", (1, 7, 40))
    def test_same_answers_for_what_survives_overflow(self, seed, capacity):
        pair = Pair(random.Random(1000 + seed), capacity=capacity, max_open=50)
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
        metrics = MetricsRegistry("obs")
        collector = SpanCollector(metrics=metrics, capacity=6)
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
        return collector, metrics

    def test_oldest_rows_dropped_first_and_counted(self):
        collector, metrics = self._filled()
        # 8 rows into a capacity of 6: the two oldest produce spans went.
        assert collector.spans_dropped == 2
        assert metrics.counter("spans_dropped").value == 2
        assert collector.span_count() == 6
        assert [s.trace_id for s in collector.spans("produce")] == ["t2", "t3"]
        assert [s.name for s in collector.trace("t0")] == ["ingest"]
        assert collector.trace_latency("t0") is None
        assert collector.trace_latency("t3") == 2.0
        assert "spans dropped: 2, open spans evicted: 0" in collector.summary()

    def test_a_batch_is_trimmed_row_by_row(self):
        collector, __ = self._filled()
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
        collector, __ = self._filled()
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
        assert collector.record_table_query("rides", "presto", 21.0, 21.5) == 0
        assert len(collector.spans()) == collector.span_count() == 6

    def test_one_batch_larger_than_the_store(self):
        collector = SpanCollector(capacity=3)
        collector.record_spans(
            "consume", "kafka", [f"t{i}" for i in range(5)], [0.0] * 5, end=1.0
        )
        assert collector.spans_dropped == 2
        assert collector.trace_ids() == ["t2", "t3", "t4"]

    def test_capacity_must_hold_something(self):
        with pytest.raises(ValueError):
            SpanCollector(capacity=0)

    def test_open_span_eviction_is_counted(self):
        metrics = MetricsRegistry("obs")
        collector = SpanCollector(metrics=metrics, max_open_spans=2)
        collector.begin_spans("process", "flink", ["a", "b", "c", "d"], start=0.0)
        assert collector.open_span_count() == 2
        assert collector.open_spans_evicted == 2
        assert metrics.counter("open_spans_evicted").value == 2
        assert collector.end_span("a", "process", end=1.0) is None
        assert "open spans evicted: 2" in collector.summary()
