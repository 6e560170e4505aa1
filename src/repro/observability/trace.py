"""Cross-layer tracing: trace contexts, spans and the span collector.

The paper's operational story (Section 8's seconds-level freshness for
surge and Eats dashboards, Section 9.3's per-use-case monitoring) depends
on following one record across *every* layer of the Figure 3 data path —
produce into Kafka, replicate between brokers, process through Flink,
ingest into Pinot, serve through the broker and Presto.  Related work
(arXiv:2410.15533, arXiv:2512.16146) makes the same point: latency is only
trustworthy when measured at system boundaries, not inside one component.

The model here is deliberately small:

* A :class:`TraceContext` rides in the record's audit headers (Section 9.4
  already stamps a ``uid``; tracing reuses it as the trace id) and is
  propagated by every hop that understands it.
* Each hop emits a :class:`Span` — ``produce``, ``replicate``, ``consume``,
  ``process``, ``ingest``, ``query`` — into one shared
  :class:`SpanCollector`.
* The collector shares its export path with the existing
  :class:`~repro.common.metrics.MetricsRegistry`: every finished span also
  observes a ``span.<layer>.<name>`` histogram, so dashboards read spans
  and counters from one snapshot.

Tracing is strictly opt-in: components take ``tracer=None`` and stamp the
``trace_id`` header only when a collector is attached, so benchmarks that
do not trace pay nothing.  With a collector attached (the ``Platform``
default) each record pays two headers at the producer and, per hop, one
slot in two lists: a hop hands the collector one *batch* of spans that
share name, layer, end and attributes, a query is one row whatever the
size of the table, and ``Span`` objects exist only while a reader looks at
them.  On the wall-clock benchmark's live path tracing on runs at 0.87 of
tracing off (CHANGES.md, PR 17, has the paired measurement); most of what
is left is propagation — the headers, a ``TraceContext`` and an open
``process`` span per Flink source record — not this store.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.common.metrics import MetricsRegistry

# Canonical boundary order of the Figure 3 data path.  Spans of one trace,
# grouped by hop, must start in this order — an inversion means a clock or
# propagation bug (see SpanCollector.anomalies).
HOP_ORDER = ("produce", "replicate", "consume", "process", "ingest", "query")

TRACE_HEADER = "trace_id"
ORIGIN_HEADER = "origin_event_time"


@dataclass(slots=True)
class TraceContext:
    """Identity of one traced record, carried in record headers.

    ``origin_event_time`` is the event time of the *root* record of the
    trace: derived records (e.g. window results re-produced to Kafka) keep
    the origin so end-to-end freshness stays boundary-to-boundary.
    """

    trace_id: str
    origin_event_time: float | None = None

    def to_headers(self) -> dict[str, Any]:
        headers: dict[str, Any] = {TRACE_HEADER: self.trace_id}
        if self.origin_event_time is not None:
            headers[ORIGIN_HEADER] = self.origin_event_time
        return headers

    @staticmethod
    def from_headers(headers: Mapping[str, Any]) -> "TraceContext | None":
        """Extract a context; ``None`` when the record is untraced.

        Only records explicitly stamped with a ``trace_id`` header are
        traced — a bare audit ``uid`` does not opt a record in, keeping
        untraced pipelines free of tracking state.
        """
        trace_id = headers.get(TRACE_HEADER)
        if trace_id is None:
            return None
        return TraceContext(trace_id, headers.get(ORIGIN_HEADER))

    @staticmethod
    def from_record(record: Any) -> "TraceContext | None":
        return TraceContext.from_headers(record.headers)


@dataclass(slots=True)
class Span:
    """One hop of one trace: a named interval on the shared clock.

    ``trace_id`` is ``None`` on a table query read outside any trace
    (:meth:`SpanCollector.spans`): a query belongs to every trace it
    covered, and :meth:`SpanCollector.trace` names the trace it was asked
    about.
    """

    trace_id: str | None
    name: str  # one of HOP_ORDER (free-form names are allowed too)
    layer: str  # kafka | flink | pinot | presto | ...
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name} of {self.trace_id} is still open")
        return self.end - self.start


class _Batch:
    """Finished spans that arrived together, stored column-wise.

    Name, layer, end and ``attrs`` are shared by every row; ``trace_ids``
    and ``starts`` are parallel lists, ``columns`` holds attributes that
    differ per row (any indexable sequence, e.g. a ``range`` of offsets).
    Row ``i`` has arrival sequence ``seq + i``.  A table query is a
    one-row batch whose trace id is ``None``.
    """

    __slots__ = (
        "seq",
        "name",
        "layer",
        "end",
        "attrs",
        "trace_ids",
        "starts",
        "columns",
    )

    def __init__(
        self,
        seq: int,
        name: str,
        layer: str,
        end: float,
        attrs: dict[str, Any],
        trace_ids: Sequence[str | None],
        starts: Sequence[float],
        columns: Mapping[str, Sequence[Any]] | None = None,
    ) -> None:
        self.seq = seq
        self.name = name
        self.layer = layer
        self.end = end
        self.attrs = attrs
        self.trace_ids = trace_ids
        self.starts = starts
        self.columns = columns

    def drop_head(self, count: int) -> None:
        self.seq += count
        self.trace_ids = self.trace_ids[count:]
        self.starts = self.starts[count:]
        if self.columns:
            self.columns = {k: col[count:] for k, col in self.columns.items()}

    def ingest_table(self) -> str | None:
        """The Pinot table these rows became queryable in, if any."""
        return self.attrs.get("table") if self.name == "ingest" else None

    def start(self, seq: int) -> float:
        return self.starts[seq - self.seq]

    def span(self, seq: int, trace_id: str | None) -> Span:
        """The row with arrival sequence ``seq``, as seen from ``trace_id``."""
        row = seq - self.seq
        attrs = dict(self.attrs)
        if self.columns:
            for key, column in self.columns.items():
                attrs[key] = column[row]
        return Span(
            trace_id, self.name, self.layer, self.starts[row], self.end, attrs
        )


class SpanCollector:
    """In-memory sink for spans emitted by every instrumented layer.

    One collector instance is shared across the whole stack (the
    :class:`~repro.platform.Platform` facade wires it); spans land here and
    their durations are exported through the attached
    :class:`MetricsRegistry` so spans and counters share one export path.

    The store is a ring over arrival order holding the newest ``capacity``
    rows — finished spans and table queries alike.  Older rows are dropped,
    counted in ``spans_dropped``, and leave every view with them: a trace
    whose early hops were dropped shows the hops that remain, a table no
    longer lists a trace whose ``ingest`` rows are gone.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        max_open_spans: int = 100_000,
        capacity: int = 100_000,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.metrics = metrics
        self.max_open_spans = max_open_spans
        self.capacity = capacity
        self.spans_dropped = 0
        self.open_spans_evicted = 0
        self._batches: deque[_Batch] = deque()
        self._size = 0
        self._next_seq = 0
        # (trace_id, name) -> (layer, start, attrs); the tuple is shared by
        # every span opened in one begin_spans call.
        self._open: OrderedDict[tuple[str, str], tuple] = OrderedDict()
        # Kept with the store, because record_table_query answers from
        # them: per Pinot table, how many stored ``ingest`` rows each trace
        # has there, and the stored queries in arrival order.
        self._table_traces: dict[str, dict[str, int]] = {}
        self._table_queries: dict[str, deque[_Batch]] = {}
        # Built by readers only (_index): trace id -> its stored rows as
        # (batch, arrival sequence), over every batch below _indexed.
        self._by_trace: dict[str, list[tuple[_Batch, int]]] = {}
        self._indexed = 0

    # -- recording ----------------------------------------------------------

    def record_spans(
        self,
        name: str,
        layer: str,
        trace_ids: Sequence[str | None],
        starts: Sequence[float],
        end: float,
        columns: Mapping[str, Sequence[Any]] | None = None,
        **attrs: Any,
    ) -> int:
        """Record one hop of a batch of records: spans that share ``name``,
        ``layer``, ``end`` and ``attrs`` and differ in trace id, start and
        the per-row ``columns``.

        ``trace_ids`` is what each record's ``trace_id`` header holds;
        ``None`` marks an untraced record, whose row is skipped.  The
        collector keeps the sequences it is given, so the caller must not
        mutate them afterwards.  Returns the number of spans recorded.
        """
        if None in trace_ids:
            keep = [i for i, tid in enumerate(trace_ids) if tid is not None]
            trace_ids = [trace_ids[i] for i in keep]
            starts = [starts[i] for i in keep]
            if columns:
                columns = {
                    key: [column[i] for i in keep]
                    for key, column in columns.items()
                }
        if not trace_ids:
            return 0
        self._append(
            _Batch(self._next_seq, name, layer, end, attrs, trace_ids, starts, columns)
        )
        return len(trace_ids)

    def record_span(
        self,
        trace_id: str,
        name: str,
        layer: str,
        start: float,
        end: float,
        **attrs: Any,
    ) -> Span:
        """Record a completed span in one shot."""
        return self._record(trace_id, name, layer, start, end, attrs)

    def _record(
        self,
        trace_id: str,
        name: str,
        layer: str,
        start: float,
        end: float,
        attrs: dict[str, Any],
    ) -> Span:
        """The one-row form of :meth:`record_spans`, over the same store."""
        self._append(
            _Batch(self._next_seq, name, layer, end, attrs, (trace_id,), (start,))
        )
        return Span(trace_id, name, layer, start, end, dict(attrs))

    def begin_spans(
        self,
        name: str,
        layer: str,
        trace_ids: Sequence[str],
        start: float,
        **attrs: Any,
    ) -> None:
        """Open one span per trace id, to be ended later by a different hop.

        Re-beginning an open (trace_id, name) pair restarts it; spans left
        open past ``max_open_spans`` are evicted oldest-first and counted in
        ``open_spans_evicted`` (records aggregated away inside Flink never
        reach a sink, so their process spans can never finish).
        """
        opened = (layer, start, attrs)
        open_spans = self._open
        for trace_id in trace_ids:
            open_spans[(trace_id, name)] = opened
        evicted = len(open_spans) - self.max_open_spans
        if evicted > 0:
            for __ in range(evicted):
                open_spans.popitem(last=False)
            self.open_spans_evicted += evicted
            if self.metrics is not None:
                self.metrics.counter("open_spans_evicted").inc(evicted)

    def begin_span(
        self, trace_id: str, name: str, layer: str, start: float, **attrs: Any
    ) -> None:
        """Open a span whose end is reported later (see :meth:`begin_spans`)."""
        self.begin_spans(name, layer, (trace_id,), start, **attrs)

    def end_span(
        self, trace_id: str, name: str, end: float, **attrs: Any
    ) -> Span | None:
        """Finish a previously begun span; no-op when none is open."""
        opened = self._open.pop((trace_id, name), None)
        if opened is None:
            return None
        layer, start, begin_attrs = opened
        return self._record(trace_id, name, layer, start, end, {**begin_attrs, **attrs})

    def record_table_query(
        self, table: str, layer: str, start: float, end: float, **attrs: Any
    ) -> int:
        """Record one query over ``table``; returns the traces it covered.

        The query layer does not see per-row headers, but it does know the
        table it served; lineage-wise, each trace whose record was
        queryable in the table was covered by the query.  The query is
        stored once; :meth:`trace` resolves coverage when asked, as *the
        queries recorded after the trace's first stored ``ingest`` span
        into that table* — arrival order in this collector, so the answer
        does not depend on what the two layers' clocks read.
        """
        attrs["table"] = table
        query = _Batch(self._next_seq, "query", layer, end, attrs, (None,), (start,))
        self._table_queries.setdefault(table, deque()).append(query)
        self._append(query)
        return len(self._table_traces.get(table, ()))

    def _append(self, batch: _Batch) -> None:
        count = len(batch.trace_ids)
        self._batches.append(batch)
        self._next_seq += count
        self._size += count
        table = batch.ingest_table()
        if table is not None:
            ingests = self._table_traces.setdefault(table, {})
            for trace_id in batch.trace_ids:
                ingests[trace_id] = ingests.get(trace_id, 0) + 1
        metrics = self.metrics
        if metrics is not None:
            end, starts = batch.end, batch.starts
            metrics.counter("spans_finished").inc(count)
            durations = metrics.histogram(f"span.{batch.layer}.{batch.name}")
            durations.observe_since(end, starts)
            if max(starts) > end:
                metrics.counter("spans_inverted").inc(sum(s > end for s in starts))
        if self._size > self.capacity:
            self._drop_oldest(self._size - self.capacity)

    def _drop_oldest(self, count: int) -> None:
        self._size -= count
        self.spans_dropped += count
        if self.metrics is not None:
            self.metrics.counter("spans_dropped").inc(count)
        while count:
            batch = self._batches[0]
            dropped = batch.trace_ids[:count]
            self._forget(batch, dropped)
            if len(dropped) == len(batch.trace_ids):
                self._batches.popleft()
            else:
                batch.drop_head(len(dropped))
            count -= len(dropped)

    def _forget(self, batch: _Batch, trace_ids: Sequence[str | None]) -> None:
        """Take the leading rows of the oldest batch out of every index."""
        if trace_ids[0] is None:
            table = batch.attrs["table"]
            self._table_queries[table].popleft()
            if not self._table_queries[table]:
                del self._table_queries[table]
            return
        if batch.seq < self._indexed:
            for trace_id in trace_ids:
                rows = self._by_trace[trace_id]
                del rows[0]
                if not rows:
                    del self._by_trace[trace_id]
        table = batch.ingest_table()
        if table is not None:
            ingests = self._table_traces[table]
            for trace_id in trace_ids:
                ingests[trace_id] -= 1
                if not ingests[trace_id]:
                    del ingests[trace_id]
            if not ingests:
                del self._table_traces[table]

    # -- introspection ------------------------------------------------------

    def spans(self, name: str | None = None, layer: str | None = None) -> list[Span]:
        """Stored spans in arrival order; a table query appears once."""
        return [
            batch.span(seq, trace_id)
            for batch in self._batches
            if (name is None or batch.name == name)
            and (layer is None or batch.layer == layer)
            for seq, trace_id in enumerate(batch.trace_ids, batch.seq)
        ]

    def span_count(self) -> int:
        return self._size

    def open_span_count(self) -> int:
        return len(self._open)

    def _index(self) -> dict[str, list[tuple[_Batch, int]]]:
        """The per-trace index, extended over what arrived since last read."""
        fresh = []
        for batch in reversed(self._batches):
            if batch.seq < self._indexed:
                break
            fresh.append(batch)
        by_trace = self._by_trace
        for batch in reversed(fresh):
            for seq, trace_id in enumerate(batch.trace_ids, batch.seq):
                if trace_id is not None:
                    by_trace.setdefault(trace_id, []).append((batch, seq))
        self._indexed = self._next_seq
        return by_trace

    def _rows(self, trace_id: str) -> list[tuple[_Batch, int]]:
        """(batch, arrival sequence) of every stored span of one trace and
        of every stored query that covered it."""
        own = self._index().get(trace_id, ())
        rows = list(own)
        first_ingest: dict[str, int] = {}
        for batch, seq in own:
            table = batch.ingest_table()
            if table is not None:
                first_ingest.setdefault(table, seq)
        for table, ingested in first_ingest.items():
            for query in reversed(self._table_queries.get(table, ())):
                if query.seq < ingested:
                    break
                rows.append((query, query.seq))
        return rows

    def trace(self, trace_id: str) -> list[Span]:
        """Finished spans of one trace, ordered start-then-hop (arrival
        order between equals), covering queries included."""
        rows = self._rows(trace_id)
        rows.sort(key=lambda r: (r[0].start(r[1]), _hop_rank(r[0].name), r[1]))
        return [batch.span(seq, trace_id) for batch, seq in rows]

    def trace_ids(self) -> list[str]:
        return sorted(self._index())

    def traces_for_table(self, table: str) -> set[str]:
        return set(self._table_traces.get(table, ()))

    def trace_latency(
        self, trace_id: str, first_hop: str = "produce", last_hop: str = "ingest"
    ) -> float | None:
        """Boundary-to-boundary latency of one trace, or ``None`` when the
        trace does not cover both hops."""
        rows = self._rows(trace_id)
        starts = [b.start(seq) for b, seq in rows if b.name == first_hop]
        ends = [b.end for b, __ in rows if b.name == last_hop]
        if not starts or not ends:
            return None
        return max(ends) - min(starts)

    def anomalies(self) -> list[str]:
        """Consistency violations the tracer surfaced.

        * a span ending before it starts (two hops read different clocks);
        * a trace whose hop starts run backwards against :data:`HOP_ORDER`
          (e.g. an ``ingest`` span starting before its ``produce`` span).

        A trace may cross a layer more than once (a window result produced
        back into Kafka gets a second ``produce``/``replicate`` cycle), so
        hops are compared occurrence-wise: the k-th earliest span of one
        hop against the k-th earliest span of the next hop present.
        """
        problems: list[str] = []
        for batch in self._batches:
            if max(batch.starts) <= batch.end:
                continue
            for trace_id, start in zip(batch.trace_ids, batch.starts):
                if batch.end < start:
                    owner = trace_id or f"table {batch.attrs['table']}"
                    problems.append(
                        f"span {batch.name}[{batch.layer}] of {owner} ends "
                        f"at {batch.end:.6f} before it starts at {start:.6f}"
                    )
        for trace_id in self.trace_ids():
            starts_by_hop: dict[str, list[float]] = {}
            for batch, seq in self._rows(trace_id):
                if batch.name in HOP_ORDER:
                    starts_by_hop.setdefault(batch.name, []).append(batch.start(seq))
            present = [h for h in HOP_ORDER if h in starts_by_hop]
            for earlier, later in zip(present, present[1:]):
                pairs = zip(
                    sorted(starts_by_hop[earlier]), sorted(starts_by_hop[later])
                )
                for a, b in pairs:
                    if b < a - 1e-9:
                        problems.append(
                            f"trace {trace_id}: {later} starts at {b:.6f}, "
                            f"before {earlier} at {a:.6f}"
                        )
        return problems

    def summary(self) -> str:
        """One text block: span counts and duration percentiles per hop,
        then what the two bounds cost — a trace missing a hop because its
        span was dropped or evicted is not a trace that skipped the hop."""
        by_hop: dict[tuple[str, str], list[float]] = {}
        for batch in self._batches:
            end = batch.end
            by_hop.setdefault((batch.layer, batch.name), []).extend(
                [end - start for start in batch.starts]
            )
        lines = [f"{'layer':<8} {'span':<10} {'count':>7} {'p50 (s)':>9} {'p99 (s)':>9}"]
        for (layer, name), durations in sorted(by_hop.items()):
            durations.sort()
            p50 = durations[max(0, (len(durations) + 1) // 2 - 1)]
            p99 = durations[max(0, -(-99 * len(durations) // 100) - 1)]
            lines.append(
                f"{layer:<8} {name:<10} {len(durations):>7} {p50:>9.3f} {p99:>9.3f}"
            )
        lines.append(
            f"spans dropped: {self.spans_dropped}, "
            f"open spans evicted: {self.open_spans_evicted}"
        )
        return "\n".join(lines)


def _hop_rank(name: str) -> int:
    try:
        return HOP_ORDER.index(name)
    except ValueError:
        return len(HOP_ORDER)
