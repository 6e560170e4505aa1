"""Cross-layer tracing: trace contexts, spans and the span collector.

The paper's operational story (Section 8's seconds-level freshness,
Section 9.3's per-use-case monitoring) depends on following one record
across *every* layer of the Figure 3 path, from Kafka to the query; related
work (arXiv:2410.15533, arXiv:2512.16146) trusts latency only when it is
measured at system boundaries.

A record is named the way Kafka names it: its trace id is its
coordinates in the log a traced hop holds it in, ``(topic, partition,
offset)``, rendered when a reader asks (:func:`record_id`, e.g.
``"rides-0@17"``), and its origin time is its ``event_time``.  Only a
*continued* trace — a Flink sink re-producing a window result under the
trace of a record it read — carries the pair, as the ``trace_id`` /
``origin_event_time`` headers of a :class:`TraceContext`.  No traced hop
spans two clusters.  Each hop — ``produce``, ``replicate``, ``consume``,
``process``, ``ingest``, ``query`` — stores its :class:`Span` s in one
shared :class:`SpanCollector`, the only store of span data.

Tracing is opt-in per component (``tracer=None``); a record carries
nothing for it, so a traced platform writes the log an untraced one
writes, byte for byte, and an untraced component builds nothing for it.
A traced hop pays once per batch and builds nothing per record: it binds
its constant part once (a :class:`Hop`), and each batch costs one compact
row referring to what the hop holds — the producer's records and send
times, the log entries it replicated, polled or ingested, the traces a
Flink sink wrote.  A Flink source stamps each element with the entry it
read and its poll's :class:`EntryScope`; windows and joins keep a record
they were handed.  Every view is worked out when a reader asks.  On the
wall-clock benchmark's live path tracing on runs at 0.91 of tracing off
(EXPERIMENTS.md, B27; 0.89 before it, 0.84 at B15, 0.74 before that).

Coordinates name a record only while its log keeps it.  Under ``acks=1``
a leader can die before a follower copied its tail, which the old leader
truncates when it rejoins, and the next record appended there takes the
lost offset: the lost record's ``produce`` span and every span of its
replacement share one id.  For it :meth:`SpanCollector.trace` lists both
``produce`` spans, :meth:`SpanCollector.trace_latency` measures from the
lost (earlier) send, so it reads high by the time between the sends, and
:meth:`SpanCollector.anomalies` reports nothing.  The tracer does not
detect loss: the auditor (:mod:`repro.audit`) and the chaos ack check do.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.observability.freshness import nearest_rank

# Canonical boundary order of the Figure 3 data path.  Spans of one trace,
# grouped by hop, must start in this order — an inversion means a clock or
# propagation bug (see SpanCollector.anomalies).
HOP_ORDER = ("produce", "replicate", "consume", "process", "ingest", "query")

TRACE_HEADER = "trace_id"
ORIGIN_HEADER = "origin_event_time"


def record_id(topic: str, partition: int, offset: int) -> str:
    """The trace id of the record at ``offset`` of ``topic``'s
    ``partition``, unless it continues another trace."""
    return f"{topic}-{partition}@{offset}"


def _trace_id_of(
    headers: Mapping[str, Any], topic: str, partition: int, offset: int
) -> str:
    """A record's trace id: the trace it continues, else its coordinates."""
    trace_id = headers.get(TRACE_HEADER)
    return record_id(topic, partition, offset) if trace_id is None else trace_id


def _headers(trace_id: str, origin: float | None) -> dict[str, Any]:
    """The headers of a record re-produced under a trace."""
    if origin is None:
        return {TRACE_HEADER: trace_id}
    return {TRACE_HEADER: trace_id, ORIGIN_HEADER: origin}


@dataclass(slots=True)
class TraceContext:
    """Identity of one traced record.  ``origin_event_time`` is the event
    time of the trace's *root* record, which derived records (window
    results re-produced to Kafka) keep, so freshness stays boundary to
    boundary.  ``entered`` is when the element entered a Flink job, where
    its sink's ``process`` span starts; it travels in the job's
    checkpoints, never in headers."""

    trace_id: str
    origin_event_time: float | None = None
    entered: float | None = None

    def to_headers(self) -> dict[str, Any]:
        return _headers(self.trace_id, self.origin_event_time)


class EntryScope:
    """Where and when a traced Flink source read log entries: ``topic``'s
    ``partition``, entering the job at ``entered``.  A source builds one
    per poll and partition; each element it reads carries its entry as
    ``trace`` and this as ``scope`` (an element restored from a checkpoint
    carries a :class:`TraceContext` and no scope).  The pair is worked
    into a trace only where one is read: a sink, a checkpoint."""

    __slots__ = ("topic", "partition", "entered")

    def __init__(self, topic: str, partition: int, entered: float | None) -> None:
        self.topic = topic
        self.partition = partition
        self.entered = entered

    def id_of(self, entry: Any) -> str:
        return _trace_id_of(
            entry.record.headers, self.topic, self.partition, entry.offset
        )

    def headers_of(self, entry: Any) -> dict[str, Any]:
        """The headers of a record re-produced under ``entry``'s trace:
        the one its record continues, else its own."""
        record = entry.record
        if TRACE_HEADER in record.headers:
            return _headers(self.id_of(entry), record.headers.get(ORIGIN_HEADER))
        return _headers(f"{self.topic}-{self.partition}@{entry.offset}",
                        record.event_time)

    def trace_of(self, entry: Any) -> TraceContext:
        headers = self.headers_of(entry)
        return TraceContext(headers[TRACE_HEADER], headers.get(ORIGIN_HEADER),
                            self.entered)


def EntryTrace(
    topic: str, partition: int, entry: Any, entered: float | None = None
) -> TraceContext:
    """The trace of ``entry`` of ``topic``'s ``partition`` (named like
    the object it builds)."""
    return EntryScope(topic, partition, entered).trace_of(entry)


def element_trace(trace: Any, scope: EntryScope | None) -> TraceContext:
    """The trace a Flink element carries, as one context."""
    return trace if scope is None else scope.trace_of(trace)


@dataclass(slots=True)
class Span:
    """One hop of one trace: a named interval on the shared clock.
    ``trace_id`` is ``None`` on a table query read outside any trace
    (:meth:`SpanCollector.spans`): a query belongs to every trace it
    covered, and :meth:`SpanCollector.trace` names the one asked about."""

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


# A stored batch is one list: the arrival sequence of its first row, its
# hop, the rows, their shared end, their starts and what else varies (a
# base offset, per-row columns, scopes or one row's attrs).
_SEQ, _HOP, _ROWS, _END, _STARTS, _EXTRA = range(6)


class Hop:
    """The constant part of one hop's spans, bound once: ``name``,
    ``layer`` and the ``attrs`` every row shares.  ``record`` stores a
    batch as one row of the collector holding what varies by reference,
    so the caller must not mutate it afterwards.  A subclass says what a
    row is; the base hop's rows are trace ids.  A query hop ``covers`` its
    table."""

    __slots__ = ("collector", "name", "layer", "attrs", "table", "covers")

    def __init__(
        self, collector: SpanCollector, name: str, layer: str,
        attrs: dict[str, Any], covers: str | None = None,
    ) -> None:
        self.collector, self.name, self.layer = collector, name, layer
        self.attrs = attrs
        # The Pinot table an ``ingest`` hop's rows became queryable in.
        self.table = attrs.get("table") if name == "ingest" else None
        self.covers = covers

    def record(self, trace_ids: Sequence[str], starts: Sequence[float], end: float,
               columns: Mapping[str, Sequence[Any]] | None = None) -> None:
        self.collector._store([0, self, trace_ids, end, starts, columns])

    def ids(self, batch: list) -> Sequence[str | None]:
        """Each row's trace id, worked out when a reader asks."""
        return batch[_ROWS]

    def starts(self, batch: list) -> Sequence[float]:
        if batch[_STARTS] is not None:
            return batch[_STARTS]
        return [self.start(batch, row) for row in range(len(batch[_ROWS]))]

    def start(self, batch: list, row: int) -> float:
        return batch[_STARTS][row]

    def attrs_of(self, batch: list, row: int) -> dict[str, Any]:
        columns = batch[_EXTRA] or {}
        return dict(self.attrs, **{key: column[row] for key, column in columns.items()})

    def drop_head(self, batch: list, count: int) -> None:
        batch[_SEQ] += count
        for slot in (_ROWS, _STARTS):
            if batch[slot] is not None:
                batch[slot] = batch[slot][count:]
        if batch[_EXTRA] is not None:
            batch[_EXTRA] = self._drop_extra(batch[_EXTRA], count)

    def _drop_extra(self, columns: Any, count: int) -> Any:
        return {key: column[count:] for key, column in columns.items()}

    def _named(self, rows: Any) -> list[str]:
        """The trace ids of ``(headers, offset)`` rows of the bound
        ``topic``'s ``partition``."""
        topic, partition = self.attrs["topic"], self.attrs["partition"]
        return [_trace_id_of(h, topic, partition, offset) for h, offset in rows]


class RecordHop(Hop):
    """Rows: ``Record`` s appended to the bound ``topic``'s ``partition``
    at consecutive offsets from a base offset, each with its start."""

    def record(self, records: Sequence[Any], starts: Sequence[float], end: float,
               base_offset: int) -> None:
        self.collector._store([0, self, records, end, starts, base_offset])

    def ids(self, batch: list) -> list[str]:
        return self._named(
            (record.headers, offset)
            for offset, record in enumerate(batch[_ROWS], batch[_EXTRA])
        )

    def attrs_of(self, batch: list, row: int) -> dict[str, Any]:
        return dict(self.attrs, offset=batch[_EXTRA] + row)

    def _drop_extra(self, base_offset: int, count: int) -> int:
        return base_offset + count


class EntryHop(Hop):
    """Rows: log entries of the bound ``topic``'s ``partition``; a row
    starts at its entry's append time, and the entry's offset names it."""

    def record(self, entries: Sequence[Any], end: float) -> None:
        self.collector._store([0, self, entries, end, None, None])

    def ids(self, batch: list) -> list[str]:
        return self._named((e.record.headers, e.offset) for e in batch[_ROWS])

    def start(self, batch: list, row: int) -> float:
        return batch[_ROWS][row].append_time


class ElementHop(Hop):
    """Rows: the traces a Flink sink wrote, their scopes beside them; a
    row starts when its trace entered the job."""

    def record(self, traces: Sequence[Any], scopes: Sequence[Any], end: float) -> None:
        self.collector._store([0, self, traces, end, None, scopes])

    def ids(self, batch: list) -> list[str]:
        return [
            trace.trace_id if scope is None else scope.id_of(trace)
            for trace, scope in zip(batch[_ROWS], batch[_EXTRA])
        ]

    def start(self, batch: list, row: int) -> float:
        scope = batch[_EXTRA][row]
        return (batch[_ROWS][row] if scope is None else scope).entered

    def attrs_of(self, batch: list, row: int) -> dict[str, Any]:
        return dict(self.attrs)

    def _drop_extra(self, scopes: Any, count: int) -> Any:
        return scopes[count:]


class _SpanHop(Hop):
    """One row per batch, whose attrs the batch carries: a query stage or
    a table query."""

    def attrs_of(self, batch: list, row: int) -> dict[str, Any]:
        return dict(batch[_EXTRA])


_HOPS = {"ids": Hop, "records": RecordHop, "entries": EntryHop, "elements": ElementHop}


class SpanCollector:
    """In-memory sink for spans emitted by every instrumented layer: one
    instance, shared across the stack (the :class:`~repro.platform.Platform`
    facade wires it), is the only place spans land.

    The store is a ring over arrival order holding the newest ``capacity``
    rows — finished spans and table queries alike.  Older rows are dropped,
    counted in ``spans_dropped``, and leave every view with them: a trace
    whose early hops were dropped shows the hops that remain, a table no
    longer lists a trace whose ``ingest`` rows are gone.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.spans_dropped = 0
        self._batches: deque[list] = deque()
        self._size = 0
        self._next_seq = 0
        # Each Pinot table's stored queries in arrival order (see trace()).
        self._table_queries: dict[str, deque[list]] = {}
        # Readers' index: trace id -> (batch, arrival sequence) of its
        # stored rows, over every batch below _indexed.
        self._by_trace: dict[str, list[tuple[list, int]]] = {}
        self._indexed = 0
        # One-row hops by (name, layer, covered table), bound at first use.
        self._span_hops: dict[tuple[str, str, str | None], _SpanHop] = {}

    # -- recording ----------------------------------------------------------

    def hop(self, kind: str, name: str, layer: str, /, **attrs: Any) -> Hop:
        """Bind a hop whose rows are ``kind`` — ``"ids"``, ``"records"``,
        ``"entries"`` or ``"elements"`` — once, for every batch it records."""
        return _HOPS[kind](self, name, layer, attrs)

    def record_batch(
        self, name: str, layer: str, records: Sequence[Any], starts: Sequence[float],
        end: float, topic: str, partition: int, base_offset: int, **attrs: Any,
    ) -> None:
        """One batch of a :class:`RecordHop` bound for it alone."""
        attrs["topic"], attrs["partition"] = topic, partition
        RecordHop(self, name, layer, attrs).record(records, starts, end, base_offset)

    def record_entries(
        self, name: str, layer: str, entries: Sequence[Any], end: float,
        topic: str, partition: int, **attrs: Any,
    ) -> None:
        """One batch of an :class:`EntryHop` bound for it alone."""
        attrs["topic"], attrs["partition"] = topic, partition
        EntryHop(self, name, layer, attrs).record(entries, end)

    def record_spans(
        self, name: str, layer: str, trace_ids: Sequence[str],
        starts: Sequence[float], end: float,
        columns: Mapping[str, Sequence[Any]] | None = None, **attrs: Any,
    ) -> None:
        """One batch of a :class:`Hop` over trace ids bound for it alone."""
        Hop(self, name, layer, attrs).record(trace_ids, starts, end, columns)

    def record_span(
        self, trace_id: str, name: str, layer: str, start: float, end: float,
        **attrs: Any,
    ) -> Span:
        """Record a completed span in one shot."""
        Hop(self, name, layer, attrs).record((trace_id,), (start,), end)
        return Span(trace_id, name, layer, start, end, dict(attrs))

    def record_instants(
        self, trace_id: str, layer: str, at: float,
        spans: Sequence[tuple[str, dict[str, Any]]],
    ) -> None:
        """One span of ``trace_id`` per ``(name, attrs)`` of ``spans``, in
        order, each starting and ending ``at``: a query's stages."""
        ids, starts = (trace_id,), (at,)
        for name, attrs in spans:
            self._store([0, self._span_hop(name, layer), ids, at, starts, attrs])

    def record_table_query(
        self, table: str, layer: str, start: float, end: float, **attrs: Any
    ) -> None:
        """Record one query over ``table``, once: it covered each trace
        whose record was queryable in the table, and :meth:`trace` works
        that out when asked as *the queries recorded after the trace's
        first stored ``ingest`` span into that table* — arrival order in
        this collector, whatever the two layers' clocks read."""
        attrs["table"] = table
        hop = self._span_hop("query", layer, table)
        query = [0, hop, (None,), end, (start,), attrs]
        self._table_queries.setdefault(table, deque()).append(query)
        self._store(query)

    def _span_hop(self, name: str, layer: str, covers: str | None = None) -> _SpanHop:
        hop = self._span_hops.get((name, layer, covers))
        if hop is None:
            hop = _SpanHop(self, name, layer, {}, covers)
            self._span_hops[(name, layer, covers)] = hop
        return hop

    def _store(self, batch: list) -> None:
        count = len(batch[_ROWS])
        if not count:
            return
        batch[_SEQ] = self._next_seq
        self._batches.append(batch)
        self._next_seq += count
        self._size += count
        if self._size > self.capacity:
            self._drop_oldest(self._size - self.capacity)

    def _drop_oldest(self, count: int) -> None:
        self._size -= count
        self.spans_dropped += count
        while count:
            batch = self._batches[0]
            dropped = min(count, len(batch[_ROWS]))
            self._forget(batch, dropped)
            if dropped == len(batch[_ROWS]):
                self._batches.popleft()
            else:
                batch[_HOP].drop_head(batch, dropped)
            count -= dropped

    def _forget(self, batch: list, count: int) -> None:
        """Take the ``count`` leading rows of the oldest batch out of every
        index."""
        hop = batch[_HOP]
        if hop.covers is not None:
            queries = self._table_queries[hop.covers]
            queries.popleft()
            if not queries:
                del self._table_queries[hop.covers]
        elif batch[_SEQ] < self._indexed:
            for trace_id in hop.ids(batch)[:count]:
                rows = self._by_trace[trace_id]
                del rows[0]
                if not rows:
                    del self._by_trace[trace_id]

    # -- introspection ------------------------------------------------------

    @staticmethod
    def _span(batch: list, seq: int, trace_id: str | None) -> Span:
        """The row with arrival sequence ``seq``, as seen from ``trace_id``."""
        hop, row = batch[_HOP], seq - batch[_SEQ]
        return Span(
            trace_id, hop.name, hop.layer, hop.start(batch, row), batch[_END],
            hop.attrs_of(batch, row),
        )

    @staticmethod
    def _start(batch: list, seq: int) -> float:
        return batch[_HOP].start(batch, seq - batch[_SEQ])

    def spans(self, name: str | None = None, layer: str | None = None) -> list[Span]:
        """Stored spans in arrival order; a table query appears once."""
        return [
            self._span(batch, seq, trace_id)
            for batch in self._batches
            if (name is None or batch[_HOP].name == name)
            and (layer is None or batch[_HOP].layer == layer)
            for seq, trace_id in enumerate(batch[_HOP].ids(batch), batch[_SEQ])
        ]

    def span_count(self) -> int:
        return self._size

    def _index(self) -> dict[str, list[tuple[list, int]]]:
        """The per-trace index, extended over what arrived since last read."""
        fresh = []
        for batch in reversed(self._batches):
            if batch[_SEQ] < self._indexed:
                break
            fresh.append(batch)
        by_trace = self._by_trace
        for batch in reversed(fresh):
            if batch[_HOP].covers is None:
                for seq, trace_id in enumerate(batch[_HOP].ids(batch), batch[_SEQ]):
                    by_trace.setdefault(trace_id, []).append((batch, seq))
        self._indexed = self._next_seq
        return by_trace

    def _rows(self, trace_id: str) -> list[tuple[list, int]]:
        """(batch, arrival sequence) of every stored span of one trace and
        of every stored query that covered it."""
        own = self._index().get(trace_id, ())
        rows = list(own)
        first_ingest: dict[str, int] = {}
        for batch, seq in own:
            table = batch[_HOP].table
            if table is not None:
                first_ingest.setdefault(table, seq)
        for table, ingested in first_ingest.items():
            for query in reversed(self._table_queries.get(table, ())):
                if query[_SEQ] < ingested:
                    break
                rows.append((query, query[_SEQ]))
        return rows

    def trace(self, trace_id: str) -> list[Span]:
        """Finished spans of one trace, ordered start-then-hop (arrival
        order between equals), covering queries included."""
        rows = self._rows(trace_id)
        rows.sort(key=lambda r: (self._start(*r), _hop_rank(r[0][_HOP].name), r[1]))
        return [self._span(batch, seq, trace_id) for batch, seq in rows]

    def trace_ids(self) -> list[str]:
        return sorted(self._index())

    def traces_for_table(self, table: str) -> set[str]:
        """The traces with a stored ``ingest`` row into ``table``."""
        return {
            trace_id
            for batch in self._batches
            if batch[_HOP].table == table
            for trace_id in batch[_HOP].ids(batch)
        }

    def ingest_durations(self, table: str) -> list[float]:
        """Every stored ``ingest`` row into ``table`` as ``end - start``:
        its entry's append → queryable interval, in arrival order.  A row
        ingested twice (re-consumed after an owner replacement) has two."""
        return [
            batch[_END] - start
            for batch in self._batches
            if batch[_HOP].table == table
            for start in batch[_HOP].starts(batch)
        ]

    def trace_latency(self, trace_id: str, first_hop: str = "produce",
                      last_hop: str = "ingest") -> float | None:
        """Boundary-to-boundary latency of one trace, or ``None`` when the
        trace does not cover both hops."""
        rows = self._rows(trace_id)
        starts = [self._start(b, seq) for b, seq in rows if b[_HOP].name == first_hop]
        ends = [b[_END] for b, __ in rows if b[_HOP].name == last_hop]
        if not starts or not ends:
            return None
        return max(ends) - min(starts)

    def anomalies(self) -> list[str]:
        """Consistency violations the tracer surfaced: a span ending before
        it starts (two hops read different clocks), and a trace whose hop
        starts run backwards against :data:`HOP_ORDER` (e.g. an ``ingest``
        span starting before its ``produce`` span).  A trace may cross a
        layer more than once (a window result produced back into Kafka), so
        hops are compared occurrence-wise: the k-th earliest span of one
        hop against the k-th earliest span of the next hop present."""
        problems: list[str] = []
        for batch in self._batches:
            hop, end = batch[_HOP], batch[_END]
            for trace_id, start in zip(hop.ids(batch), hop.starts(batch)):
                if end < start:
                    owner = trace_id if hop.covers is None else f"table {hop.covers}"
                    problems.append(
                        f"span {hop.name}[{hop.layer}] of {owner} ends "
                        f"at {end:.6f} before it starts at {start:.6f}"
                    )
        for trace_id in self.trace_ids():
            starts_by_hop: dict[str, list[float]] = {}
            for batch, seq in self._rows(trace_id):
                if batch[_HOP].name in HOP_ORDER:
                    starts_by_hop.setdefault(batch[_HOP].name, []).append(
                        self._start(batch, seq)
                    )
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
        then what the bound cost — a trace missing a hop because its span
        was dropped is not a trace that skipped the hop."""
        by_hop: dict[tuple[str, str], list[float]] = {}
        for batch in self._batches:
            hop, end = batch[_HOP], batch[_END]
            by_hop.setdefault((hop.layer, hop.name), []).extend(
                [end - start for start in hop.starts(batch)]
            )
        lines = [f"{'layer':<8} {'span':<10} {'count':>7} {'p50 (s)':>9} {'p99 (s)':>9}"]
        for (layer, name), durations in sorted(by_hop.items()):
            durations.sort()
            p50, p99 = nearest_rank(durations, 50), nearest_rank(durations, 99)
            lines.append(
                f"{layer:<8} {name:<10} {len(durations):>7} {p50:>9.3f} {p99:>9.3f}"
            )
        lines.append(f"spans dropped: {self.spans_dropped}")
        return "\n".join(lines)


def _hop_rank(name: str) -> int:
    return HOP_ORDER.index(name) if name in HOP_ORDER else len(HOP_ORDER)
