"""Cross-layer tracing: trace contexts, spans and the span collector.

The paper's operational story (Section 8's seconds-level freshness for
surge and Eats dashboards, Section 9.3's per-use-case monitoring) depends
on following one record across *every* layer of the Figure 3 data path —
produce into Kafka, replicate between brokers, process through Flink,
ingest into Pinot, serve through the broker and Presto.  Related work
(arXiv:2410.15533, arXiv:2512.16146) makes the same point: latency is only
trustworthy when measured at system boundaries, not inside one component.

The model here is deliberately small:

* A record is named the way Kafka names it: its trace id is its
  coordinates in the log a traced hop holds it in, ``(topic, partition,
  offset)``, rendered as a string when a reader asks (:func:`record_id`,
  e.g. ``"rides-0@17"``), and its origin time is its ``event_time``.  Only
  a *continued* trace — a Flink sink re-producing a window result under
  the trace of a record it read — carries the pair explicitly, as the
  ``trace_id`` / ``origin_event_time`` headers of a :class:`TraceContext`.
  A uReplicator copy is a new record in its destination cluster; no traced
  hop spans two clusters.
* Each hop emits a :class:`Span` — ``produce``, ``replicate``, ``consume``,
  ``process``, ``ingest``, ``query`` — into one shared
  :class:`SpanCollector`.
* The collector is the only store of span data: counts and duration
  percentiles per hop are read off its bounded ring
  (:meth:`SpanCollector.summary`), and it holds nothing outside it.

Tracing is opt-in per component: components take ``tracer=None``, and one
with a collector traces every record it handles.  A record carries nothing
for it — its headers are what its producer's caller passed — so a traced
platform writes the log an untraced one writes, byte for byte.  A hop pays
per batch, not per record: it hands the
collector a reference to the batch it already holds (the producer's
flushed records, the log entries it replicated, polled or ingested) and
the starts it already has.  Trace ids, starts read off log entries and the
per-trace and per-table views are derived when a reader asks, and ``Span``
objects exist only while a reader looks at them.  The one per-record cost
is Flink's: a traced source stamps each element with an
:class:`EntryTrace` — the entry it read and the time it entered the job,
its id rendered only if something reads it — and the sink that writes it
records its ``process`` span from that time.  On the wall-clock
benchmark's live path tracing on runs at 0.91 of tracing off
(EXPERIMENTS.md, B19; 0.84 at B15, 0.74 before it).

Coordinates name a record only while its log keeps it.  Under ``acks=1``
a leader can die before a follower copied its tail: the new leader's log
lacks those entries, the old leader truncates them when it rejoins, and
the next record appended there takes a lost offset.  The lost record's
``produce`` span and every span of its replacement then share one id.
For that id :meth:`SpanCollector.trace` lists both ``produce`` spans;
:meth:`SpanCollector.trace_latency` measures from the earlier send, the
lost record's, so it reads high by the time between the two sends; and
:meth:`SpanCollector.anomalies` reports nothing, because the lost send
starts before every later hop of the id.  The tracer does not detect loss:
the auditor (:mod:`repro.audit`) and the chaos ack check do.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

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


@dataclass(slots=True)
class TraceContext:
    """Identity of one traced record.

    ``origin_event_time`` is the event time of the *root* record of the
    trace: derived records (e.g. window results re-produced to Kafka) keep
    the origin so end-to-end freshness stays boundary-to-boundary.
    ``entered`` is when the element entered a Flink job: a traced source
    stamps it and the sink that writes the element ends its ``process``
    span there.  It travels in the job's checkpoints, never in headers.
    """

    trace_id: str
    origin_event_time: float | None = None
    entered: float | None = None

    def to_headers(self) -> dict[str, Any]:
        """The headers of a record re-produced under this trace."""
        headers: dict[str, Any] = {TRACE_HEADER: self.trace_id}
        if self.origin_event_time is not None:
            headers[ORIGIN_HEADER] = self.origin_event_time
        return headers


class EntryTrace:
    """The trace of a log entry of ``topic``'s ``partition`` that a traced
    Flink source read, read like a :class:`TraceContext` but worked out
    only when read: most are dropped unread (a window keeps one per key).
    """

    __slots__ = ("topic", "partition", "entry", "entered")

    def __init__(
        self, topic: str, partition: int, entry: Any, entered: float | None = None
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.entry = entry
        self.entered = entered

    @property
    def trace_id(self) -> str:
        headers, offset = self.entry.record.headers, self.entry.offset
        return _trace_id_of(headers, self.topic, self.partition, offset)

    @property
    def origin_event_time(self) -> float | None:
        """The continued trace's origin, else the record's event time."""
        record = self.entry.record
        if TRACE_HEADER in record.headers:
            return record.headers.get(ORIGIN_HEADER)
        return record.event_time

    def to_headers(self) -> dict[str, Any]:
        return TraceContext(self.trace_id, self.origin_event_time).to_headers()


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


def _record_ids(batch: _Batch) -> list[str]:
    """A producer hop's ids: its records, at the ``offset`` column of the
    batch's topic and partition."""
    topic, partition = batch.attrs["topic"], batch.attrs["partition"]
    return [
        _trace_id_of(record.headers, topic, partition, offset)
        for record, offset in zip(batch.rows, batch.columns["offset"])
    ]


def _entry_ids(batch: _Batch) -> list[str]:
    """The ids of a hop over log entries of the batch's topic and partition."""
    topic, partition = batch.attrs["topic"], batch.attrs["partition"]
    return [EntryTrace(topic, partition, entry).trace_id for entry in batch.rows]


class _Batch:
    """Finished spans that arrived together, stored column-wise.

    Name, layer, end and ``attrs`` are shared by every row.  ``rows`` is
    what the hop held — its ``Record``s or ``LogEntry``s, named by
    ``resolve``, or, when ``resolve`` is ``None``, the trace ids
    themselves — and is kept by reference, as are the parallel ``starts``
    and the per-row ``columns`` (any indexable sequence, e.g. a ``range``
    of offsets).  A hop over log entries stores no ``starts``: each row
    starts at its entry's ``append_time``, read when asked.  Row ``i``
    has arrival sequence ``seq + i``.  A table query is a one-row batch
    whose trace id is ``None`` and which ``covers`` its table.
    """

    __slots__ = (
        "seq",
        "name",
        "layer",
        "end",
        "attrs",
        "rows",
        "starts",
        "columns",
        "resolve",
        "covers",
        "_ids",
    )

    def __init__(
        self,
        name: str,
        layer: str,
        end: float,
        attrs: dict[str, Any],
        rows: Sequence[Any],
        starts: Sequence[float] | None,
        columns: Mapping[str, Sequence[Any]] | None = None,
        resolve: Callable[[_Batch], list[str]] | None = None,
        covers: str | None = None,
    ) -> None:
        self.seq = 0  # set when stored
        self.name = name
        self.layer = layer
        self.end = end
        self.attrs = attrs
        self.rows = rows
        self.starts = starts
        self.columns = columns
        self.resolve = resolve
        self.covers = covers
        self._ids: list[str] | None = None

    @property
    def trace_ids(self) -> Sequence[str | None]:
        """Each row's trace id, worked out the first time it is asked."""
        if self.resolve is None:
            return self.rows
        if self._ids is None:
            self._ids = self.resolve(self)
        return self._ids

    def drop_head(self, count: int) -> None:
        self.seq += count
        self.rows = self.rows[count:]
        if self.starts is not None:
            self.starts = self.starts[count:]
        if self._ids is not None:
            self._ids = self._ids[count:]
        if self.columns:
            self.columns = {k: col[count:] for k, col in self.columns.items()}

    def ingest_table(self) -> str | None:
        """The Pinot table these rows became queryable in, if any."""
        return self.attrs.get("table") if self.name == "ingest" else None

    def start(self, seq: int) -> float:
        row = seq - self.seq
        if self.starts is None:
            return self.rows[row].append_time
        return self.starts[row]

    def start_times(self) -> Sequence[float]:
        """Every row's start, in row order."""
        if self.starts is None:
            return [entry.append_time for entry in self.rows]
        return self.starts

    def span(self, seq: int, trace_id: str | None) -> Span:
        """The row with arrival sequence ``seq``, as seen from ``trace_id``."""
        attrs = dict(self.attrs)
        if self.columns:
            row = seq - self.seq
            for key, column in self.columns.items():
                attrs[key] = column[row]
        return Span(trace_id, self.name, self.layer, self.start(seq), self.end, attrs)


class SpanCollector:
    """In-memory sink for spans emitted by every instrumented layer.

    One collector instance is shared across the whole stack (the
    :class:`~repro.platform.Platform` facade wires it); spans land here and
    nowhere else.

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
        self._batches: deque[_Batch] = deque()
        self._size = 0
        self._next_seq = 0
        # The stored queries of each Pinot table in arrival order: trace()
        # answers "which queries covered T" from them.
        self._table_queries: dict[str, deque[_Batch]] = {}
        # Built by readers only (_index): trace id -> its stored rows as
        # (batch, arrival sequence), over every batch below _indexed.
        self._by_trace: dict[str, list[tuple[_Batch, int]]] = {}
        self._indexed = 0

    # -- recording ----------------------------------------------------------

    def record_batch(
        self,
        name: str,
        layer: str,
        records: Sequence[Any],
        starts: Sequence[float],
        end: float,
        topic: str,
        partition: int,
        base_offset: int,
        **attrs: Any,
    ) -> None:
        """Record one hop of a batch of records appended to ``topic``'s
        ``partition`` from ``base_offset`` on: spans that share ``name``,
        ``layer``, ``end`` and ``attrs`` and differ in the record, its
        start and its ``offset``.

        The collector keeps ``records`` and ``starts`` as they are, so the
        caller must not mutate them afterwards; a record's trace id is
        worked out when a reader first needs it.
        """
        attrs["topic"], attrs["partition"] = topic, partition
        columns = {"offset": range(base_offset, base_offset + len(records))}
        self._append(
            _Batch(name, layer, end, attrs, records, starts, columns, _record_ids)
        )

    def record_entries(
        self,
        name: str,
        layer: str,
        entries: Sequence[Any],
        end: float,
        topic: str,
        partition: int,
        **attrs: Any,
    ) -> None:
        """:meth:`record_batch` over log entries of ``topic``'s
        ``partition``: each span starts at its entry's append time, and the
        entry's offset names its record."""
        attrs["topic"], attrs["partition"] = topic, partition
        self._append(_Batch(name, layer, end, attrs, entries, None, None, _entry_ids))

    def record_spans(
        self,
        name: str,
        layer: str,
        trace_ids: Sequence[str],
        starts: Sequence[float],
        end: float,
        columns: Mapping[str, Sequence[Any]] | None = None,
        **attrs: Any,
    ) -> None:
        """:meth:`record_batch` for a hop that holds trace ids, not
        records."""
        self._append(_Batch(name, layer, end, attrs, trace_ids, starts, columns))

    def record_span(
        self,
        trace_id: str,
        name: str,
        layer: str,
        start: float,
        end: float,
        **attrs: Any,
    ) -> Span:
        """Record a completed span in one shot: the one-row form of
        :meth:`record_spans`, over the same store."""
        self._append(_Batch(name, layer, end, attrs, (trace_id,), (start,)))
        return Span(trace_id, name, layer, start, end, dict(attrs))

    def record_table_query(
        self, table: str, layer: str, start: float, end: float, **attrs: Any
    ) -> None:
        """Record one query over ``table``.

        The query layer does not see per-row headers, but it does know the
        table it served; lineage-wise, each trace whose record was
        queryable in the table was covered by the query.  The query is
        stored once; :meth:`trace` resolves coverage when asked, as *the
        queries recorded after the trace's first stored ``ingest`` span
        into that table* — arrival order in this collector, so the answer
        does not depend on what the two layers' clocks read.
        """
        attrs["table"] = table
        query = _Batch("query", layer, end, attrs, (None,), (start,), covers=table)
        self._table_queries.setdefault(table, deque()).append(query)
        self._append(query)

    def _append(self, batch: _Batch) -> None:
        count = len(batch.rows)
        if not count:
            return
        batch.seq = self._next_seq
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
            dropped = min(count, len(batch.rows))
            self._forget(batch, dropped)
            if dropped == len(batch.rows):
                self._batches.popleft()
            else:
                batch.drop_head(dropped)
            count -= dropped

    def _forget(self, batch: _Batch, count: int) -> None:
        """Take the ``count`` leading rows of the oldest batch out of every
        index."""
        if batch.covers is not None:
            queries = self._table_queries[batch.covers]
            queries.popleft()
            if not queries:
                del self._table_queries[batch.covers]
        elif batch.seq < self._indexed:
            for trace_id in batch.trace_ids[:count]:
                rows = self._by_trace[trace_id]
                del rows[0]
                if not rows:
                    del self._by_trace[trace_id]

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

    def _index(self) -> dict[str, list[tuple[_Batch, int]]]:
        """The per-trace index, extended over what arrived since last read."""
        fresh = []
        for batch in reversed(self._batches):
            if batch.seq < self._indexed:
                break
            fresh.append(batch)
        by_trace = self._by_trace
        for batch in reversed(fresh):
            if batch.covers is None:
                for seq, trace_id in enumerate(batch.trace_ids, batch.seq):
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
        """The traces with a stored ``ingest`` row into ``table``."""
        return {
            trace_id
            for batch in self._batches
            if batch.ingest_table() == table
            for trace_id in batch.trace_ids
        }

    def ingest_durations(self, table: str) -> list[float]:
        """Every stored ``ingest`` row into ``table`` as ``end - start``:
        its entry's append → queryable interval, in arrival order.  A row
        ingested twice (re-consumed after an owner replacement) has two."""
        return [
            batch.end - start
            for batch in self._batches
            if batch.ingest_table() == table
            for start in batch.start_times()
        ]

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
            starts = batch.start_times()
            if max(starts) <= batch.end:
                continue
            for trace_id, start in zip(batch.trace_ids, starts):
                if batch.end < start:
                    owner = trace_id
                    if batch.covers is not None:
                        owner = f"table {batch.covers}"
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
        then what the bound cost — a trace missing a hop because its span
        was dropped is not a trace that skipped the hop."""
        by_hop: dict[tuple[str, str], list[float]] = {}
        for batch in self._batches:
            end = batch.end
            by_hop.setdefault((batch.layer, batch.name), []).extend(
                [end - start for start in batch.start_times()]
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
    try:
        return HOP_ORDER.index(name)
    except ValueError:
        return len(HOP_ORDER)
