"""Operator implementations: sources, transforms, windows, joins, sinks.

Each operator follows a small contract used by the runtime:

* ``process(record, input_index) -> list[StreamElement]``
* ``on_watermark(watermark) -> list[StreamElement]`` (fire timers/windows)
* ``snapshot() -> bytes`` / ``restore(bytes)`` for checkpointing
* optionally ``process_columnar(rbatch, input_index)``, a vectorized
  kernel the runtime prefers when it is handed a columnar batch

Two owners hold the rules that several classes share:
:class:`EventTimeOperator` (lateness, late-drop accounting, trace
carry-over and the checkpoint envelope of every window/join operator)
and :class:`SourceReader` (a reader's derived watermark/idleness state
and its reset on restore).  Window and join operators keep their
contents in a :class:`~repro.flink.state.KeyedStateBackend`, so their
state is checkpointable and measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import isfinite
from typing import Any, Callable, Sequence

from repro.common import serde
from repro.common.errors import OperatorError
from repro.common.perf import PERF
from repro.common.records import Record
from repro.columnar import ColumnBatch, ColumnVector
from repro.flink.state import KeyedStateBackend, _key_from_wire, _key_to_wire
from repro.flink.time import (
    BoundedOutOfOrdernessWatermarks,
    RecordBatch,
    StreamRecord,
    StreamStatus,
    Watermark,
)
from repro.flink.windows import (
    AggregateFunction,
    TimeWindow,
    WindowAssigner,
    WindowResult,
    non_finite_event_time,
)
from repro.observability.trace import SpanCollector, TraceContext


class Operator:
    """Base class; stateless pass-through."""

    def __init__(self) -> None:
        self.state = KeyedStateBackend()

    def process(self, record: StreamRecord, input_index: int = 0) -> list[Any]:
        raise NotImplementedError

    def process_columnar(
        self, rbatch: RecordBatch, input_index: int = 0
    ) -> list[Any] | None:
        """Process a columnar batch without materializing rows.

        Returns ``None`` when this operator has no vectorized kernel for
        the batch; the runtime then adapts the batch to records and
        feeds them to :meth:`process`, so row-only operators keep
        working unchanged in a columnar pipeline.
        """
        return None

    def on_watermark(self, watermark: Watermark) -> list[Any]:
        return []

    def snapshot(self) -> bytes:
        return self.state.snapshot()

    def restore(self, data: bytes) -> None:
        self.state.restore(data)


class MapOperator(Operator):
    def __init__(self, fn: Callable[[Any], Any]) -> None:
        super().__init__()
        self.fn = fn

    def process(self, record: StreamRecord, input_index: int = 0) -> list[Any]:
        try:
            return [record.with_value(self.fn(record.value))]
        except Exception as exc:
            raise OperatorError(f"map function failed: {exc}") from exc


class FilterOperator(Operator):
    def __init__(self, fn: Callable[[Any], bool]) -> None:
        super().__init__()
        self.fn = fn

    def process(self, record: StreamRecord, input_index: int = 0) -> list[Any]:
        try:
            return [record] if self.fn(record.value) else []
        except Exception as exc:
            raise OperatorError(f"filter function failed: {exc}") from exc


class FlatMapOperator(Operator):
    def __init__(self, fn: Callable[[Any], list[Any]]) -> None:
        super().__init__()
        self.fn = fn

    def process(self, record: StreamRecord, input_index: int = 0) -> list[Any]:
        try:
            return [record.with_value(v) for v in self.fn(record.value)]
        except Exception as exc:
            raise OperatorError(f"flat_map function failed: {exc}") from exc


class ProcessOperator(Operator):
    """Escape hatch: ``fn(record, state, emit)`` with keyed state access."""

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def process(self, record: StreamRecord, input_index: int = 0) -> list[Any]:
        out: list[StreamRecord] = []

        def emit(value: Any, key: Any = None) -> None:
            out.append(StreamRecord(value, record.timestamp, key, record.trace))

        try:
            self.fn(record, self.state, emit)
        except Exception as exc:
            raise OperatorError(f"process function failed: {exc}") from exc
        return out


class EventTimeOperator(Operator):
    """The one owner of the event-time rules of every window and join.

    Subclasses say what their horizon is, what they buffer and what they
    emit (:meth:`_fire`); the rules that judge a record live here only.

    * **Lateness.**  A horizon — a window end, an interval join's join
      horizon — is *expired* once ``horizon + allowed_lateness <=
      current_watermark`` (:meth:`_expired`).  A record is admitted
      while its horizon (:meth:`_late`), or at least one of the windows
      it is assigned to (:meth:`_admit`), is still open and is
      otherwise dropped, raising ``late_dropped`` by exactly one — the
      surge-pricing policy that "late-arriving messages do not
      contribute" (Section 5.1).  State fires on the
      same predicate, so an admitted record always lands in state that
      still has a pending fire.  Lateness is ``>= 0``: a negative one
      would drop records whose window is still open.
    * **Traces.**  ``_traces`` keeps one representative trace per state
      key, the latest contributing traced record; a fire pops it onto
      what it emits.
    * **Checkpoints.**  One envelope holds the watermark,
      ``late_dropped``, the traces, whatever attributes the subclass
      names in ``checkpointed`` and the keyed state, so a restored
      operator judges, counts and attributes exactly as the original.
    """

    #: Attributes checkpointed beside the shared event-time fields.
    checkpointed: tuple[str, ...] = ()

    def __init__(self, allowed_lateness: float = 0.0) -> None:
        super().__init__()
        if not allowed_lateness >= 0:  # also NaN
            raise OperatorError(
                f"allowed lateness must be >= 0, got {allowed_lateness}"
            )
        self.allowed_lateness = allowed_lateness
        self.current_watermark = float("-inf")
        self.late_dropped = 0
        self._traces: dict[Any, Any] = {}

    def _expired(self, horizon: float) -> bool:
        return horizon + self.allowed_lateness <= self.current_watermark

    def _late(self, horizon: float) -> bool:
        """Judge a record with one horizon: late means dropped and counted."""
        if self._expired(horizon):
            self.late_dropped += 1
            return True
        return False

    def _admit(self, windows: Sequence[TimeWindow]) -> Sequence[TimeWindow]:
        """The still-open windows of one record; with none it is late."""
        if len(windows) == 1:  # tumbling: nothing to filter
            return () if self._late(windows[0].end) else windows
        live = [w for w in windows if not self._expired(w.end)]
        if not live:
            self.late_dropped += 1
        return live

    def on_watermark(self, watermark: Watermark) -> list[Any]:
        self.current_watermark = max(self.current_watermark, watermark.timestamp)
        return self._fire()

    def _fire(self) -> list[Any]:
        """Emit and drop whatever state :meth:`_expired` now closes."""
        raise NotImplementedError

    def snapshot(self) -> bytes:
        meta = {
            "watermark": self.current_watermark,
            "late_dropped": self.late_dropped,
            "traces": [
                [_key_to_wire(state_key), trace.to_headers()]
                for state_key, trace in self._traces.items()
            ],
        }
        for name in self.checkpointed:
            meta[name] = getattr(self, name)
        return serde.encode({"meta": meta, "state": self.state.snapshot()})

    def restore(self, data: bytes) -> None:
        payload = serde.decode(data)
        meta = payload["meta"]
        self.current_watermark = meta["watermark"]
        self.late_dropped = meta["late_dropped"]
        self._traces = {
            _key_from_wire(state_key): TraceContext.from_headers(headers)
            for state_key, headers in meta["traces"]
        }
        for name in self.checkpointed:
            setattr(self, name, meta[name])
        self.state.restore(payload["state"])


class WindowOperator(EventTimeOperator):
    """Keyed event-time windows with incremental aggregation.

    State layout (all serde-plain):

    * ``"acc"``: (key, start, end) -> accumulator
    * session windows merge eagerly on insert.
    """

    def __init__(
        self,
        assigner: WindowAssigner,
        aggregator: AggregateFunction,
        allowed_lateness: float = 0.0,
        key_column: str | None = None,
    ) -> None:
        super().__init__(allowed_lateness)
        self.assigner = assigner
        self.aggregator = aggregator
        self.key_column = key_column
        self._session = assigner.is_session()
        # Once a columnar batch has been accumulated, fired results are
        # emitted as columnar batches too, so the downstream edge stays
        # in the vectorized plane.
        self._columnar_fires = False

    def process(self, record: StreamRecord, input_index: int = 0) -> list[Any]:
        self._accumulate(
            record.key,
            record.timestamp,
            record.value,
            self.aggregator.add,
            record.trace,
        )
        return []

    def process_columnar(
        self, rbatch: RecordBatch, input_index: int = 0
    ) -> list[Any] | None:
        """Accumulate a whole columnar batch into window state.

        Vectorized kernel: keys come straight from the key column's
        vector, values from the aggregate's input column — no per-row
        StreamRecord or dict ever materializes.  The rows run through
        the same :meth:`_accumulate` as the row feed, in batch row
        order, so accumulators — including float sums — are
        bit-identical.

        Requires a declared key column and an aggregate exposing the
        ``add_raw``/``column`` contract; session windows merge on
        insert, which is inherently row-at-a-time.  Returns ``None``
        in those cases so the runtime falls back to the row feed.
        """
        if self.key_column is None or self._session:
            return None
        add_raw = getattr(self.aggregator, "add_raw", None)
        if add_raw is None:
            return None
        columns = rbatch.batch.columns
        key_vector = columns.get(self.key_column)
        if key_vector is None:
            return None
        # Column-less aggregates (count) read no cell: every value is None.
        value_vector = None
        column = getattr(self.aggregator, "column", None)
        if column is not None:
            value_vector = columns.get(column)
            if value_vector is None:
                return None
        if PERF.enabled:
            PERF.inc("columnar.agg_rows", len(rbatch))
        timestamps, trace = rbatch.timestamps, rbatch.trace
        for i in rbatch.row_indices():
            value = value_vector.get(i) if value_vector is not None else None
            self._accumulate(key_vector.get(i), timestamps[i], value, add_raw, trace)
        self._columnar_fires = True
        return []

    def _accumulate(
        self,
        key: Any,
        timestamp: float,
        value: Any,
        add: Callable[[Any, Any], Any],
        trace: Any,
    ) -> None:
        """Admit one row and fold it into the state of its open windows.

        The single admit-and-accumulate body of both feeds: ``add`` is
        the aggregate's ``add`` (row values) or ``add_raw`` (column
        cells).
        """
        windows = self.assigner.assign(timestamp)
        aggregator = self.aggregator
        if self._session:
            acc = add(value, aggregator.create_accumulator())
            self._add_to_session(key, windows[0], acc, trace)
            return
        state = self.state
        for window in self._admit(windows):
            state_key = (key, window.start, window.end)
            acc = state.get("acc", state_key)
            if acc is None:
                acc = aggregator.create_accumulator()
            state.put("acc", state_key, add(value, acc))
            if trace is not None:
                self._traces[state_key] = trace

    def _add_to_session(
        self, key: Any, window: TimeWindow, acc: Any, trace: Any
    ) -> None:
        """Insert into session state, merging overlapping sessions.

        A record that extends a live session is admitted whatever its
        own end; one that would open a session of its own is judged by
        that session's end like any other single-horizon record.
        """
        start, end = window.start, window.end
        extends = False
        merged = True
        while merged:
            merged = False
            for state_key, existing in self.state.items("acc"):
                k, s, e = state_key
                if k != key:
                    continue
                if s <= end and start <= e:  # overlap -> merge
                    acc = self.aggregator.merge(acc, existing)
                    start, end = min(start, s), max(end, e)
                    self.state.remove("acc", state_key)
                    absorbed = self._traces.pop(state_key, None)
                    trace = trace or absorbed
                    merged = extends = True
                    break
        if not extends and self._late(end):
            return
        self.state.put("acc", (key, start, end), acc)
        if trace is not None:
            self._traces[(key, start, end)] = trace

    def _fire(self) -> list[Any]:
        fired: list[StreamRecord] = []
        # Filter before sorting: a watermark that closes nothing costs one
        # pass, and the stable sort leaves equal-end windows in state order.
        closing = [kv for kv in self.state.items("acc") if self._expired(kv[0][2])]
        closing.sort(key=lambda kv: kv[0][2])
        for state_key, acc in closing:
            key, start, end = state_key
            result = WindowResult(
                key=key,
                window=TimeWindow(start, end),
                value=self.aggregator.get_result(acc),
            )
            # Results are timestamped at window end, Flink-style.
            fired.append(
                StreamRecord(result, end, key, self._traces.pop(state_key, None))
            )
            self.state.remove("acc", state_key)
        if (
            self._columnar_fires
            and len(fired) > 1
            and all(r.trace is None for r in fired)
        ):
            # Keep the downstream edge vectorized: one RecordBatch of
            # results instead of one element per fired window.  Results
            # are opaque WindowResult objects, carried as a raw vector
            # under the ``__value__`` convention.
            batch = ColumnBatch(
                {"__value__": ColumnVector.raw([r.value for r in fired])},
                num_rows=len(fired),
            )
            return [
                RecordBatch(
                    batch,
                    timestamps=tuple(r.timestamp for r in fired),
                    keys=tuple(r.key for r in fired),
                )
            ]
        return fired


class WindowJoinOperator(EventTimeOperator):
    """Two-input window join: emits ``join_fn(left, right)`` for every pair
    sharing a key inside the same window (Section 5.3's prediction-to-
    outcome join).  Buffers both sides until the window closes — which is
    why the paper calls stream-stream joins "almost always memory bound"
    (Section 4.2.1); the autoscaler uses the same signal.
    """

    def __init__(
        self,
        assigner: WindowAssigner,
        join_fn: Callable[[Any, Any], Any],
        allowed_lateness: float = 0.0,
    ) -> None:
        super().__init__(allowed_lateness)
        self.assigner = assigner
        self.join_fn = join_fn

    def process(self, record: StreamRecord, input_index: int = 0) -> list[Any]:
        side = "left" if input_index == 0 else "right"
        for window in self._admit(self.assigner.assign(record.timestamp)):
            state_key = (record.key, window.start, window.end)
            self.state.append(side, state_key, record.value)
            if record.trace is not None:
                self._traces[state_key] = record.trace
        return []

    def _fire(self) -> list[Any]:
        fired: list[StreamRecord] = []
        closed = {
            state_key
            for side in ("left", "right")
            for state_key in self.state.keys(side)
            if self._expired(state_key[2])
        }
        for state_key in sorted(closed, key=lambda k: (k[2], str(k[0]))):
            key, __, end = state_key
            trace = self._traces.pop(state_key, None)
            lefts = self.state.get_list("left", state_key)
            rights = self.state.get_list("right", state_key)
            for left in lefts:
                for right in rights:
                    fired.append(
                        StreamRecord(self.join_fn(left, right), end, key, trace)
                    )
            self.state.remove("left", state_key)
            self.state.remove("right", state_key)
        return fired


class IntervalJoinOperator(EventTimeOperator):
    """Per-key time-bounded join: emits ``join_fn(left, right)`` for every
    pair sharing a key with ``left.ts ∈ [right.ts + lower, right.ts +
    upper]`` (equivalently ``left.ts - right.ts ∈ [lower, upper]``).

    Unlike the window join there is no window boundary to straddle: a
    prediction made at 11:59 still joins its outcome at 12:04.  Pairs are
    emitted eagerly when the second side arrives, stamped at ``max(left.ts,
    right.ts)`` — the event time at which the pair became complete.

    **State + eviction.**  Both sides buffer ``[ts, seq, value]`` entries
    in keyed list state.  A buffered record's *join horizon* is the latest
    event time of any pair it can still complete: ``ts + max(0, -lower)``
    for a left, ``ts + max(0, upper)`` for a right; a record is late once
    its horizon has expired.  An entry is evicted once the watermark
    passes ``max(horizon + allowed_lateness, ts + state_ttl)`` — the TTL
    can only *extend* retention past the join horizon (for late
    observers and state reads), never truncate it, so TTL eviction can
    never drop a still-joinable record.  Eviction is
    driven by a min-heap over per-entry deadlines that is rebuilt from
    state on restore (the deadlines are pure functions of the entries).

    **Spill pressure.**  The buffered state is the memory-bound signal of
    Section 4.2.1; ``spill_pressure()`` reports buffered bytes against
    ``spill_budget_bytes`` so the AutoScaler can react before the state
    actually spills.
    """

    checkpointed = ("evicted", "_seq")

    def __init__(
        self,
        lower: float,
        upper: float,
        join_fn: Callable[[Any, Any], Any],
        allowed_lateness: float = 0.0,
        state_ttl: float | None = None,
        spill_budget_bytes: int | None = None,
    ) -> None:
        super().__init__(allowed_lateness)
        if lower > upper:
            raise OperatorError(
                f"interval join bounds inverted: lower {lower} > upper {upper}"
            )
        if state_ttl is not None and not state_ttl >= 0:  # also NaN
            raise OperatorError(f"state TTL must be >= 0, got {state_ttl}")
        self.lower = lower
        self.upper = upper
        self.join_fn = join_fn
        self.state_ttl = state_ttl
        self.spill_budget_bytes = spill_budget_bytes
        # How far past its own timestamp each side can still complete a pair.
        self._reach = {"left": max(0.0, -lower), "right": max(0.0, upper)}
        self.evicted = 0
        self._seq = 0
        # (deadline, seq, side, key) — seq breaks ties so keys are never
        # compared (they may be mixed types).
        self._evictions: list[tuple[float, int, str, Any]] = []

    # -- time bounds ---------------------------------------------------------

    def _horizon(self, side: str, timestamp: float) -> float:
        return timestamp + self._reach[side]

    def _deadline(self, horizon: float, timestamp: float) -> float:
        """When an entry with this join horizon leaves the buffer."""
        deadline = horizon + self.allowed_lateness
        if self.state_ttl is not None:
            deadline = max(deadline, timestamp + self.state_ttl)
        return deadline

    # -- dataflow ------------------------------------------------------------

    def process(self, record: StreamRecord, input_index: int = 0) -> list[Any]:
        is_left = input_index == 0
        side, other = ("left", "right") if is_left else ("right", "left")
        timestamp = record.timestamp
        horizon = self._horizon(side, timestamp)
        if not isfinite(horizon):  # a NaN deadline would wedge eviction
            raise non_finite_event_time(timestamp)
        if self._late(horizon):
            return []
        key = record.key
        value = record.value
        if record.trace is not None:
            self._traces[key] = record.trace
        out: list[StreamRecord] = []
        buffered = self.state.get_list(other, key)
        if buffered:
            if PERF.enabled:
                PERF.inc("flink.join_probes", len(buffered))
            lower, upper, join_fn = self.lower, self.upper, self.join_fn
            # The record's own trace was stored just above, so one lookup
            # serves every pair: its trace, else the key's latest.
            trace = self._traces.get(key)
            for other_ts, _seq, other_value in buffered:
                delta = timestamp - other_ts if is_left else other_ts - timestamp
                if lower <= delta <= upper:
                    if is_left:
                        pair = join_fn(value, other_value)
                    else:
                        pair = join_fn(other_value, value)
                    out.append(StreamRecord(pair, max(timestamp, other_ts), key, trace))
        if PERF.enabled:
            PERF.inc("flink.join_state_appends")
            if out:
                PERF.inc("flink.join_rows_out", len(out))
        seq = self._seq
        self._seq += 1
        self.state.append(side, key, [timestamp, seq, value])
        heappush(self._evictions, (self._deadline(horizon, timestamp), seq, side, key))
        return out

    def _fire(self) -> list[Any]:
        evictions = self._evictions
        while evictions and evictions[0][0] <= self.current_watermark:
            __, seq, side, key = heappop(evictions)
            entries = self.state.get_list(side, key)
            remaining = [e for e in entries if e[1] != seq]
            if len(remaining) == len(entries):
                continue  # already gone (stale heap entry after restore)
            self.evicted += 1
            if PERF.enabled:
                PERF.inc("flink.join_evictions")
            if remaining:
                self.state.put(side, key, remaining)
            else:
                self.state.remove(side, key)
                if not self.state.get_list("right" if side == "left" else "left", key):
                    self._traces.pop(key, None)
        return []

    # -- memory-pressure signal ----------------------------------------------

    def spill_pressure(self) -> float:
        """Buffered join state as a fraction of the spill budget.

        >= 1.0 means the operator would have to spill; the AutoScaler
        treats that as an immediate scale-up signal.
        """
        if not self.spill_budget_bytes:
            return 0.0
        return self.state.size_bytes() / self.spill_budget_bytes

    def restore(self, data: bytes) -> None:
        super().restore(data)
        # The eviction heap is derived state: every deadline is a pure
        # function of (side, ts), so rebuild it from the buffers.
        self._evictions = []
        for side in ("left", "right"):
            for key in self.state.keys(side):
                for ts, seq, __ in self.state.get_list(side, key):
                    deadline = self._deadline(self._horizon(side, ts), ts)
                    heappush(self._evictions, (deadline, seq, side, key))


# --- sources ----------------------------------------------------------------


class SourceReader:
    """The one owner of a source reader's *derived* progress.

    Subclasses say where records come from — :meth:`_read`,
    :meth:`_seek`, ``snapshot`` and ``lag`` — and feed each record's
    timestamp to ``self.watermarks``.  What follows from the records
    read lives here: the bounded-out-of-orderness watermark and the
    last one emitted, idleness of an unbounded reader
    (``idle_after_empty_polls`` empty polls), the final ``+inf``
    watermark of a ``bounded`` one — and the rule that rewinding the
    position resets all of it (:meth:`restore`).
    """

    #: Bounded input ends with a ``+inf`` watermark so every window fires
    #: (the "end boundary" of Kappa+, Section 7); unbounded input goes idle.
    bounded = False
    idle_after_empty_polls = 2

    def __init__(self, max_out_of_orderness: float) -> None:
        self._max_out_of_orderness = max_out_of_orderness
        self._reset_progress()

    def _reset_progress(self) -> None:
        self.watermarks = BoundedOutOfOrdernessWatermarks(self._max_out_of_orderness)
        self._emitted_watermark = float("-inf")
        self._empty_polls = 0
        self._idle = False
        self._final_sent = False

    def _read(self, max_records: int) -> list[Any]:
        """Next data elements (StreamRecords or RecordBatches), advancing
        the position and ``self.watermarks``."""
        raise NotImplementedError

    def _seek(self, data: dict[str, Any]) -> None:
        """Rewind the position to a ``snapshot()``."""
        raise NotImplementedError

    def poll(self, max_records: int = 100) -> list[Any]:
        """Next batch of elements: the data read plus a trailing Watermark
        when event time advanced, or an idleness / end-of-input marker."""
        out = self._read(max_records)
        if out:
            self._empty_polls = 0
            if self._idle:
                self._idle = False
                out.insert(0, StreamStatus(idle=False))
            watermark = self.watermarks.current_watermark()
            if watermark > self._emitted_watermark:
                self._emitted_watermark = watermark
                out.append(Watermark(watermark))
        elif self.bounded:
            if not self._final_sent:
                self._final_sent = True
                out.append(Watermark(float("inf")))
        else:
            self._empty_polls += 1
            if self._empty_polls >= self.idle_after_empty_polls and not self._idle:
                self._idle = True
                out.append(StreamStatus(idle=True))
        return out

    def restore(self, data: dict[str, Any]) -> None:
        self._seek(data)
        # Progress is *derived* from the records read, so rewinding the
        # position resets it: a stale high-water mark would swallow the
        # watermarks regenerated during replay (stalling every downstream
        # window), judge replayed records against the pre-crash future,
        # and never re-send a bounded reader's final +inf.
        self._reset_progress()


class KafkaSource:
    """Reads a topic; each subtask owns ``partition % parallelism`` slices.

    Event timestamps default to the record's ``event_time``; a
    ``timestamp_fn(value) -> float`` can override.  Watermarks use bounded
    out-of-orderness.  Offsets are checkpoint state.
    """

    def __init__(
        self,
        cluster,
        topic: str,
        group: str,
        max_out_of_orderness: float = 0.0,
        timestamp_fn: Callable | None = None,
    ) -> None:
        self.cluster = cluster
        self.topic = topic
        self.group = group
        self.timestamp_fn = timestamp_fn
        self.max_out_of_orderness = max_out_of_orderness

    def create_reader(self, subtask: int, parallelism: int) -> "KafkaSourceReader":
        partitions = [
            p
            for p in range(self.cluster.partition_count(self.topic))
            if p % parallelism == subtask
        ]
        return KafkaSourceReader(self, partitions)


class KafkaSourceReader(SourceReader):
    def __init__(self, source: KafkaSource, partitions: list[int]) -> None:
        super().__init__(source.max_out_of_orderness)
        self.source = source
        self.partitions = partitions
        self.positions = {
            p: source.cluster.start_offset(source.topic, p) for p in partitions
        }
        if not partitions:
            # Subtask owns nothing; declare idle at once so it never
            # stalls the downstream watermark.
            self.idle_after_empty_polls = 1

    def _read(self, max_records: int) -> list[Any]:
        out: list[Any] = []
        if not self.partitions:
            return out
        cluster, topic = self.source.cluster, self.source.topic
        budget = max(1, max_records // len(self.partitions))
        for partition in self.partitions:
            entries = cluster.fetch(topic, partition, self.positions[partition], budget)
            for entry in entries:
                record: Record = entry.record
                timestamp = (
                    self.source.timestamp_fn(record.value)
                    if self.source.timestamp_fn is not None
                    else record.event_time
                )
                self.watermarks.on_event(timestamp)
                out.append(
                    StreamRecord(
                        record.value,
                        timestamp,
                        record.key,
                        TraceContext.from_record(record),
                    )
                )
                self.positions[partition] = entry.offset + 1
        return out

    def lag(self) -> int:
        cluster, topic = self.source.cluster, self.source.topic
        return sum(
            cluster.end_offset(topic, p) - self.positions[p] for p in self.partitions
        )

    def snapshot(self) -> dict[str, Any]:
        return {"positions": {str(p): off for p, off in self.positions.items()}}

    def _seek(self, data: dict[str, Any]) -> None:
        for partition, offset in data["positions"].items():
            self.positions[int(partition)] = offset


class BoundedReader(SourceReader):
    """A reader over ``total`` preloaded rows, consumed by position."""

    bounded = True

    def __init__(self, source, total: int) -> None:
        super().__init__(source.max_out_of_orderness)
        self.source = source
        self.total = total
        self.position = 0

    def lag(self) -> int:
        return self.total - self.position

    def snapshot(self) -> dict[str, Any]:
        return {"position": self.position}

    def _seek(self, data: dict[str, Any]) -> None:
        self.position = data["position"]


class BoundedListSource:
    """Source over a fixed list of (value, timestamp, key) — for tests and
    the Kappa+ batch mode (bounded input, Section 7)."""

    def __init__(
        self,
        elements: list[tuple[Any, float]] | list[tuple[Any, float, Any]],
        max_out_of_orderness: float = 0.0,
        batch_size: int = 100,
    ) -> None:
        self.elements = elements
        self.max_out_of_orderness = max_out_of_orderness
        self.batch_size = batch_size

    def create_reader(self, subtask: int, parallelism: int) -> "BoundedListReader":
        slice_ = self.elements[subtask::parallelism]
        return BoundedListReader(self, slice_)


class BoundedListReader(BoundedReader):
    def __init__(self, source: BoundedListSource, elements: list) -> None:
        super().__init__(source, len(elements))
        self.elements = elements

    def _read(self, max_records: int) -> list[Any]:
        out: list[Any] = []
        batch = self.elements[self.position : self.position + self.source.batch_size]
        for element in batch:
            value, timestamp, *rest = element
            key = rest[0] if rest else None
            self.watermarks.on_event(timestamp)
            out.append(StreamRecord(value, timestamp, key))
        self.position += len(batch)
        return out


class BoundedColumnarSource:
    """Columnar counterpart of :class:`BoundedListSource`.

    Input is column value lists plus per-row timestamps.  Each reader
    builds its stride-sliced :class:`~repro.columnar.ColumnBatch` once,
    then every poll emits a zero-copy slice as a single
    :class:`~repro.flink.time.RecordBatch` element — the per-element
    scheduler and routing costs of the row plane amortize over the
    whole batch.
    """

    def __init__(
        self,
        columns: dict[str, list],
        timestamps: list[float],
        max_out_of_orderness: float = 0.0,
        batch_size: int = 100,
    ) -> None:
        lengths = {name: len(values) for name, values in columns.items()}
        if any(n != len(timestamps) for n in lengths.values()):
            raise OperatorError(
                f"column lengths {lengths} do not match "
                f"{len(timestamps)} timestamps"
            )
        self.columns = columns
        self.timestamps = timestamps
        self.max_out_of_orderness = max_out_of_orderness
        self.batch_size = batch_size

    def create_reader(self, subtask: int, parallelism: int) -> "BoundedColumnarReader":
        columns = {
            name: values[subtask::parallelism]
            for name, values in self.columns.items()
        }
        return BoundedColumnarReader(
            self, columns, self.timestamps[subtask::parallelism]
        )


class BoundedColumnarReader(BoundedReader):
    def __init__(
        self,
        source: BoundedColumnarSource,
        columns: dict[str, list],
        timestamps: list[float],
    ) -> None:
        self.batch = ColumnBatch.from_columns(columns)
        super().__init__(source, len(self.batch))
        self.timestamps = timestamps

    def _read(self, max_records: int) -> list[Any]:
        count = min(self.source.batch_size, self.total - self.position)
        if count <= 0:
            return []
        view = self.batch.slice(self.position, count)
        timestamps = tuple(self.timestamps[self.position : self.position + count])
        # Only the maximum feeds the watermark generator, so one call
        # covers the whole slice.
        self.watermarks.on_event(max(timestamps))
        self.position += count
        return [RecordBatch(view, timestamps)]


# --- sinks ------------------------------------------------------------------


@dataclass
class CollectSink:
    """Appends every result to a caller-provided list."""

    collector: list

    def write(self, record: StreamRecord) -> None:
        self.collector.append(record.value)

    def write_batch(self, rbatch: RecordBatch) -> None:
        """Columnar write: append per-row values without record objects.

        Batches of opaque values use the ``__value__`` column
        convention; batches of named columns append row dicts.
        """
        if PERF.enabled:
            PERF.inc("columnar.kernel_rows", len(rbatch))
        batch = rbatch.batch
        vector = batch.columns.get("__value__")
        if vector is not None:
            for i in rbatch.row_indices():
                self.collector.append(vector.get(i))
            return
        for i in rbatch.row_indices():
            self.collector.append(batch.row(i))


class KafkaSink:
    """Produces results to a Kafka topic (FlinkSQL -> Pinot path, §4.3.3).

    ``transactional=True`` puts the internal producer in idempotent,
    epoch-fenced mode: the runtime buffers writes per checkpoint epoch (2PC)
    and, on crash-restore, calls :meth:`on_restore` to bump the producer
    epoch — a zombie pre-failure instance that still tries to commit its
    buffered records is fenced broker-side
    (:class:`~repro.common.errors.ProducerFencedError`).
    """

    def __init__(self, cluster, topic: str, key_fn: Callable | None = None,
                 transactional: bool = False,
                 transactional_id: str | None = None) -> None:
        from repro.kafka.producer import Producer

        self.cluster = cluster
        self.topic = topic
        self.key_fn = key_fn
        self.transactional = transactional
        self._producer = Producer(
            cluster,
            service_name=f"flink-sink-{topic}",
            transactional_id=(
                (transactional_id or f"flink-2pc-{topic}")
                if transactional
                else None
            ),
        )

    def set_tracer(self, tracer: SpanCollector | None) -> None:
        """Let the runtime hand its tracer to the sink's internal producer."""
        self._producer.tracer = tracer

    def on_restore(self) -> None:
        """Crash-restore fencing hook: re-register the transactional
        producer so the epoch advances and any zombie commit is rejected."""
        if self.transactional:
            self._producer.init_transactions()

    def write(self, record: StreamRecord) -> None:
        key = self.key_fn(record.value) if self.key_fn is not None else record.key
        value = record.value
        if isinstance(value, WindowResult):
            value = {
                "key": value.key,
                "window_start": value.window.start,
                "window_end": value.window.end,
                "value": value.value,
            }
        # Re-stamp the upstream trace so the derived record continues the
        # same end-to-end trace across its second Kafka hop.
        headers = record.trace.to_headers() if record.trace is not None else None
        self._producer.produce(
            self.topic, value, key=key, event_time=record.timestamp, headers=headers
        )


def build_operator(spec) -> Operator:
    """Instantiate the runtime operator for a graph spec."""
    if spec.kind == "map":
        return MapOperator(spec.fn)
    if spec.kind == "filter":
        return FilterOperator(spec.fn)
    if spec.kind == "flat_map":
        return FlatMapOperator(spec.fn)
    if spec.kind == "process":
        return ProcessOperator(spec.fn)
    if spec.kind == "window":
        return WindowOperator(
            spec.assigner,
            spec.aggregator,
            spec.allowed_lateness,
            key_column=spec.key_column,
        )
    if spec.kind == "join":
        return WindowJoinOperator(
            spec.assigner, spec.join_fn, allowed_lateness=spec.allowed_lateness
        )
    if spec.kind == "interval_join":
        return IntervalJoinOperator(
            spec.join_lower,
            spec.join_upper,
            spec.join_fn,
            allowed_lateness=spec.allowed_lateness,
            state_ttl=spec.state_ttl,
            spill_budget_bytes=spec.spill_budget_bytes,
        )
    raise OperatorError(f"no runtime operator for kind {spec.kind!r}")
