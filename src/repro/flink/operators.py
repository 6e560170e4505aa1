"""Operator implementations: sources, transforms, windows, joins, sinks.

Each operator follows a small contract used by the runtime:

* ``process(records, input_index) -> list[StreamRecord]``: one call per
  delivered run of records from one input, folded in order
* ``on_watermark(watermark) -> list[StreamRecord]`` (fire timers/windows)
* ``snapshot() -> bytes`` / ``restore(bytes)`` for checkpointing

A run raising part-way leaves the state its prefix produced and emits
nothing.

Every data element is a :class:`~repro.flink.time.StreamRecord`: sources
read records, operators process and emit records, sinks write records.

Two owners hold the rules that several classes share:
:class:`EventTimeOperator` (lateness, late-drop accounting, trace
carry-over and the checkpoint envelope of every window/join operator)
and :class:`SourceReader` (a reader's derived watermark/idleness state
and its reset on restore).  Window and join operators keep their
contents in a :class:`~repro.flink.state.KeyedStateBackend`, so their
state is checkpointable and measurable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isfinite
from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.common import serde
from repro.common.errors import OperatorError
from repro.common.perf import PERF
from repro.common.records import Record
from repro.flink.state import KeyedStateBackend, _key_from_wire, _key_to_wire
from repro.flink.time import (
    BoundedOutOfOrdernessWatermarks,
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
from repro.observability.trace import (
    EntryScope,
    SpanCollector,
    TraceContext,
    element_trace,
)


class Operator:
    """Base class; stateless pass-through."""

    def __init__(self) -> None:
        self.state = KeyedStateBackend()

    def process(self, records: list[StreamRecord], input_index: int = 0) -> list[Any]:
        raise NotImplementedError

    def on_watermark(self, watermark: Watermark) -> list[Any]:
        return []

    def snapshot(self) -> bytes:
        return self.state.snapshot()

    def restore(self, data: bytes) -> None:
        self.state.restore(data)


class KeysOwnOutput:
    """A part of a task that builds every record it outputs: the source
    readers, map, flat_map and the interval join.

    When the task's only out edge is a hash edge, the runtime hands it
    that edge's key function as ``out_key_fn`` at wiring, and each output
    record is built keyed by it, so the edge routes the record it was
    given instead of copying it to re-key it.  A key function that raises
    raises inside the poll or the ``process`` call, which then emits
    nothing.  ``None`` keeps the key the record would carry anyway.
    """

    out_key_fn: Callable[[Any], Any] | None = None


class MapOperator(KeysOwnOutput, Operator):
    def __init__(self, fn: Callable[[Any], Any]) -> None:
        super().__init__()
        self.fn = fn

    def process(self, records: list[StreamRecord], input_index: int = 0) -> list[Any]:
        fn, key_fn = self.fn, self.out_key_fn
        out: list[StreamRecord] = []
        for record in records:
            try:
                value = fn(record.value)
            except Exception as exc:
                raise OperatorError(f"map function failed: {exc}") from exc
            key = record.key if key_fn is None else key_fn(value)
            out.append(
                StreamRecord(value, record.timestamp, key, record.trace, record.scope)
            )
        return out


class FilterOperator(Operator):
    def __init__(self, fn: Callable[[Any], bool]) -> None:
        super().__init__()
        self.fn = fn

    def process(self, records: list[StreamRecord], input_index: int = 0) -> list[Any]:
        fn = self.fn
        try:
            return [record for record in records if fn(record.value)]
        except Exception as exc:
            raise OperatorError(f"filter function failed: {exc}") from exc


class FlatMapOperator(KeysOwnOutput, Operator):
    def __init__(self, fn: Callable[[Any], list[Any]]) -> None:
        super().__init__()
        self.fn = fn

    def process(self, records: list[StreamRecord], input_index: int = 0) -> list[Any]:
        fn, key_fn = self.fn, self.out_key_fn
        out: list[StreamRecord] = []
        for record in records:
            try:
                values = list(fn(record.value))
            except Exception as exc:
                raise OperatorError(f"flat_map function failed: {exc}") from exc
            timestamp, key = record.timestamp, record.key
            trace, scope = record.trace, record.scope
            for value in values:
                if key_fn is not None:
                    key = key_fn(value)
                out.append(StreamRecord(value, timestamp, key, trace, scope))
        return out


class ProcessOperator(Operator):
    """Escape hatch: ``fn(record, state, emit)`` with keyed state access."""

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def process(self, records: list[StreamRecord], input_index: int = 0) -> list[Any]:
        out: list[StreamRecord] = []

        def emit(value: Any, key: Any = None) -> None:
            # Stamped like the record ``fn`` is handling when it calls.
            out.append(
                StreamRecord(value, record.timestamp, key, record.trace, record.scope)
            )

        fn, state = self.fn, self.state
        try:
            for record in records:
                fn(record, state, emit)
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
    * **Traces.**  ``_traces`` keeps one representative traced record
      per state key, the latest contributing one (a reference to a record
      it was handed, never a copy); a fire pops it and stamps its trace
      onto what it emits (:meth:`_traced`).
    * **Checkpoints.**  One envelope holds the watermark,
      ``late_dropped``, the traces (with the time each entered the job,
      so a restored fire still records its ``process`` span), whatever
      attributes the subclass names in ``checkpointed`` and the keyed
      state, so a restored operator judges, counts and attributes
      exactly as the original.
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

    @staticmethod
    def _traced(value: Any, timestamp: float, key: Any, kept: Any) -> StreamRecord:
        """An output record stamped with the trace of ``kept``, a record
        from ``_traces`` (or ``None``)."""
        if kept is None:
            return StreamRecord(value, timestamp, key)
        return StreamRecord(value, timestamp, key, kept.trace, kept.scope)

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
        traces = []
        for key, kept in self._traces.items():
            t = element_trace(kept.trace, kept.scope)
            traces.append([_key_to_wire(key), t.trace_id, t.origin_event_time, t.entered])
        meta = {
            "watermark": self.current_watermark,
            "late_dropped": self.late_dropped,
            "traces": traces,
        }
        for name in self.checkpointed:
            meta[name] = getattr(self, name)
        return serde.encode({"meta": meta, "state": self.state.snapshot()})

    def restore(self, data: bytes) -> None:
        payload = serde.decode(data)
        meta = payload["meta"]
        self.current_watermark = meta["watermark"]
        self.late_dropped = meta["late_dropped"]
        # A restored trace is kept the way a live one is: as a record
        # carrying it.
        self._traces = {
            _key_from_wire(key): StreamRecord(None, 0.0, None, TraceContext(*trace))
            for key, *trace in meta["traces"]
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
    ) -> None:
        super().__init__(allowed_lateness)
        self.assigner = assigner
        self.aggregator = aggregator
        self._session = assigner.is_session()

    def process(self, records: list[StreamRecord], input_index: int = 0) -> list[Any]:
        """Admit each record and fold it into the state of its open windows.

        The tumbling and sliding folds judge lateness with
        :meth:`_expired`'s predicate inline; sessions merge per record.
        """
        assign = self.assigner.assign
        aggregator = self.aggregator
        if self._session:
            for record in records:
                window = assign(record.timestamp)[0]
                acc = aggregator.add(record.value, aggregator.create_accumulator())
                self._add_to_session(
                    record.key, window, acc, record if record.trace is not None else None
                )
            return []
        add, create = aggregator.add, aggregator.create_accumulator
        lateness, watermark = self.allowed_lateness, self.current_watermark
        traces = self._traces
        tables = self.state.tables
        accs = tables.get("acc")
        late = 0
        try:
            for record in records:
                windows = assign(record.timestamp)
                if len(windows) == 1:  # tumbling: nothing to filter
                    if windows[0].end + lateness <= watermark:
                        late += 1
                        continue
                else:
                    windows = [w for w in windows if not w.end + lateness <= watermark]
                    if not windows:
                        late += 1
                        continue
                if accs is None:
                    accs = tables["acc"] = {}
                key, value, traced = record.key, record.value, record.trace is not None
                for window in windows:
                    state_key = (key, window.start, window.end)
                    acc = accs.get(state_key)
                    accs[state_key] = add(value, create() if acc is None else acc)
                    if traced:
                        traces[state_key] = record
        finally:
            self.late_dropped += late
        return []

    def _add_to_session(
        self, key: Any, window: TimeWindow, acc: Any, traced: StreamRecord | None
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
                    traced = traced or absorbed
                    merged = extends = True
                    break
        if not extends and self._late(end):
            return
        self.state.put("acc", (key, start, end), acc)
        if traced is not None:
            self._traces[(key, start, end)] = traced

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
                self._traced(result, end, key, self._traces.pop(state_key, None))
            )
            self.state.remove("acc", state_key)
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

    def process(self, records: list[StreamRecord], input_index: int = 0) -> list[Any]:
        side = "left" if input_index == 0 else "right"
        assign, append = self.assigner.assign, self.state.append
        for record in records:
            for window in self._admit(assign(record.timestamp)):
                state_key = (record.key, window.start, window.end)
                append(side, state_key, record.value)
                if record.trace is not None:
                    self._traces[state_key] = record
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
            kept = self._traces.pop(state_key, None)
            lefts = self.state.get_list("left", state_key)
            rights = self.state.get_list("right", state_key)
            for left in lefts:
                for right in rights:
                    fired.append(
                        self._traced(self.join_fn(left, right), end, key, kept)
                    )
            self.state.remove("left", state_key)
            self.state.remove("right", state_key)
        return fired


_deadline_of = itemgetter(0)


class IntervalJoinOperator(KeysOwnOutput, EventTimeOperator):
    """Per-key time-bounded join: emits ``join_fn(left, right)`` for every
    pair sharing a key with ``left.ts ∈ [right.ts + lower, right.ts +
    upper]`` (equivalently ``left.ts - right.ts ∈ [lower, upper]``).

    Unlike the window join there is no window boundary to straddle: a
    prediction made at 11:59 still joins its outcome at 12:04.  Pairs are
    emitted eagerly when the second side arrives, stamped at ``max(left.ts,
    right.ts)`` — the event time at which the pair became complete.

    **State + eviction.**  Both sides buffer each key's entries in one
    flat list of keyed state, ``[ts₀, seq₀, value₀, ts₁, seq₁, value₁,
    …]`` in arrival order: state that outlives a step holds no container
    per record, so a full buffer adds nothing for the collector to walk
    but the record values themselves.  A buffered record's *join
    horizon* is the latest event time of any pair it can still complete:
    ``ts + max(0, -lower)`` for a left, ``ts + max(0, upper)`` for a
    right; a record is late once its horizon has expired.  An entry is
    evicted once the watermark
    passes ``max(horizon + allowed_lateness, ts + state_ttl)`` — the TTL
    can only *extend* retention past the join horizon (for late
    observers and state reads), never truncate it, so TTL eviction can
    never drop a still-joinable record.  Per side that deadline is the
    entry's timestamp plus a constant, so arrivals come in nearly
    deadline order, and each side keeps its ``(deadline, seq, key)``
    entries as a few runs, each sorted by deadline.  ``process`` appends
    to the side's pending list; a fire sorts it into a run (extending
    the last run when it starts at or after that run's end, else merging
    the last two runs while the older is no longer, which keeps the runs
    few), then cuts each run's due prefix by bisection.  No heap orders
    the entries: a fire touches only what it sorts and what it evicts.
    The runs are derived state, rebuilt from the buffers on restore.  An
    evicted entry's three slots are deleted from its key's list in place,
    found by its seq (read only at seq slots: a ``ts`` or a value may
    equal it), and the key leaves state when its list empties.

    **Output key.**  Pairs carry the join key, unless the runtime hands
    the operator ``out_key_fn`` (:class:`KeysOwnOutput`).

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
        if not (isfinite(lower) and isfinite(upper)):
            raise OperatorError(
                f"interval join bounds must be finite, got [{lower}, {upper}]"
            )
        if lower > upper:
            raise OperatorError(
                f"interval join bounds inverted: lower {lower} > upper {upper}"
            )
        if state_ttl is not None and not state_ttl >= 0:  # also NaN
            raise OperatorError(f"state TTL must be >= 0, got {state_ttl}")
        if spill_budget_bytes is not None and not spill_budget_bytes > 0:
            raise OperatorError(
                f"spill budget must be > 0 bytes, got {spill_budget_bytes}"
            )
        self.lower = lower
        self.upper = upper
        self.join_fn = join_fn
        self.state_ttl = state_ttl
        self.spill_budget_bytes = spill_budget_bytes
        # How far past its own timestamp each side can still complete a pair.
        self._reach = {"left": max(0.0, -lower), "right": max(0.0, upper)}
        self.evicted = 0
        self._seq = 0
        # Per side, runs of (deadline, seq, key) sorted by deadline, and
        # what ``process`` buffered since the last fire; seq breaks ties
        # so keys are never compared (they may be mixed types).
        self._runs: dict[str, list[list]] = {"left": [], "right": []}
        self._pending: dict[str, list] = {"left": [], "right": []}

    # -- time bounds ---------------------------------------------------------

    def _deadline(self, horizon: float, timestamp: float) -> float:
        """When an entry with this join horizon leaves the buffer."""
        deadline = horizon + self.allowed_lateness
        if self.state_ttl is not None:
            deadline = max(deadline, timestamp + self.state_ttl)
        return deadline

    # -- dataflow ------------------------------------------------------------

    def process(self, records: list[StreamRecord], input_index: int = 0) -> list[Any]:
        """Judge, probe and buffer each record of one input's run in order.

        The loop inlines the join horizon, :meth:`_expired`'s lateness
        predicate and :meth:`_deadline`; nothing it reads changes within
        a run but the own side's buffer, the traces and the pending list.
        """
        is_left = input_index == 0
        side, other = ("left", "right") if is_left else ("right", "left")
        reach = self._reach[side]
        # Bounds on ``timestamp - other_ts``: a right arrival negates them
        # (exact in floating point, as swapping a difference's operands is).
        lo, hi = (self.lower, self.upper) if is_left else (-self.upper, -self.lower)
        join_fn, out_key_fn = self.join_fn, self.out_key_fn
        lateness, watermark = self.allowed_lateness, self.current_watermark
        ttl = self.state_ttl
        tables = self.state.tables
        mine = tables.get(side)  # appears at its first append
        theirs = tables.get(other) or {}
        traces = self._traces
        pending = self._pending[side]
        out: list[StreamRecord] = []
        seq = self._seq
        late = probes = 0
        try:
            for record in records:
                timestamp = record.timestamp
                horizon = timestamp + reach
                if not isfinite(horizon):  # a NaN deadline would wedge eviction
                    raise non_finite_event_time(timestamp)
                deadline = horizon + lateness
                if deadline <= watermark:
                    late += 1
                    continue
                key, value = record.key, record.value
                if record.trace is not None:
                    traces[key] = record
                buffered = theirs.get(key)
                if buffered:
                    probes += len(buffered)  # slots: three per entry
                    # The record was kept just above if traced, so one
                    # lookup serves every pair: its trace, else the key's.
                    kept = traces.get(key)
                    trace = scope = None
                    if kept is not None:
                        trace, scope = kept.trace, kept.scope
                    for i in range(0, len(buffered), 3):
                        other_ts = buffered[i]
                        if lo <= timestamp - other_ts <= hi:
                            other_value = buffered[i + 2]
                            pair = (
                                join_fn(value, other_value)
                                if is_left
                                else join_fn(other_value, value)
                            )
                            completed = other_ts if other_ts > timestamp else timestamp
                            out.append(StreamRecord(
                                pair,
                                completed,
                                key if out_key_fn is None else out_key_fn(pair),
                                trace,
                                scope,
                            ))
                if mine is None:
                    mine = tables[side] = {}
                entries = mine.get(key)
                if entries is None:
                    mine[key] = [timestamp, seq, value]
                else:
                    entries += (timestamp, seq, value)
                if ttl is not None and timestamp + ttl > deadline:
                    deadline = timestamp + ttl
                pending.append((deadline, seq, key))
                seq += 1
        finally:
            appended = seq - self._seq
            self._seq = seq
            self.late_dropped += late
            if PERF.enabled:
                if probes:
                    PERF.inc("flink.join_probes", probes // 3)
                if appended:
                    PERF.inc("flink.join_state_appends", appended)
                if out:
                    PERF.inc("flink.join_rows_out", len(out))
        return out

    def _fire(self) -> list[Any]:
        watermark = self.current_watermark
        tables = self.state.tables
        traces = self._traces
        evicted = 0
        for side, other in (("left", "right"), ("right", "left")):
            runs, pending = self._runs[side], self._pending[side]
            if pending:
                self._pending[side] = []
                pending.sort()
                if runs and runs[-1][-1] <= pending[0]:
                    runs[-1] += pending
                else:
                    runs.append(pending)
                    while len(runs) > 1 and len(runs[-2]) <= len(runs[-1]):
                        last = runs.pop()
                        runs[-1] += last
                        runs[-1].sort()  # two sorted runs: one linear merge
            due: list = []
            for run in runs:
                n = bisect_right(run, watermark, key=_deadline_of)
                if n:
                    due += run[:n]
                    del run[:n]
            if not due:
                continue
            runs[:] = [run for run in runs if run]
            table, theirs = tables[side], tables.get(other, ())
            for __, seq, key in due:
                entries = table[key]
                # Almost always the key's oldest; deleting in place keeps order.
                if entries[1] == seq:
                    del entries[:3]
                else:
                    i = 3 * entries[1::3].index(seq)
                    del entries[i:i + 3]
                if not entries:
                    del table[key]
                    if key not in theirs:
                        traces.pop(key, None)
            evicted += len(due)
        if evicted:
            self.evicted += evicted
            if PERF.enabled:
                PERF.inc("flink.join_evictions", evicted)
        return []

    # -- memory-pressure signal ----------------------------------------------

    def spill_pressure(self) -> float:
        """Buffered join state as a fraction of the spill budget.

        >= 1.0 means the operator would have to spill; the AutoScaler
        treats that as an immediate scale-up signal.
        """
        if self.spill_budget_bytes is None:
            return 0.0
        return self.state.size_bytes() / self.spill_budget_bytes

    def restore(self, data: bytes) -> None:
        super().restore(data)
        # The eviction runs are derived state: every deadline is a pure
        # function of (side, ts), so rebuild them from the buffers.
        for side in ("left", "right"):
            reach = self._reach[side]
            run = sorted(
                (self._deadline(ts + reach, ts), seq, key)
                for key, entries in self.state.tables.get(side, {}).items()
                for ts, seq in zip(entries[::3], entries[1::3])
            )
            self._runs[side] = [run] if run else []
            self._pending[side] = []


# --- sources ----------------------------------------------------------------


class SourceReader(KeysOwnOutput):
    """The one owner of a source reader's *derived* progress.

    Subclasses say where records come from — :meth:`_read`,
    :meth:`_seek`, ``snapshot`` and ``lag`` — and feed the timestamps
    they read to ``self.watermarks``.  What follows from the records
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

    def _read(self, max_records: int, entered: float | None) -> list[Any]:
        """Next StreamRecords, advancing the position and
        ``self.watermarks``; a reader over a Kafka log stamps each with
        the entry it read and the poll's :class:`EntryScope` (``entered``
        the job then), unless ``entered`` is ``None`` (the job is
        untraced)."""
        raise NotImplementedError

    def _seek(self, data: dict[str, Any]) -> None:
        """Rewind the position to a ``snapshot()``."""
        raise NotImplementedError

    def poll(self, max_records: int = 100, entered: float | None = None) -> list[Any]:
        """Next batch of elements: the data read plus a trailing Watermark
        when event time advanced, or an idleness / end-of-input marker."""
        out = self._read(max_records, entered)
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

    def _read(self, max_records: int, entered: float | None) -> list[Any]:
        """A poll consumes all it read or, if reading raises, nothing: the
        positions and the watermark move only once the poll is built."""
        out: list[Any] = []
        if not self.partitions:
            return out
        cluster, topic = self.source.cluster, self.source.topic
        timestamp_fn = self.source.timestamp_fn
        budget = max(1, max_records // len(self.partitions))
        positions: dict[int, int] = {}
        max_timestamp = float("-inf")
        key_fn = self.out_key_fn
        traced = entered is not None
        for partition in self.partitions:
            entries = cluster.fetch(topic, partition, self.positions[partition], budget)
            # One scope per poll and partition; the entries are the traces.
            scope = EntryScope(topic, partition, entered) if traced and entries else None
            for entry in entries:
                record: Record = entry.record
                value = record.value
                timestamp = (
                    record.event_time if timestamp_fn is None else timestamp_fn(value)
                )
                # The generator's own rule, so a NaN is skipped as there.
                if timestamp > max_timestamp:
                    max_timestamp = timestamp
                out.append(
                    StreamRecord(
                        value,
                        timestamp,
                        record.key if key_fn is None else key_fn(value),
                        entry if traced else None,
                        scope,
                    )
                )
            if entries:
                positions[partition] = entries[-1].offset + 1
        self.positions.update(positions)
        self.watermarks.on_event(max_timestamp)
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

    def _read(self, max_records: int, entered: float | None) -> list[Any]:
        """A poll consumes all it read or, if a key function raises,
        nothing: the position and the watermark move once it is built."""
        out: list[Any] = []
        key_fn = self.out_key_fn
        batch = self.elements[self.position : self.position + self.source.batch_size]
        max_timestamp = float("-inf")
        for element in batch:
            value, timestamp, *rest = element
            if key_fn is not None:
                key = key_fn(value)
            else:
                key = rest[0] if rest else None
            # The generator's own rule, so a NaN is skipped as there.
            if timestamp > max_timestamp:
                max_timestamp = timestamp
            out.append(StreamRecord(value, timestamp, key))
        self.position += len(batch)
        self.watermarks.on_event(max_timestamp)
        return out


# --- sinks ------------------------------------------------------------------


@dataclass
class CollectSink:
    """Appends every result to a caller-provided list."""

    collector: list

    def write(self, record: StreamRecord) -> None:
        self.collector.append(record.value)

    def flush(self) -> None:
        pass


class KafkaSink:
    """Produces results to a Kafka topic (FlinkSQL -> Pinot path, §4.3.3).

    The runtime hands a sink one delivery at a time — a micro-batched
    run of records, or a committed 2PC transaction — and calls
    :meth:`flush` after its last :meth:`write`.  ``write`` buffers a
    record in the internal producer and ``flush`` sends the delivery as
    one producer batch per partition (a keyless delivery fills one
    sticky partition, as Kafka batches).  A flush that fails drops what
    it did not send, so nothing carries into the next delivery or past
    :meth:`on_restore`.

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
        trace, scope = record.trace, record.scope
        if trace is None:
            headers = None
        elif scope is None:
            headers = trace.to_headers()
        else:
            headers = scope.headers_of(trace)
        self._producer.send(
            self.topic, value, key=key, event_time=record.timestamp, headers=headers
        )

    def flush(self) -> None:
        """Send the delivery the writes since the last flush buffered."""
        try:
            self._producer.flush()
        except BaseException:
            self._producer.discard()
            raise


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
        return WindowOperator(spec.assigner, spec.aggregator, spec.allowed_lateness)
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
