"""One lateness-boundary suite for every event-time operator.

``EventTimeOperator`` owns the rule, so every window and join must show
the same three facts, whatever its horizon is and however records reach
it (per-record ``process`` or a ``RecordBatch`` through the columnar
kernel, where the operator has one):

1. a record whose ``horizon + allowed_lateness == watermark`` exactly is
   dropped — admission is strict;
2. a record just inside the boundary is admitted and reaches a fire (a
   pair, for the joins), even when it arrives after its window's end;
3. ``late_dropped`` rises by exactly one per dropped record — never per
   expired window, never for a record that still has a live window.
"""

import math
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.columnar import ColumnBatch
from repro.common.errors import OperatorError
from repro.flink.operators import (
    IntervalJoinOperator,
    WindowJoinOperator,
    WindowOperator,
)
from repro.flink.time import RecordBatch, StreamRecord, Watermark
from repro.flink.windows import (
    CountAggregate,
    SessionWindows,
    SlidingWindows,
    TumblingWindows,
)

TS = 12.0  # the probed record's event time
KEY = "k"


def _pair(left, right):
    return (left, right)


@dataclass(frozen=True)
class Case:
    """One operator shape: how to build it, the horizon of the probed
    record (event time ``TS``, input ``probe``), and — for a join — the
    ``(input, timestamp)`` of a partner that pairs with it and is itself
    still admissible whenever the probed record is."""

    name: str
    make: Callable[[float], Any]
    horizon: float
    probe: int = 0
    partner: tuple[int, float] | None = None
    columnar: bool = False

    def feed(self, op, input_index=None, timestamp=TS) -> list:
        """Deliver one record; returns what the operator emitted."""
        if input_index is None:
            input_index = self.probe
        if not self.columnar:
            return op.process(StreamRecord("v", timestamp, KEY), input_index)
        batch = ColumnBatch.from_columns({"k": [KEY], "v": ["v"]})
        out = op.process_columnar(RecordBatch(batch, (timestamp,)), input_index)
        assert out is not None, "operator refused the columnar feed"
        return out


def _window(assigner_factory, columnar=False):
    def make(lateness):
        return WindowOperator(
            assigner_factory(),
            CountAggregate(),
            allowed_lateness=lateness,
            key_column="k" if columnar else None,
        )

    return make


def _window_join(assigner_factory):
    return lambda lateness: WindowJoinOperator(
        assigner_factory(), _pair, allowed_lateness=lateness
    )


def _interval_join(lateness):
    return IntervalJoinOperator(-10.0, 0.0, _pair, allowed_lateness=lateness)


def tumbling():
    return TumblingWindows(10.0)


def sliding():
    return SlidingWindows(10.0, 5.0)


def session():
    return SessionWindows(10.0)


CASES = [
    # A record at 12 lives in [10, 20); sliding adds [5, 15), and the
    # horizon is the end of the LAST window to close.
    Case("tumbling", _window(tumbling), 20.0),
    Case("sliding", _window(sliding), 20.0),
    Case("session", _window(session), 22.0),
    Case("tumbling-columnar", _window(tumbling, columnar=True), 20.0, columnar=True),
    Case("sliding-columnar", _window(sliding, columnar=True), 20.0, columnar=True),
    Case("window-join", _window_join(tumbling), 20.0, partner=(1, TS)),
    Case("window-join-sliding", _window_join(sliding), 20.0, partner=(1, TS)),
    # lower=-10, upper=0: a left at 12 can pair until 22 (with a right
    # at 22); a right pairs only with lefts at or before its own time,
    # so its horizon is its timestamp.
    Case("interval-join-left", _interval_join, 22.0, partner=(1, 22.0)),
    Case("interval-join-right", _interval_join, 12.0, probe=1, partner=(0, TS)),
]

LATENESS = [0.0, 5.0]


def _emitted_values(elements) -> list:
    """Flatten fired elements (records or a columnar batch of results)."""
    values = []
    for element in elements:
        if isinstance(element, RecordBatch):
            vector = element.batch.columns["__value__"]
            values.extend(vector.get(i) for i in element.row_indices())
        else:
            values.append(element.value)
    return values


@pytest.mark.parametrize("lateness", LATENESS)
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
class TestLatenessBoundary:
    def test_record_exactly_at_the_boundary_is_dropped(self, case, lateness):
        op = case.make(lateness)
        op.on_watermark(Watermark(case.horizon + lateness))
        assert case.feed(op) == []
        assert op.late_dropped == 1
        # The dropped record contributes to nothing, ever: no fire, and no
        # pair with a partner that is itself on time.
        emitted = []
        if case.partner is not None:
            emitted += case.feed(op, *case.partner)
        emitted += op.on_watermark(Watermark(float("inf")))
        assert _emitted_values(emitted) == []

    def test_record_just_inside_is_admitted_and_reaches_a_fire(self, case, lateness):
        op = case.make(lateness)
        boundary = case.horizon + lateness
        op.on_watermark(Watermark(boundary - 0.5))
        emitted = case.feed(op)
        if case.partner is not None:
            emitted += case.feed(op, *case.partner)
        assert op.late_dropped == 0
        # State closes on the same predicate that admits: not a moment
        # before the boundary, and exactly at it.
        assert op.on_watermark(Watermark(boundary - 0.25)) == []
        emitted += op.on_watermark(Watermark(boundary))
        values = _emitted_values(emitted)
        if case.partner is not None:
            assert values == [("v", "v")]
        else:
            assert [result.value for result in values] == [1]

    def test_late_dropped_rises_by_one_per_dropped_record(self, case, lateness):
        op = case.make(lateness)
        op.on_watermark(Watermark(case.horizon + lateness))
        for expected in (1, 2, 3):
            case.feed(op)
            assert op.late_dropped == expected


class TestLatenessIsNonNegative:
    """Negative lateness would close a window before its end: a record at
    6 in [0, 10) counted late at watermark 5.  The owner refuses it for
    every window and join alike; zero stays legal (the suite above)."""

    @pytest.mark.parametrize("lateness", [-20.0, -math.inf, math.nan])
    @pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
    def test_rejected_at_construction(self, case, lateness):
        with pytest.raises(OperatorError, match="allowed lateness"):
            case.make(lateness)


class TestPartiallyExpiredRecord:
    """Sliding windows: a record some of whose windows have closed still
    has a live one, so it is admitted there and is NOT late."""

    @pytest.mark.parametrize(
        "case", [c for c in CASES if "sliding" in c.name], ids=lambda c: c.name
    )
    def test_not_counted_while_one_window_is_open(self, case):
        op = case.make(0.0)
        op.on_watermark(Watermark(15.0))  # [5, 15) closed, [10, 20) open
        emitted = case.feed(op)
        if case.partner is not None:
            emitted += case.feed(op, *case.partner)
        assert op.late_dropped == 0
        emitted += op.on_watermark(Watermark(float("inf")))
        assert len(_emitted_values(emitted)) == 1  # the one live window fires


class TestSessionLateness:
    def test_late_record_opens_no_second_session(self):
        op = WindowOperator(SessionWindows(10.0), CountAggregate())
        op.process(StreamRecord(1, 1.0, KEY))
        fired = op.on_watermark(Watermark(100.0))
        assert [r.value.value for r in fired] == [1]
        # Would-be session [2, 12) closed long ago and merges into nothing.
        op.process(StreamRecord(1, 2.0, KEY))
        assert op.late_dropped == 1
        assert op.on_watermark(Watermark(200.0)) == []

    def test_late_record_extending_a_live_session_is_admitted(self):
        op = WindowOperator(SessionWindows(10.0), CountAggregate())
        op.process(StreamRecord(1, 20.0, KEY))  # session [20, 30)
        op.on_watermark(Watermark(25.0))
        # [9, 19) alone is expired, but [11, 21) overlaps the live session.
        op.process(StreamRecord(1, 9.0, KEY))
        op.process(StreamRecord(1, 11.0, KEY))
        assert op.late_dropped == 1
        fired = op.on_watermark(Watermark(float("inf")))
        assert [(r.value.window.start, r.value.value) for r in fired] == [(11.0, 2)]
