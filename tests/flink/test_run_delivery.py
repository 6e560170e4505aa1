"""A delivery is one operator call: a run folds as its records one by one.

The runtime hands an operator a micro-batched run of records from one
input in a single ``process`` call.  What a run does must not depend on
how the stream was cut into runs: the outputs (value, timestamp, key and
the very trace object), ``late_dropped``, ``evicted`` and the checkpoint
bytes equal those of the same records delivered one at a time, through
ties, out-of-order and late records, both join inputs and interleaved
watermarks.  A record that raises part-way leaves the state its prefix
produced.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FlinkError
from repro.flink.operators import (
    IntervalJoinOperator,
    WindowJoinOperator,
    WindowOperator,
)
from repro.flink.time import StreamRecord, Watermark
from repro.flink.windows import (
    SessionWindows,
    SlidingWindows,
    SumAggregate,
    TumblingWindows,
)
from repro.observability.trace import TraceContext


def _pair(left, right):
    return (left, right)


OPERATORS = {
    "interval_join": lambda: IntervalJoinOperator(
        -3.0, 1.0, _pair, allowed_lateness=1.0, state_ttl=6.0
    ),
    "tumbling": lambda: WindowOperator(
        TumblingWindows(4.0), SumAggregate(float), allowed_lateness=1.0
    ),
    "sliding": lambda: WindowOperator(
        SlidingWindows(4.0, 2.0), SumAggregate(float), allowed_lateness=1.0
    ),
    "session": lambda: WindowOperator(
        SessionWindows(2.0), SumAggregate(float), allowed_lateness=1.0
    ),
    "window_join": lambda: WindowJoinOperator(
        TumblingWindows(4.0), _pair, allowed_lateness=1.0
    ),
}
TWO_INPUT = {"interval_join", "window_join"}

#: A few shared traces, so identity (not equality) can be compared.
TRACES = [None, TraceContext("t0", 0.0, 0.0), TraceContext("t1", 1.0, 0.5)]

records = st.builds(
    StreamRecord,
    value=st.integers(0, 9),
    # Half-second steps over a short span: ties and out-of-order arrivals
    # are common, and watermarks below make some of them late.
    timestamp=st.integers(0, 24).map(lambda half: half / 2),
    key=st.sampled_from("ab"),
    trace=st.sampled_from(TRACES),
)
steps = st.one_of(
    st.tuples(st.just("run"), st.integers(0, 1), st.lists(records, max_size=6)),
    st.tuples(st.just("watermark"), st.integers(0, 24).map(lambda half: half / 2)),
)


def _drive(op, script, split: bool) -> list:
    """Feed the script as runs, or ``split`` into one-record runs; returns
    every emitted record as (value, timestamp, key, trace identity)."""
    out = []
    for step in script:
        if step[0] == "watermark":
            emitted = op.on_watermark(Watermark(step[1]))
        else:
            __, input_index, run = step
            pieces = [[record] for record in run] if split else [run]
            emitted = [r for piece in pieces for r in op.process(piece, input_index)]
        out.extend((r.value, r.timestamp, r.key, id(r.trace)) for r in emitted)
    return out


@pytest.mark.parametrize("kind", OPERATORS)
@given(script=st.lists(steps, max_size=30))
@settings(max_examples=150, deadline=None)
def test_a_run_folds_as_its_records_one_at_a_time(kind, script):
    if kind not in TWO_INPUT:
        script = [s if s[0] == "watermark" else ("run", 0, s[2]) for s in script]
    script.append(("watermark", math.inf))
    batched, single = OPERATORS[kind](), OPERATORS[kind]()
    assert _drive(batched, script, split=False) == _drive(single, script, split=True)
    assert batched.late_dropped == single.late_dropped
    assert getattr(batched, "evicted", 0) == getattr(single, "evicted", 0)
    assert batched.snapshot() == single.snapshot()


def test_the_property_sees_late_records_and_pairs():
    # The generated scripts bite: one fixed script drops a late record on
    # each join input and emits pairs.
    script = [
        ("run", 0, [StreamRecord(1, 5.0, "a"), StreamRecord(2, 5.0, "a")]),
        ("run", 1, [StreamRecord(3, 5.0, "a"), StreamRecord(4, 4.5, "a")]),
        ("watermark", 9.0),
        ("run", 0, [StreamRecord(5, 1.0, "a"), StreamRecord(6, 9.5, "a")]),
        ("run", 1, [StreamRecord(7, 1.0, "a"), StreamRecord(8, 9.5, "a")]),
        ("watermark", math.inf),
    ]
    batched, single = OPERATORS["interval_join"](), OPERATORS["interval_join"]()
    out = _drive(batched, script, split=False)
    assert out == _drive(single, script, split=True)
    assert len(out) == 5 and batched.late_dropped == single.late_dropped == 2
    assert batched.evicted == single.evicted > 0


@pytest.mark.parametrize(
    "kind, input_index",
    [
        ("interval_join", 0),
        ("interval_join", 1),
        ("tumbling", 0),
        ("sliding", 0),
        ("session", 0),
    ],
)
def test_a_nan_mid_run_raises_and_keeps_the_prefix(kind, input_index):
    prefix = [
        StreamRecord(1, 6.0, "a", TRACES[1]),
        StreamRecord(2, 0.5, "b"),  # late against the watermark below
        StreamRecord(3, 6.5, "b", TRACES[2]),
    ]
    whole, reference = OPERATORS[kind](), OPERATORS[kind]()
    for op in (whole, reference):
        op.on_watermark(Watermark(5.0))
        op.process([StreamRecord(0, 5.0, "a")], 1 - input_index)
    with pytest.raises(FlinkError, match="finite, got nan"):
        whole.process(
            prefix + [StreamRecord(4, math.nan, "a"), StreamRecord(5, 7.0, "a")],
            input_index,
        )
    reference.process(prefix, input_index)
    assert whole.late_dropped == reference.late_dropped == 1
    assert whole.snapshot() == reference.snapshot()
    # Both go on alike: the raise left no half-written bookkeeping.
    later = [StreamRecord(6, 7.0, "a")]
    assert [r.value for r in whole.process(later, 1 - input_index)] == [
        r.value for r in reference.process(later, 1 - input_index)
    ]
    script = [("watermark", math.inf)]
    assert _drive(whole, script, split=False) == _drive(reference, script, False)
    assert whole.snapshot() == reference.snapshot()
