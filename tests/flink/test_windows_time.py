import math

import pytest

from repro.common.errors import FlinkError
from repro.flink.time import BoundedOutOfOrdernessWatermarks
from repro.flink.windows import (
    AvgAggregate,
    CollectAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SessionWindows,
    SlidingWindows,
    SumAggregate,
    TumblingWindows,
)


class TestWatermarks:
    def test_tracks_max_minus_slack(self):
        generator = BoundedOutOfOrdernessWatermarks(5.0)
        generator.on_event(10.0)
        generator.on_event(8.0)  # out of order, ignored for max
        assert generator.current_watermark() == 5.0
        generator.on_event(20.0)
        assert generator.current_watermark() == 15.0

    def test_initial_watermark_is_minus_inf(self):
        assert BoundedOutOfOrdernessWatermarks().current_watermark() == -math.inf

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            BoundedOutOfOrdernessWatermarks(-1.0)


class TestAssigners:
    def test_tumbling_assigns_one_window(self):
        windows = TumblingWindows(60.0).assign(125.0)
        assert len(windows) == 1
        assert (windows[0].start, windows[0].end) == (120.0, 180.0)

    def test_tumbling_boundary_belongs_to_next(self):
        window = TumblingWindows(60.0).assign(60.0)[0]
        assert window.start == 60.0

    def test_tumbling_invalid_size(self):
        with pytest.raises(FlinkError):
            TumblingWindows(0)

    def test_sliding_assigns_overlapping(self):
        windows = SlidingWindows(60.0, 20.0).assign(65.0)
        starts = sorted(w.start for w in windows)
        assert starts == [20.0, 40.0, 60.0]
        assert all(w.start <= 65.0 < w.end for w in windows)

    def test_sliding_slide_greater_than_size_rejected(self):
        with pytest.raises(FlinkError):
            SlidingWindows(10.0, 20.0)

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "assigner", [TumblingWindows(60.0), SlidingWindows(60.0, 20.0)], ids=type
    )
    def test_non_finite_event_time_is_a_flink_error(self, assigner, timestamp):
        before = assigner.assign(30.0)  # remembered: must not answer for NaN
        with pytest.raises(FlinkError, match=repr(timestamp)):
            assigner.assign(timestamp)
        assert assigner.assign(30.0) == before

    def test_tumbling_shares_the_window_while_its_start_holds(self):
        assigner = TumblingWindows(60.0)
        first = assigner.assign(61.0)
        assert assigner.assign(119.0)[0] is first[0]
        moved = assigner.assign(120.0)[0]
        assert (moved.start, moved.end) == (120.0, 180.0)
        # The answer handed out earlier is untouched by later calls.
        assert (first[0].start, first[0].end) == (60.0, 120.0)

    def test_session_assigns_gap_window(self):
        window = SessionWindows(30.0).assign(100.0)[0]
        assert (window.start, window.end) == (100.0, 130.0)
        assert SessionWindows(30.0).is_session()


class TestAggregates:
    def test_count(self):
        agg = CountAggregate()
        acc = agg.create_accumulator()
        for __ in range(3):
            acc = agg.add("x", acc)
        assert agg.get_result(acc) == 3
        assert agg.merge(2, 3) == 5

    def test_sum(self):
        agg = SumAggregate(lambda v: v["x"])
        acc = agg.create_accumulator()
        acc = agg.add({"x": 2.0}, acc)
        acc = agg.add({"x": 3.0}, acc)
        assert agg.get_result(acc) == 5.0

    def test_avg(self):
        agg = AvgAggregate(lambda v: v)
        acc = agg.create_accumulator()
        for value in (1.0, 2.0, 3.0):
            acc = agg.add(value, acc)
        assert agg.get_result(acc) == 2.0
        assert math.isnan(agg.get_result(agg.create_accumulator()))

    def test_min_max(self):
        lo, hi = MinAggregate(lambda v: v), MaxAggregate(lambda v: v)
        acc_lo, acc_hi = lo.create_accumulator(), hi.create_accumulator()
        for value in (5.0, 1.0, 3.0):
            acc_lo = lo.add(value, acc_lo)
            acc_hi = hi.add(value, acc_hi)
        assert lo.get_result(acc_lo) == 1.0
        assert hi.get_result(acc_hi) == 5.0

    def test_collect_keeps_elements(self):
        agg = CollectAggregate()
        acc = agg.create_accumulator()
        acc = agg.add(1, acc)
        acc = agg.add(2, acc)
        assert agg.get_result(acc) == [1, 2]
        assert agg.merge([1], [2]) == [1, 2]

    def test_avg_merge(self):
        agg = AvgAggregate(lambda v: v)
        merged = agg.merge((4.0, 2), (2.0, 1))
        assert agg.get_result(merged) == 2.0
