import pytest

from repro.common.errors import OperatorError
from repro.flink.operators import (
    FilterOperator,
    FlatMapOperator,
    MapOperator,
    ProcessOperator,
    WindowJoinOperator,
    WindowOperator,
)
from repro.flink.state import KeyedStateBackend
from repro.flink.time import StreamRecord, Watermark
from repro.flink.windows import CountAggregate, SessionWindows, TumblingWindows


class TestStateBackend:
    def test_value_state(self):
        state = KeyedStateBackend()
        state.put("d", "k", 42)
        assert state.get("d", "k") == 42
        assert state.get("d", "missing", "default") == "default"
        state.remove("d", "k")
        assert state.get("d", "k") is None

    def test_list_state(self):
        state = KeyedStateBackend()
        state.append("d", "k", 1)
        state.append("d", "k", 2)
        assert state.get_list("d", "k") == [1, 2]
        assert state.get_list("d", "other") == []

    def test_snapshot_restore_round_trip(self):
        state = KeyedStateBackend()
        state.put("acc", ("key", 0.0, 60.0), [1, 2.5, "x"])
        state.put("other", "plain", {"nested": [1]})
        snapshot = state.snapshot()
        restored = KeyedStateBackend()
        restored.restore(snapshot)
        assert restored.get("acc", ("key", 0.0, 60.0)) == (1, 2.5, "x") or \
            restored.get("acc", ("key", 0.0, 60.0)) == [1, 2.5, "x"]
        assert restored.get("other", "plain") == {"nested": [1]}

    def test_tuple_keys_survive_snapshot(self):
        state = KeyedStateBackend()
        state.put("d", ("a", 1, 2.5), "value")
        restored = KeyedStateBackend()
        restored.restore(state.snapshot())
        assert restored.get("d", ("a", 1, 2.5)) == "value"

    def test_entry_count_and_size(self):
        state = KeyedStateBackend()
        assert state.entry_count() == 0
        state.put("d", "k", "x" * 1000)
        assert state.entry_count() == 1
        assert state.size_bytes() > 1000


def record(value, timestamp=0.0, key=None) -> StreamRecord:
    return StreamRecord(value, timestamp, key)


class TestSimpleOperators:
    def test_map(self):
        out = MapOperator(lambda v: v * 2).process(record(3))
        assert out[0].value == 6

    def test_map_error_wrapped(self):
        with pytest.raises(OperatorError):
            MapOperator(lambda v: 1 / 0).process(record(1))

    def test_filter(self):
        operator = FilterOperator(lambda v: v > 0)
        assert operator.process(record(1))
        assert operator.process(record(-1)) == []

    def test_flat_map(self):
        out = FlatMapOperator(lambda v: [v, v + 1]).process(record(5))
        assert [r.value for r in out] == [5, 6]

    def test_process_with_state(self):
        def dedupe(rec, state, emit):
            if state.get("seen", rec.value) is None:
                state.put("seen", rec.value, True)
                emit(rec.value)

        operator = ProcessOperator(dedupe)
        assert len(operator.process(record("a"))) == 1
        assert len(operator.process(record("a"))) == 0
        assert len(operator.process(record("b"))) == 1


class TestWindowOperator:
    def test_windows_fire_on_watermark(self):
        operator = WindowOperator(TumblingWindows(60.0), CountAggregate())
        for t in (10.0, 20.0, 70.0):
            operator.process(record({"x": 1}, t, key="k"))
        assert operator.on_watermark(Watermark(50.0)) == []
        fired = operator.on_watermark(Watermark(60.0))
        assert len(fired) == 1
        assert fired[0].value.value == 2
        assert fired[0].timestamp == 60.0

    def test_separate_keys_separate_windows(self):
        operator = WindowOperator(TumblingWindows(60.0), CountAggregate())
        operator.process(record(1, 10.0, key="a"))
        operator.process(record(1, 10.0, key="b"))
        fired = operator.on_watermark(Watermark(60.0))
        assert sorted(r.value.key for r in fired) == ["a", "b"]

    def test_fired_order_is_window_end_then_arrival_across_keys(self):
        operator = WindowOperator(TumblingWindows(60.0), CountAggregate())
        # Windows open in this order; the watermark closes the first two
        # ends (three keys tie on each) and leaves [120, 180) open.
        for key, t in [("c", 70.0), ("a", 10.0), ("b", 75.0), ("c", 15.0),
                       ("a", 130.0), ("b", 20.0), ("a", 80.0)]:  # fmt: skip
            operator.process(record(1, t, key=key))
        assert operator.on_watermark(Watermark(59.0)) == []
        fired = operator.on_watermark(Watermark(120.0))
        assert [(r.timestamp, r.key) for r in fired] == [
            (60.0, "a"), (60.0, "c"), (60.0, "b"),
            (120.0, "c"), (120.0, "b"), (120.0, "a"),
        ]  # fmt: skip
        assert operator.state.keys("acc") == [("a", 120.0, 180.0)]

    def test_session_windows_merge(self):
        operator = WindowOperator(SessionWindows(30.0), CountAggregate())
        operator.process(record(1, 0.0, key="k"))
        operator.process(record(1, 20.0, key="k"))  # merges: gap < 30
        operator.process(record(1, 100.0, key="k"))  # new session
        fired = operator.on_watermark(Watermark(200.0))
        counts = sorted(r.value.value for r in fired)
        assert counts == [1, 2]


class TestWindowJoin:
    def test_joins_matching_keys_in_window(self):
        operator = WindowJoinOperator(
            TumblingWindows(60.0), lambda l, r: {"l": l, "r": r}
        )
        operator.process(record({"id": 1}, 10.0, key="p1"), input_index=0)
        operator.process(record({"ok": True}, 20.0, key="p1"), input_index=1)
        operator.process(record({"id": 2}, 30.0, key="p2"), input_index=0)
        fired = operator.on_watermark(Watermark(60.0))
        assert len(fired) == 1
        assert fired[0].value == {"l": {"id": 1}, "r": {"ok": True}}

    def test_cross_window_pairs_do_not_join(self):
        operator = WindowJoinOperator(TumblingWindows(60.0), lambda l, r: (l, r))
        operator.process(record("a", 10.0, key="k"), input_index=0)
        operator.process(record("b", 70.0, key="k"), input_index=1)
        fired = operator.on_watermark(Watermark(200.0))
        assert fired == []

    def test_many_to_many_within_window(self):
        operator = WindowJoinOperator(TumblingWindows(60.0), lambda l, r: (l, r))
        for value in ("a1", "a2"):
            operator.process(record(value, 10.0, key="k"), input_index=0)
        for value in ("b1", "b2"):
            operator.process(record(value, 20.0, key="k"), input_index=1)
        fired = operator.on_watermark(Watermark(60.0))
        assert len(fired) == 4
