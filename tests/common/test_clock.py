import pytest

from repro.common.clock import SimulatedClock, SystemClock
from repro.common.errors import ClockError


class TestSimulatedClock:
    def test_starts_at_given_time(self):
        assert SimulatedClock(100.0).now() == 100.0

    def test_advance_moves_time(self):
        clock = SimulatedClock()
        clock.advance(5.5)
        assert clock.now() == 5.5

    def test_advance_negative_rejected(self):
        clock = SimulatedClock()
        with pytest.raises(ClockError):
            clock.advance(-1.0)

    def test_run_until_past_rejected(self):
        clock = SimulatedClock(10.0)
        with pytest.raises(ClockError):
            clock.run_until(5.0)

    def test_timers_fire_in_order(self):
        clock = SimulatedClock()
        fired = []
        clock.call_at(3.0, lambda: fired.append("c"))
        clock.call_at(1.0, lambda: fired.append("a"))
        clock.call_at(2.0, lambda: fired.append("b"))
        clock.advance(5.0)
        assert fired == ["a", "b", "c"]

    def test_same_instant_fires_in_scheduling_order(self):
        clock = SimulatedClock()
        fired = []
        clock.call_at(1.0, lambda: fired.append(1))
        clock.call_at(1.0, lambda: fired.append(2))
        clock.advance(1.0)
        assert fired == [1, 2]

    def test_timer_observes_its_scheduled_time(self):
        clock = SimulatedClock()
        seen = []
        clock.call_at(2.5, lambda: seen.append(clock.now()))
        clock.advance(10.0)
        assert seen == [2.5]
        assert clock.now() == 10.0

    def test_timer_can_schedule_more_timers(self):
        clock = SimulatedClock()
        fired = []

        def chain():
            fired.append(clock.now())
            if clock.now() < 3.0:
                clock.call_later(1.0, chain)

        clock.call_at(1.0, chain)
        clock.advance(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_timer_past_deadline_does_not_fire(self):
        clock = SimulatedClock()
        fired = []
        clock.call_at(5.0, lambda: fired.append(1))
        clock.advance(4.0)
        assert fired == []
        assert clock.pending_timers() == 1

    def test_call_later_negative_rejected(self):
        clock = SimulatedClock()
        with pytest.raises(ClockError):
            clock.call_later(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        clock = SimulatedClock(10.0)
        with pytest.raises(ClockError):
            clock.call_at(5.0, lambda: None)

    def test_nan_is_rejected_everywhere_time_enters(self):
        """NaN compares false both ways, so ``< now`` alone lets it in: the
        clock would read NaN, and a NaN timer cannot be ordered."""
        nan = float("nan")
        clock = SimulatedClock(10.0)
        clock.call_at(12.0, lambda: None)
        for enter in (
            lambda: clock.advance(nan),
            lambda: clock.run_until(nan),
            lambda: clock.call_at(nan, lambda: None),
            lambda: clock.call_later(nan, lambda: None),
        ):
            with pytest.raises(ClockError, match="nan"):
                enter()
        assert clock.now() == 10.0
        assert clock.pending_timers() == 1


class TestSystemClock:
    def test_monotonic(self):
        clock = SystemClock()
        a = clock.now()
        b = clock.now()
        assert b >= a
