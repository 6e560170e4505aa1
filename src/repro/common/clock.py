"""Clock abstractions.

Every component in the stack takes a :class:`Clock` instead of calling
``time.time`` directly.  Experiments that measure freshness, end-to-end
latency or recovery time run on a :class:`SimulatedClock`, which makes the
results deterministic and lets a "20 minute" recovery complete in
milliseconds of wall time.  Wall-clock microbenchmarks use
:class:`SystemClock`.

Simulated time is kept in float seconds since an arbitrary epoch.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable, Protocol

from repro.common.errors import ClockError


class Clock(Protocol):
    """Minimal clock interface shared by all components."""

    def now(self) -> float:
        """Return the current time in seconds."""
        ...


class SystemClock:
    """Clock backed by the operating system's monotonic clock."""

    def now(self) -> float:
        return time.monotonic()


class SimulatedClock:
    """Deterministic, manually advanced clock with a timer wheel.

    Components may schedule callbacks (``call_at`` / ``call_later``); the
    driver of a simulation advances time with :meth:`advance` or
    :meth:`run_until`, which fires due callbacks in timestamp order.
    Callbacks scheduled for the same instant fire in scheduling order.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._sequence = itertools.count()
        self._timers: list[tuple[float, int, Callable[[], None]]] = []

    def now(self) -> float:
        return self._now

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run when the clock reaches ``when``."""
        if not when >= self._now:  # also NaN, which the heap cannot order
            raise ClockError(
                f"cannot schedule at {when:.6f}; clock already at {self._now:.6f}"
            )
        heapq.heappush(self._timers, (when, next(self._sequence), callback))

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also NaN
            raise ClockError(f"delay must be >= 0, got {delay}")
        self.call_at(self._now + delay, callback)

    def advance(self, delta: float) -> None:
        """Move time forward by ``delta`` seconds, firing due timers."""
        if not delta >= 0:  # also NaN
            raise ClockError(f"time only moves forward; got delta={delta}")
        self.run_until(self._now + delta)

    def run_until(self, deadline: float) -> None:
        """Advance to ``deadline``, firing every timer due on the way.

        Timers may schedule further timers; those also fire if they fall
        before the deadline.
        """
        if not deadline >= self._now:  # also NaN
            raise ClockError(
                f"cannot run until {deadline:.6f}; clock already at {self._now:.6f}"
            )
        while self._timers and self._timers[0][0] <= deadline:
            when, __, callback = heapq.heappop(self._timers)
            # Jump the clock to the timer's instant so the callback observes
            # the time it was scheduled for.
            self._now = when
            callback()
        self._now = deadline

    def pending_timers(self) -> int:
        """Number of timers not yet fired (for tests and diagnostics)."""
        return len(self._timers)
