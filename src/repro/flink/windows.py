"""Window assigners and aggregate functions.

Supports the window shapes the paper's pipelines use: tumbling windows
(surge pricing's "per time window" multipliers, Chaperone-style counts),
sliding windows (moving business metrics) and session windows.  Aggregation
follows Flink's incremental ``AggregateFunction`` contract so window state
holds accumulators, not raw elements — the memory property the Spark
comparison (C2) measures.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence

from repro.common.errors import FlinkError


@dataclass(slots=True)
class TimeWindow:
    """Half-open event-time interval [start, end)."""

    start: float
    end: float


class WindowAssigner(Protocol):
    def assign(self, timestamp: float) -> Sequence[TimeWindow]:
        """Windows that an element with this timestamp belongs to."""
        ...

    def is_session(self) -> bool: ...


def non_finite_event_time(timestamp: float) -> FlinkError:
    """The error of every operator handed a NaN or ±inf event time."""
    return FlinkError(f"event time must be finite, got {timestamp!r}")


def _aligned_start(timestamp: float, step: float) -> float:
    """Largest multiple of ``step`` at or below ``timestamp``.

    The one place an assigner meets a hostile event time: NaN and ±inf
    have no window, and say so as a :class:`FlinkError`.
    """
    try:
        return math.floor(timestamp / step) * step
    except (ValueError, OverflowError):
        raise non_finite_event_time(timestamp) from None


def _duration(name: str, seconds: float) -> float:
    """An assigner's size, slide or gap: a positive, finite number of
    seconds.  NaN, ±inf, zero and negatives are refused here, before a
    record meets a window that could never fire."""
    if not 0 < seconds < math.inf:  # also NaN
        raise FlinkError(f"window {name} must be positive and finite, got {seconds}")
    return seconds


class TumblingWindows:
    """Fixed, non-overlapping windows of ``size`` seconds."""

    def __init__(self, size: float) -> None:
        self.size = _duration("size", size)
        # The previous answer of ``assign``.  One assigner serves every
        # subtask built from a spec, so this is a pure cache: the tuple
        # and its window are shared, and a window is never assigned to
        # after it is built (tests/property/test_element_values.py).
        self._last_start: float | None = None
        self._last: tuple[TimeWindow, ...] = ()

    def assign(self, timestamp: float) -> tuple[TimeWindow, ...]:
        start = _aligned_start(timestamp, self.size)
        if start != self._last_start:
            self._last = (TimeWindow(start, start + self.size),)
            self._last_start = start
        return self._last

    def is_session(self) -> bool:
        return False


class SlidingWindows:
    """Overlapping windows of ``size`` seconds every ``slide`` seconds."""

    def __init__(self, size: float, slide: float) -> None:
        _duration("size", size)
        _duration("slide", slide)
        if slide > size:
            raise FlinkError(
                f"slide ({slide}) larger than size ({size}) would drop data; "
                "use tumbling windows instead"
            )
        self.size = size
        self.slide = slide

    def assign(self, timestamp: float) -> list[TimeWindow]:
        windows = []
        start = _aligned_start(timestamp, self.slide)
        while start > timestamp - self.size:
            windows.append(TimeWindow(start, start + self.size))
            start -= self.slide
        return windows

    def is_session(self) -> bool:
        return False


class SessionWindows:
    """Gap-based session windows; merged by the window operator."""

    def __init__(self, gap: float) -> None:
        self.gap = _duration("gap", gap)

    def assign(self, timestamp: float) -> list[TimeWindow]:
        if not math.isfinite(timestamp):  # its session would never close
            raise non_finite_event_time(timestamp)
        return [TimeWindow(timestamp, timestamp + self.gap)]

    def is_session(self) -> bool:
        return True


class AggregateFunction(Protocol):
    """Flink's incremental aggregation contract.

    ``add`` folds one record's value into an accumulator; the window
    operator calls it once per admitted record and window.
    """

    def create_accumulator(self) -> Any: ...

    def add(self, value: Any, accumulator: Any) -> Any: ...

    def get_result(self, accumulator: Any) -> Any: ...

    def merge(self, a: Any, b: Any) -> Any: ...


def _extractor(
    extract: Callable[[Any], float] | str,
) -> Callable[[Any], float]:
    """Resolve an extractor spec: a field name reads ``value[name]``."""
    if isinstance(extract, str):
        return operator.itemgetter(extract)
    return extract


class CountAggregate:
    """Counts elements."""

    def create_accumulator(self) -> int:
        return 0

    def add(self, value: Any, accumulator: int) -> int:
        return accumulator + 1

    def get_result(self, accumulator: int) -> int:
        return accumulator

    def merge(self, a: int, b: int) -> int:
        return a + b


class SumAggregate:
    """Sums ``extract(value)``."""

    def __init__(self, extract: Callable[[Any], float] | str) -> None:
        self.extract = _extractor(extract)

    def create_accumulator(self) -> float:
        return 0.0

    def add(self, value: Any, accumulator: float) -> float:
        return accumulator + self.extract(value)

    def get_result(self, accumulator: float) -> float:
        return accumulator

    def merge(self, a: float, b: float) -> float:
        return a + b


class AvgAggregate:
    """Arithmetic mean of ``extract(value)``."""

    def __init__(self, extract: Callable[[Any], float] | str) -> None:
        self.extract = _extractor(extract)

    def create_accumulator(self) -> tuple[float, int]:
        return (0.0, 0)

    def add(self, value: Any, accumulator: tuple[float, int]) -> tuple[float, int]:
        total, count = accumulator
        return (total + self.extract(value), count + 1)

    def get_result(self, accumulator: tuple[float, int]) -> float:
        total, count = accumulator
        return total / count if count else float("nan")

    def merge(self, a: tuple[float, int], b: tuple[float, int]) -> tuple[float, int]:
        return (a[0] + b[0], a[1] + b[1])


class MinAggregate:
    def __init__(self, extract: Callable[[Any], float] | str) -> None:
        self.extract = _extractor(extract)

    def create_accumulator(self) -> float:
        return math.inf

    def add(self, value: Any, accumulator: float) -> float:
        return min(accumulator, self.extract(value))

    def get_result(self, accumulator: float) -> float:
        return accumulator

    def merge(self, a: float, b: float) -> float:
        return min(a, b)


class MaxAggregate:
    def __init__(self, extract: Callable[[Any], float] | str) -> None:
        self.extract = _extractor(extract)

    def create_accumulator(self) -> float:
        return -math.inf

    def add(self, value: Any, accumulator: float) -> float:
        return max(accumulator, self.extract(value))

    def get_result(self, accumulator: float) -> float:
        return accumulator

    def merge(self, a: float, b: float) -> float:
        return max(a, b)


class CollectAggregate:
    """Keeps raw elements (used where the result needs them, e.g. joins).

    Deliberately memory-heavy; prefer incremental aggregates.
    """

    def create_accumulator(self) -> list:
        return []

    def add(self, value: Any, accumulator: list) -> list:
        accumulator.append(value)
        return accumulator

    def get_result(self, accumulator: list) -> list:
        return list(accumulator)

    def merge(self, a: list, b: list) -> list:
        return a + b


@dataclass(slots=True)
class WindowResult:
    """Emitted by the window operator when a window fires."""

    key: Any
    window: TimeWindow
    value: Any
