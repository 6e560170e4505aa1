"""Lightweight metrics: counters, gauges and percentile histograms.

Every component exposes a :class:`MetricsRegistry`; the benchmark harness
reads p50/p95/p99 latencies and throughput counters from it.  The paper's
operational story (Section 9.3: per-use-case dashboards, chargeback) hangs
off the same registry.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down; remembers its high-water mark."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


_NO_OFFSET = (0,)  # observe(v) queues v - 0, which is v whatever its type


class Histogram:
    """Records observations and answers percentile queries exactly.

    Observing only queues; the samples are worked out and sorted when a
    reader next asks, so the write path (every finished span observes one)
    stays O(1) per call whatever order durations arrive in.  Fine for the
    volumes our experiments record (≤ a few hundred thousand observations
    per histogram).
    """

    __slots__ = ("_samples", "_ends", "_starts", "_total", "count")

    def __init__(self) -> None:
        self._samples: list[float] = []  # sorted
        # Queued by observe_since, folded into _samples by _settle:
        # parallel lists of a shared end and the starts it applies to.
        self._ends: list[float] = []
        self._starts: list[Sequence[float]] = []
        self._total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.observe_since(value, _NO_OFFSET)

    def observe_since(self, end: float, starts: Sequence[float]) -> None:
        """Observe ``end - start`` for every start: the durations of spans
        that share an end.  ``starts`` is kept, not copied — the caller must
        not mutate it afterwards."""
        self._ends.append(end)
        self._starts.append(starts)
        self.count += len(starts)

    def _settle(self) -> list[float]:
        """Fold what was queued into the sorted samples, in arrival order
        (``total`` is the same float whenever a reader happens to ask)."""
        if self._ends:
            samples, total = self._samples, self._total
            for end, starts in zip(self._ends, self._starts):
                for start in starts:
                    samples.append(end - start)
                    total += end - start
            samples.sort()
            self._total = total
            self._ends, self._starts = [], []
        return self._samples

    def percentile(self, pct: float) -> float:
        """Exact percentile, nearest-rank method. pct in [0, 100]."""
        samples = self._settle()
        if not samples:
            return math.nan
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        rank = max(1, math.ceil(pct / 100.0 * len(samples)))
        return samples[rank - 1]

    @property
    def total(self) -> float:
        self._settle()
        return self._total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def max(self) -> float:
        return self._settle()[-1] if self.count else math.nan

    @property
    def min(self) -> float:
        return self._settle()[0] if self.count else math.nan

    def count_at_or_below(self, value: float) -> int:
        """How many observations are <= value (for SLA attainment)."""
        return bisect_right(self._settle(), value)


@dataclass
class MetricsRegistry:
    """Named metrics for one component instance."""

    name: str = "default"
    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, key: str) -> Counter:
        if key not in self.counters:
            self.counters[key] = Counter()
        return self.counters[key]

    def gauge(self, key: str) -> Gauge:
        if key not in self.gauges:
            self.gauges[key] = Gauge()
        return self.gauges[key]

    def histogram(self, key: str) -> Histogram:
        if key not in self.histograms:
            self.histograms[key] = Histogram()
        return self.histograms[key]

    def snapshot(self) -> dict[str, float]:
        """Flat view used by dashboards, the watchdog and tests."""
        out: dict[str, float] = {}
        for key, counter in self.counters.items():
            out[f"{key}.count"] = counter.value
        for key, gauge in self.gauges.items():
            out[f"{key}.value"] = gauge.value
            out[f"{key}.max"] = gauge.max_value
        for key, hist in self.histograms.items():
            if hist.count:
                out[f"{key}.p50"] = hist.percentile(50)
                out[f"{key}.p99"] = hist.percentile(99)
                out[f"{key}.mean"] = hist.mean
                out[f"{key}.n"] = hist.count
        return out
