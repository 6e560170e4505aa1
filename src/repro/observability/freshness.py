"""End-to-end freshness measurement (paper Section 8).

The paper's headline operational claim is *seconds-level* data freshness:
an event produced into Kafka is queryable in Pinot within seconds.  The
probes here measure exactly that boundary-to-boundary interval —
event time at the producer edge to first-queryable at the Pinot broker —
rather than any single component's internal latency (the pitfall
arXiv:2512.16146 warns benchmark suites about).

Two probes:

* :class:`FreshnessProbe` — a passive sampler: any pipeline that knows
  when a record became visible calls :meth:`FreshnessProbe.observe_visible`
  and gets a :class:`FreshnessReport` of percentiles back.
* :class:`PinotFreshnessProbe` — an active prober: it injects sentinel
  records through the real producer path, drives the pipeline forward,
  and polls the Pinot broker until each sentinel is queryable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.common.clock import Clock, SystemClock


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile of a sorted, non-empty sequence by the
    nearest-rank method: the value at rank ``ceil(pct / 100 * n)``, held
    to ``[1, n]``."""
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[max(1, min(len(ordered), rank)) - 1]


@dataclass(frozen=True)
class FreshnessReport:
    """Percentile summary over event-time → queryable intervals (seconds)."""

    samples: tuple[float, ...]

    @staticmethod
    def from_samples(samples: list[float]) -> "FreshnessReport":
        return FreshnessReport(tuple(sorted(samples)))

    @property
    def count(self) -> int:
        return len(self.samples)

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile (:func:`nearest_rank`)."""
        if not self.samples:
            raise ValueError("no freshness samples collected")
        return nearest_rank(self.samples, pct)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no freshness samples collected")
        return sum(self.samples) / len(self.samples)

    @property
    def max(self) -> float:
        if not self.samples:
            raise ValueError("no freshness samples collected")
        return self.samples[-1]

    def render(self) -> str:
        return (
            f"freshness over {self.count} samples: "
            f"p50={self.p50:.2f}s p99={self.p99:.2f}s max={self.max:.2f}s"
        )


class FreshnessProbe:
    """Passive freshness sampler.

    Pipelines call :meth:`observe_visible` at the instant a record (or a
    derived result) becomes queryable, passing the origin event time; the
    probe accumulates ``now - origin_event_time`` samples.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or SystemClock()
        self._samples: list[float] = []

    def observe_visible(
        self, origin_event_time: float, now: float | None = None
    ) -> float:
        """Record that data with the given origin time is now queryable."""
        if now is None:
            now = self.clock.now()
        sample = now - origin_event_time
        self._samples.append(sample)
        return sample

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def report(self) -> FreshnessReport:
        return FreshnessReport.from_samples(self._samples)


@dataclass
class PinotFreshnessProbe:
    """Active end-to-end prober: sentinel in at Kafka, visible out at Pinot.

    Each round produces one sentinel row through the real ``producer``
    (so it crosses the same produce/replicate/process/ingest boundaries as
    user traffic), then alternates ``step(dt)`` — the caller's hook that
    advances the simulated clock and drives Flink/Pinot forward — with a
    COUNT query against the broker filtered on the sentinel's marker,
    until the row is queryable or ``timeout`` simulated seconds elapse.

    ``sentinel_factory(marker)`` must return a value dict that conforms to
    the target table's schema with ``match_column`` set to the marker (the
    :class:`~repro.platform.Platform` facade derives one from the schema
    automatically).
    """

    producer: Any  # kafka Producer
    topic: str
    table: str
    broker: Any  # PinotBroker
    match_column: str
    sentinel_factory: Callable[[str], dict]
    step: Callable[[float], None]
    clock: Clock
    step_interval: float = 1.0
    _probe_seq: int = 0
    _samples: list[float] = field(default_factory=list)

    def run(self, sentinels: int = 5, timeout: float = 120.0) -> FreshnessReport:
        """Inject ``sentinels`` probe rows and measure each to visibility."""
        for _ in range(sentinels):
            self._probe_once(timeout)
        return self.report()

    def _probe_once(self, timeout: float) -> float:
        from repro.pinot.query import Aggregation, Filter, PinotQuery

        self._probe_seq += 1
        marker = f"__probe-{self._probe_seq}"
        event_time = self.clock.now()
        value = self.sentinel_factory(marker)
        self.producer.produce(self.topic, value, key=marker, event_time=event_time)
        self.producer.flush()

        query = PinotQuery(
            table=self.table,
            aggregations=[Aggregation("COUNT")],
            filters=[Filter(self.match_column, "=", marker)],
        )
        deadline = event_time + timeout
        while True:
            self.step(self.step_interval)
            result = self.broker.execute(query)
            if result.rows and result.rows[0].get("count(*)", 0) > 0:
                break
            if self.clock.now() >= deadline:
                raise TimeoutError(
                    f"sentinel {marker!r} not queryable in {self.table!r} "
                    f"within {timeout}s"
                )
        sample = self.clock.now() - event_time
        self._samples.append(sample)
        return sample

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def report(self) -> FreshnessReport:
        return FreshnessReport.from_samples(self._samples)
