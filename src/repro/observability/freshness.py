"""Freshness reports (paper Section 8).

The paper's headline operational claim is *seconds-level* data freshness:
an event produced into Kafka is queryable in Pinot within seconds.  Here
freshness is read off what the system already keeps, never probed, so the
measure writes nothing into what it measures (the pitfall
arXiv:2512.16146 warns benchmark suites about):

* ``RealtimeIngestion.staleness()`` — per partition, how long the oldest
  row that is not yet queryable has waited, read from the Kafka log;
* ``Platform.freshness(table)`` — a :class:`FreshnessReport` over every
  stored ``ingest`` span into the table: each row's append → queryable
  interval.

:func:`nearest_rank` is the one percentile rule: the report, the SLO
monitor, admission control and the span summary all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile of a sorted, non-empty sequence by the
    nearest-rank method: the value at rank ``ceil(pct / 100 * n)``, held
    to ``[1, n]``."""
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[max(1, min(len(ordered), rank)) - 1]


@dataclass(frozen=True)
class FreshnessReport:
    """Percentile summary over append → queryable intervals (seconds)."""

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
