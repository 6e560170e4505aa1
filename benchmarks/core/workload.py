"""Million-user query workload generator for the surge experiment
(paper Section 3, Table 1).

The paper's scalability requirement is not "many records" but "many
*users*": the platform serves millions of riders, drivers, restaurant
operators and analysts whose demand is **skewed** (a small fraction of
users generates most traffic), **bursty** (a marketing push or a storm
multiplies load for minutes) and **diurnal** (traffic follows the day
cycle).  The generators here produce that shape deterministically from a
seed, so every control-plane experiment replays byte-identically.

:class:`UserPopulation` spans millions of *distinct* user ids without
holding per-user state: a Zipf distribution over a few thousand buckets
picks the activity band, then a uniform draw picks the user inside it.
The head buckets are narrow (heavy individual users) and the tail buckets
wide (the long tail of occasional users), preserving the head-heavy
traffic shape while memory stays O(buckets).

:class:`SurgeWorkload` turns the population into a timed arrival stream
of :class:`QueryRequest` objects: a Poisson process whose intensity is
the product of a diurnal carrier wave and a surge-spike multiplier, with
each request assigned a Table-1 use case from a weighted mix.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator

from repro.common.rng import seeded_rng
from repro.controlplane.admission import QueryRequest

#: Default per-request use-case mix: most traffic is interactive
#: dashboards and ad-hoc exploration; the ops-critical tiers are smaller.
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("surge_pricing", 0.15),
    ("eats_dashboard", 0.30),
    ("ads_attribution", 0.15),
    ("exploration", 0.40),
)


class UserPopulation:
    """Zipf-skewed sampling over millions of distinct user ids.

    ``sample(rng)`` returns a user index in ``[0, users)``.  Skew is
    bucketed: bucket ``b`` (of ``buckets``) holds an equal *id range* but
    carries Zipf weight ``1/(b+1)**skew``, so low buckets (few, hot users
    per draw) dominate traffic while the id space still spans the whole
    population.
    """

    def __init__(
        self,
        users: int = 2_000_000,
        skew: float = 1.1,
        buckets: int = 2048,
    ) -> None:
        if users <= 0:
            raise ValueError(f"population must be positive, got {users}")
        self.users = users
        self.skew = skew
        self.buckets = min(buckets, users)
        weights = [1.0 / (b + 1) ** skew for b in range(self.buckets)]
        total = sum(weights)
        acc = 0.0
        self._cumulative: list[float] = []
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)

    def sample(self, rng) -> int:
        """One user index drawn from the caller's RNG stream."""
        bucket = bisect_left(self._cumulative, rng.random())
        bucket = min(bucket, self.buckets - 1)
        width = self.users // self.buckets
        lo = bucket * width
        hi = self.users if bucket == self.buckets - 1 else lo + width
        return lo + rng.randrange(hi - lo)

    @staticmethod
    def user_id(index: int) -> str:
        return f"user-{index:09d}"


@dataclass(frozen=True)
class SurgeSpike:
    """A burst window multiplying the base arrival intensity."""

    start: float
    end: float
    multiplier: float = 5.0

    def factor(self, t: float) -> float:
        return self.multiplier if self.start <= t < self.end else 1.0


@dataclass
class SurgeWorkload:
    """Deterministic arrival stream: diurnal carrier + surge spike.

    ``rate(t) = base_rps * (1 + diurnal_amplitude * sin(2*pi*t/diurnal_period))
    * spike.factor(t)`` drives a Poisson process; each arrival draws a use
    case from ``mix`` and a user from ``population``.
    """

    seed: int = 42
    population: UserPopulation = field(default_factory=UserPopulation)
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX
    base_rps: float = 10.0
    duration: float = 180.0
    spike: SurgeSpike = field(default_factory=lambda: SurgeSpike(60.0, 120.0))
    diurnal_amplitude: float = 0.3
    diurnal_period: float = 360.0
    param_space: int = 4096

    def __post_init__(self) -> None:
        total = sum(w for __, w in self.mix)
        acc = 0.0
        self._mix_cumulative: list[tuple[float, str]] = []
        for use_case, weight in self.mix:
            acc += weight / total
            self._mix_cumulative.append((acc, use_case))

    def rate(self, t: float) -> float:
        diurnal = 1.0 + self.diurnal_amplitude * math.sin(
            2.0 * math.pi * t / self.diurnal_period
        )
        return self.base_rps * diurnal * self.spike.factor(t)

    def _use_case(self, rng) -> str:
        x = rng.random()
        for threshold, use_case in self._mix_cumulative:
            if x <= threshold:
                return use_case
        return self._mix_cumulative[-1][1]

    def requests(self, start_time: float = 0.0) -> Iterator[QueryRequest]:
        """Yield requests ordered by arrival time, for ``duration`` sim
        seconds from ``start_time``."""
        rng = seeded_rng(self.seed, "controlplane.workload")
        now = start_time
        seq = 0
        end = start_time + self.duration
        while True:
            rate = self.rate(now - start_time)
            now += rng.expovariate(rate) if rate > 0 else 1.0
            if now >= end:
                return
            seq += 1
            user = self.population.sample(rng)
            yield QueryRequest(
                request_id=f"req-{self.seed}-{seq:07d}",
                user_id=UserPopulation.user_id(user),
                use_case=self._use_case(rng),
                arrival_time=now,
                param=user % self.param_space,
            )
