"""SLO-tiered query admission control and load shedding (§3, §8, §9.3).

The paper's multi-tenancy story ranks use cases by business criticality:
surge pricing must never miss its window, dashboards should stay fresh,
ad-hoc exploration is best-effort.  When measured latency drifts toward
an SLO violation, the platform sheds the *lowest* tier first and gives
every tier a rate budget so no tenant can starve the others (§9.3's
chargeback becomes §3's cost control under pressure).

Mechanics, all deterministic on the simulated clock:

* **Tiers** come from the Table 1 use cases: :data:`TIER_ORDER` ranks
  them, tier 0 highest.  Unknown use cases land in the lowest tier.
* **Token buckets** cap each tier's admitted rate (burst + refill); a
  tier over budget is shed with reason ``rate-limit`` regardless of SLO
  headroom.
* **Reactive shedding** (slow loop): the controller watches the p99 of
  the *top* tier over a sliding window of completed queries.  When p99
  crosses ``guard_fraction`` of the tier's target the shed level rises
  (one more tier from the bottom is rejected); when it falls below
  ``release_fraction`` and stays there, the level steps back down.
  Level changes are rate-limited by ``hold_s`` (hysteresis), so an
  oscillating p99 cannot flap the gate.
* **Pressure shedding** (fast loop): completed-query p99 is a trailing
  signal — under a step surge the queue jams seconds before the first
  slow completion reports back.  An optional ``pressure`` probe (queued
  seconds per worker; the surge driver's queue model in
  ``benchmarks/core/queueing.py`` supplies one) is read at every
  admission; crossing
  ``pressure_levels[i]`` forces the effective shed level to at least
  ``i + 1`` *immediately*, bounding how much queue wait the protected
  tier can ever sit behind.

Every shed and every level change lands in the shared
:class:`DecisionLog`; admission decisions only delay or reject work —
the admitted-query results are byte-identical to an unthrottled run
(property-tested in ``tests/property/test_admission_equivalence.py``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.common.perf import PERF
from repro.observability.freshness import nearest_rank
from repro.observability.slo import TABLE1_SLOS, SloTarget

#: Use cases ranked by shedding priority: index 0 is protected longest,
#: the last entry is shed first.  The order follows the paper's §5
#: criticality narrative (pricing > operational dashboards > attribution
#: > ad-hoc analytics).
TIER_ORDER: tuple[str, ...] = (
    "surge_pricing",
    "eats_dashboard",
    "ads_attribution",
    "exploration",
)


def tier_of(use_case: str) -> int:
    """Tier index of a use case; unknown use cases are lowest tier."""
    try:
        return TIER_ORDER.index(use_case)
    except ValueError:
        return len(TIER_ORDER) - 1


def _table1_target(use_case: str) -> SloTarget | None:
    for target in TABLE1_SLOS:
        if target.use_case == use_case:
            return target
    return None


def _query_latency_target(use_case: str, seconds: float, pct: float) -> SloTarget:
    base = _table1_target(use_case)
    description = base.description if base is not None else ""
    return SloTarget(use_case, "query_latency", pct, seconds, description)


#: Per-tier interactive query-latency targets.  ``exploration`` carries
#: its Table 1 number verbatim (p95 query_latency <= 5s); the other use
#: cases only have freshness/e2e targets in Table 1, so their serving
#: latency gets a concrete stand-in scaled to its band: the tighter the
#: freshness budget, the tighter the query target.
TIER_QUERY_SLOS: tuple[SloTarget, ...] = (
    _query_latency_target("surge_pricing", 1.5, 99),
    _query_latency_target("eats_dashboard", 2.5, 99),
    _query_latency_target("ads_attribution", 4.0, 99),
    next(t for t in TABLE1_SLOS if t.use_case == "exploration"),
)


class DecisionLog:
    """Append-only, byte-stable record of shed and scale decisions.

    Shared by the admission controller and the cross-layer scaler so one
    rendering shows the whole control plane's behaviour in order.  Same
    seed => byte-identical ``render()`` output is a CI gate.
    """

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._seq = 0

    def record(
        self, t: float, source: str, subject: str, action: str, detail: str
    ) -> None:
        self._seq += 1
        self._lines.append(
            f"{self._seq:06d} t={t:012.3f} {source:<9} {action:<12} "
            f"{subject} :: {detail}"
        )

    def __len__(self) -> int:
        return len(self._lines)

    def render(self) -> str:
        header = f"decision log ({len(self._lines)} entries)"
        return "\n".join([header] + self._lines)


@dataclass
class TokenBucket:
    """Deterministic token bucket on externally supplied timestamps."""

    rate: float  # tokens per second
    burst: float
    level: float = field(init=False)
    _last: float = field(init=False, default=0.0)
    _primed: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        self.level = self.burst

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        if self._primed:
            self.level = min(self.burst, self.level + (now - self._last) * self.rate)
        self._last = now
        self._primed = True
        if self.level >= amount:
            self.level -= amount
            return True
        return False


@dataclass(frozen=True)
class QueryRequest:
    """One user's query arrival, before admission.

    ``param`` is the deterministic workload knob the query templates key
    off (which city, which time window, which predicate constant) — it is
    derived from the user id, so the same user always asks the same shape
    of question and two same-seed runs ask byte-identical queries.
    """

    request_id: str
    user_id: str
    use_case: str
    arrival_time: float
    param: int


@dataclass(frozen=True)
class AdmissionDecision:
    admitted: bool
    tier: int
    use_case: str
    reason: str


class AdmissionController:
    """Tiered token-bucket admission with p99-reactive load shedding."""

    def __init__(
        self,
        targets: tuple[SloTarget, ...] = TIER_QUERY_SLOS,
        tier_rates: dict[str, float] | None = None,
        tier_burst: float = 40.0,
        window: int = 128,
        min_samples: int = 24,
        guard_fraction: float = 0.75,
        release_fraction: float = 0.4,
        hold_s: float = 8.0,
        pressure: "Callable[[], float] | None" = None,
        pressure_levels: tuple[float, ...] = (),
        log: DecisionLog | None = None,
    ) -> None:
        self.targets = {t.use_case: t for t in targets}
        self.log = log if log is not None else DecisionLog()
        self.guard_fraction = guard_fraction
        self.release_fraction = release_fraction
        self.hold_s = hold_s
        self.min_samples = min_samples
        self.pressure = pressure
        self.pressure_levels = tuple(pressure_levels)
        self._buckets = {
            use_case: TokenBucket(rate=rate, burst=tier_burst)
            for use_case, rate in (tier_rates or {}).items()
        }
        self._latency_window: deque[float] = deque(maxlen=window)
        self.shed_level = 0
        self._last_level_change = -math.inf
        self.admitted = 0
        self.shed = 0

    # -- feedback ------------------------------------------------------------

    @property
    def guarded_use_case(self) -> str:
        """The top-tier use case whose p99 drives reactive shedding."""
        return min(self.targets, key=tier_of)

    def observe_latency(self, use_case: str, latency: float, now: float) -> None:
        """Feed one completed query's end-to-end latency."""
        if PERF.enabled:
            PERF.inc("controlplane.latency_observations")
        if use_case != self.guarded_use_case:
            return
        self._latency_window.append(latency)
        self._reevaluate(now)

    def _window_p99(self) -> float | None:
        if len(self._latency_window) < self.min_samples:
            return None
        return nearest_rank(sorted(self._latency_window), 99)

    def _reevaluate(self, now: float) -> None:
        if now - self._last_level_change < self.hold_s:
            return
        p99 = self._window_p99()
        if p99 is None:
            return
        target = self.targets[self.guarded_use_case].target_seconds
        max_level = len(TIER_ORDER) - 1  # never shed the top tier
        if p99 > self.guard_fraction * target and self.shed_level < max_level:
            self.shed_level += 1
            self._last_level_change = now
            self.log.record(
                now,
                "admission",
                self.guarded_use_case,
                "shed_raise",
                f"p99 {p99:.3f}s > {self.guard_fraction:.2f}x target "
                f"{target:.3f}s; shed_level -> {self.shed_level}",
            )
        elif p99 < self.release_fraction * target and self.shed_level > 0:
            self.shed_level -= 1
            self._last_level_change = now
            self.log.record(
                now,
                "admission",
                self.guarded_use_case,
                "shed_release",
                f"p99 {p99:.3f}s < {self.release_fraction:.2f}x target "
                f"{target:.3f}s; shed_level -> {self.shed_level}",
            )

    # -- admission -----------------------------------------------------------

    def pressure_level(self) -> int:
        """Instantaneous shed level demanded by the queue-pressure probe."""
        if self.pressure is None or not self.pressure_levels:
            return 0
        value = self.pressure()
        level = 0
        for i, threshold in enumerate(self.pressure_levels):
            if value > threshold:
                level = i + 1
        return min(level, len(TIER_ORDER) - 1)

    def admit(self, request: QueryRequest) -> AdmissionDecision:
        """Decide one request at its arrival time."""
        if PERF.enabled:
            PERF.inc("controlplane.admission_checks")
        tier = tier_of(request.use_case)
        now = request.arrival_time
        level = max(self.shed_level, self.pressure_level())
        shed_floor = len(TIER_ORDER) - level
        if tier >= shed_floor:
            return self._shed(
                request,
                tier,
                f"slo-shed level={level} "
                f"(tier {tier} >= floor {shed_floor})",
                now,
            )
        bucket = self._buckets.get(request.use_case)
        if bucket is not None and not bucket.try_take(now):
            return self._shed(request, tier, "rate-limit", now)
        self.admitted += 1
        return AdmissionDecision(True, tier, request.use_case, "admitted")

    def _shed(
        self, request: QueryRequest, tier: int, reason: str, now: float
    ) -> AdmissionDecision:
        self.shed += 1
        if PERF.enabled:
            PERF.inc("controlplane.shed_decisions")
        self.log.record(
            now, "admission", request.request_id,
            "shed", f"{request.use_case} tier={tier} {reason}",
        )
        return AdmissionDecision(False, tier, request.use_case, reason)
