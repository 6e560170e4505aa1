"""Cross-layer reactive autoscaling (§3 scalability, §4.2.1 generalized).

``repro.flink.autoscaler.AutoScaler`` sizes one layer: Flink jobs.  The
paper's cost story needs the *whole* Figure 3 path to track load — Kafka
partitions expand under write pressure, Pinot ingestion capacity follows
consumer lag, Presto workers follow query queue depth — each with its own
hysteresis so the layers do not resonate.

:class:`CrossLayerController` generalizes the pattern: any resource is a
:class:`ResourcePolicy` — a signal callable, thresholds, a unit range and
an actuator — evaluated on a shared cadence.  Flink jobs plug in through
the existing :class:`AutoScaler` (now keyed per job), so the Flink-
specific heuristics (lag trend, memory pressure, utilization bands) stay
in one place while this controller owns cadence, hysteresis and the
decision log.

Hysteresis per resource:

* a **cooldown** after any action (no follow-up action until
  ``cooldown_s`` sim-seconds have passed — scaling must see its own
  effect before acting again);
* scale-down additionally requires ``stable_evals`` *consecutive*
  below-threshold observations, so one quiet tick never halves capacity.

Every applied action is recorded in the shared
:class:`~repro.controlplane.admission.DecisionLog` — same seed, byte-
identical log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.common.perf import PERF
from repro.controlplane.admission import DecisionLog
from repro.flink.autoscaler import AutoScaler


@dataclass
class ResourcePolicy:
    """One scalable resource: signal in, unit count out.

    ``signal``   — current load measure (backlog, lag, queued seconds).
    ``current``  — current capacity units (partitions, servers, workers).
    ``apply``    — actuator setting the new unit count.
    Scale-up multiplies units by ``factor`` (ceil) when ``signal >
    scale_up_threshold``; scale-down halves them when ``signal <
    scale_down_threshold`` for ``stable_evals`` consecutive evaluations.
    ``scale_down_threshold=None`` disables scale-down (Kafka partitions
    cannot shrink).
    """

    name: str
    signal: Callable[[], float]
    current: Callable[[], int]
    apply: Callable[[int], None]
    scale_up_threshold: float
    scale_down_threshold: float | None = None
    factor: float = 2.0
    min_units: int = 1
    max_units: int = 64
    cooldown_s: float = 20.0
    stable_evals: int = 3


@dataclass
class _PolicyState:
    last_action_t: float = -math.inf
    below_count: int = 0


@dataclass
class _FlinkJob:
    job_id: str
    lag: Callable[[], float]
    state_bytes: Callable[[], float]
    current: Callable[[], int]
    apply: Callable[[int], None]
    input_rate: Callable[[], float] | None = None
    capacity_per_subtask: float = 5000.0
    # Interval-join buffered state vs its spill budget (>= 1.0 means the
    # join would spill); see JobRuntime.join_spill_pressure.
    spill_pressure: Callable[[], float] | None = None


class CrossLayerController:
    """Evaluates every registered resource policy on one cadence."""

    def __init__(
        self,
        log: DecisionLog | None = None,
        autoscaler: AutoScaler | None = None,
        flink_cooldown_s: float = 20.0,
    ) -> None:
        self.log = log if log is not None else DecisionLog()
        self.autoscaler = autoscaler or AutoScaler()
        self.flink_cooldown_s = flink_cooldown_s
        self._policies: list[ResourcePolicy] = []
        self._policy_state: dict[str, _PolicyState] = {}
        self._flink_jobs: list[_FlinkJob] = []
        self._flink_state: dict[str, _PolicyState] = {}

    # -- registration --------------------------------------------------------

    def add_policy(self, policy: ResourcePolicy) -> None:
        self._policies.append(policy)
        self._policy_state[policy.name] = _PolicyState()

    def add_flink_job(
        self,
        job_id: str,
        lag: Callable[[], float],
        state_bytes: Callable[[], float],
        current: Callable[[], int],
        apply: Callable[[int], None],
        input_rate: Callable[[], float] | None = None,
        capacity_per_subtask: float = 5000.0,
        spill_pressure: Callable[[], float] | None = None,
    ) -> None:
        """Scale a Flink job through the (per-job-keyed) AutoScaler."""
        self._flink_jobs.append(
            _FlinkJob(
                job_id, lag, state_bytes, current, apply,
                input_rate, capacity_per_subtask, spill_pressure,
            )
        )
        self._flink_state[job_id] = _PolicyState()

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: float) -> int:
        """One control tick; returns the number of actions applied."""
        if PERF.enabled:
            PERF.inc("controlplane.scaler_evals")
        actions = 0
        for policy in self._policies:
            actions += self._evaluate_policy(policy, now)
        for job in self._flink_jobs:
            actions += self._evaluate_flink(job, now)
        return actions

    def _evaluate_policy(self, policy: ResourcePolicy, now: float) -> int:
        state = self._policy_state[policy.name]
        value = policy.signal()
        units = policy.current()
        if now - state.last_action_t < policy.cooldown_s:
            return 0
        if value > policy.scale_up_threshold:
            state.below_count = 0
            new = min(policy.max_units, math.ceil(units * policy.factor))
            if new > units:
                self._apply(policy, state, now, units, new, "scale_up", value)
                return 1
            return 0
        if (
            policy.scale_down_threshold is not None
            and value < policy.scale_down_threshold
        ):
            state.below_count += 1
            if state.below_count >= policy.stable_evals:
                new = max(policy.min_units, units // 2)
                if new < units:
                    self._apply(
                        policy, state, now, units, new, "scale_down", value
                    )
                    return 1
            return 0
        state.below_count = 0
        return 0

    def _apply(
        self,
        policy: ResourcePolicy,
        state: _PolicyState,
        now: float,
        old: int,
        new: int,
        action: str,
        value: float,
    ) -> None:
        policy.apply(new)
        state.last_action_t = now
        state.below_count = 0
        if PERF.enabled:
            PERF.inc("controlplane.scale_actions")
        self.log.record(
            now, "scaler", policy.name, action,
            f"signal {value:.3f} vs up>{policy.scale_up_threshold:g}"
            + (
                f"/down<{policy.scale_down_threshold:g}"
                if policy.scale_down_threshold is not None
                else ""
            )
            + f"; units {old} -> {new}",
        )

    def _evaluate_flink(self, job: _FlinkJob, now: float) -> int:
        state = self._flink_state[job.job_id]
        if now - state.last_action_t < self.flink_cooldown_s:
            # Still observe the lag so the trend stays per-job continuous.
            self.autoscaler.evaluate(
                parallelism=job.current(),
                source_lag=job.lag(),
                state_bytes=job.state_bytes(),
                input_rate=job.input_rate() if job.input_rate else 0.0,
                capacity_per_subtask=job.capacity_per_subtask,
                job_id=job.job_id,
                spill_pressure=(job.spill_pressure() if job.spill_pressure else 0.0),
            )
            return 0
        units = job.current()
        decision = self.autoscaler.evaluate(
            parallelism=units,
            source_lag=job.lag(),
            state_bytes=job.state_bytes(),
            input_rate=job.input_rate() if job.input_rate else 0.0,
            capacity_per_subtask=job.capacity_per_subtask,
            job_id=job.job_id,
            spill_pressure=job.spill_pressure() if job.spill_pressure else 0.0,
        )
        if decision.action == "hold" or decision.new_parallelism == units:
            return 0
        job.apply(decision.new_parallelism)
        state.last_action_t = now
        if PERF.enabled:
            PERF.inc("controlplane.scale_actions")
        self.log.record(
            now, "scaler", f"flink.{job.job_id}", decision.action,
            f"{decision.reason}; units {units} -> {decision.new_parallelism}",
        )
        return 1
