"""The :class:`ControlPlane` facade: admission + scaling on a Platform.

The surge experiment (``benchmarks/core/surge.py``) wires the control
loops by hand; this facade offers the same loops to anyone holding a
:class:`~repro.platform.Platform`::

    p = Platform(seed=7).with_kafka().with_pinot().with_presto()
    cp = p.with_control_plane()          # returns the Platform (builder)
    cp = p.control_plane
    cp.watch_flink(runtime)              # scale scheduler rounds on lag
    cp.watch_pinot_table("city_stats")   # scale ingest slots on lag
    cp.watch_presto()                    # scale workers on admitted load
    decision, output = cp.sql("SELECT ...", use_case="exploration")

``Platform.step`` drives the loop: each tick applies the current Flink
round boosts and Pinot ingest-slot boosts, then evaluates the
cross-layer controller on its cadence.  Admission-guarded queries go
through :meth:`sql` / :meth:`pinot_query`, which return the
:class:`~repro.controlplane.admission.AdmissionDecision` alongside the
result (``None`` when shed) — callers feed completion latencies back via
:meth:`observe_latency` to close the loop.

The platform executes queries synchronously, so the facade has no query
queue; the admission controller's *fast* pressure loop (see the surge
driver) is wired only when a caller passes a ``pressure`` probe.
"""

from __future__ import annotations

from typing import Callable

from repro.controlplane.admission import (
    TIER_QUERY_SLOS,
    AdmissionController,
    AdmissionDecision,
    DecisionLog,
    QueryRequest,
)
from repro.controlplane.scaler import CrossLayerController, ResourcePolicy


class ControlPlane:
    """Admission control + cross-layer scaling over one Platform."""

    def __init__(
        self,
        platform,
        targets=TIER_QUERY_SLOS,
        tier_rates: dict[str, float] | None = None,
        tier_burst: float = 40.0,
        eval_interval: float = 5.0,
        pressure: Callable[[], float] | None = None,
        pressure_levels: tuple[float, ...] = (),
    ) -> None:
        self.platform = platform
        self.log = DecisionLog()
        self.admission = AdmissionController(
            targets=targets,
            tier_rates=tier_rates,
            tier_burst=tier_burst,
            pressure=pressure,
            pressure_levels=pressure_levels,
            log=self.log,
        )
        self.scaler = CrossLayerController(log=self.log)
        self.eval_interval = eval_interval
        self._next_eval = 0.0
        self._flink_boost: dict[str, int] = {}
        self._ingest_slots: dict[str, int] = {}
        self._seq = 0

    # -- watchers (register resources with the scaler) -----------------------

    def watch_flink(
        self,
        runtime,
        lag_threshold: int = 1_000,
        max_boost: int = 8,
    ) -> None:
        """Scale a job's scheduler-round boost off its source lag.

        The runtime's graph keeps its parallelism; extra capacity arrives
        as additional ``run_rounds`` per :meth:`Platform.step` tick — the
        simulation's stand-in for adding task slots.
        """
        job_id = runtime.graph.name
        self._flink_boost[job_id] = 1
        self.scaler.autoscaler.scale_up_lag_threshold = lag_threshold
        self.scaler.add_flink_job(
            job_id,
            lag=lambda: float(runtime.total_source_lag()),
            state_bytes=lambda: float(runtime.total_state_bytes()),
            current=lambda: self._flink_boost[job_id],
            apply=lambda n: self._flink_boost.__setitem__(
                job_id, min(n, max_boost)
            ),
        )

    def watch_pinot_table(
        self,
        table: str,
        lag_threshold: float = 500.0,
        lag_low: float = 50.0,
        max_slots: int = 8,
    ) -> None:
        """Scale a realtime table's per-step ingest slots off consumer lag."""
        state = self.platform.pinot.table(table)
        self._ingest_slots[table] = 1
        self.scaler.add_policy(
            ResourcePolicy(
                name=f"pinot.{table}.ingest_slots",
                signal=lambda: float(state.ingestion.lag()),
                current=lambda: self._ingest_slots[table],
                apply=lambda n: self._ingest_slots.__setitem__(table, n),
                scale_up_threshold=lag_threshold,
                scale_down_threshold=lag_low,
                max_units=max_slots,
                cooldown_s=2 * self.eval_interval,
            )
        )

    def watch_topic(
        self,
        topic: str,
        max_rps_per_partition: float,
        max_partitions: int = 16,
    ) -> None:
        """Expand a topic's partitions when produce rate outgrows them."""
        kafka = self.platform.kafka
        window = {"last_total": 0.0, "last_t": self.platform.clock.now()}

        def rate_per_partition() -> float:
            count = kafka.partition_count(topic)
            total = float(
                sum(kafka.end_offset(topic, p) for p in range(count))
            )
            now = self.platform.clock.now()
            dt = now - window["last_t"]
            rate = (total - window["last_total"]) / dt if dt > 0 else 0.0
            window["last_total"] = total
            window["last_t"] = now
            return rate / count

        self.scaler.add_policy(
            ResourcePolicy(
                name=f"kafka.{topic}.partitions",
                signal=rate_per_partition,
                current=lambda: kafka.partition_count(topic),
                apply=lambda n: kafka.expand_partitions(
                    topic, n - kafka.partition_count(topic)
                ),
                scale_up_threshold=max_rps_per_partition,
                scale_down_threshold=None,  # kafka cannot shrink
                max_units=max_partitions,
                cooldown_s=4 * self.eval_interval,
            )
        )

    def watch_presto(
        self,
        signal: Callable[[], float] | None = None,
        scale_up_threshold: float = 0.5,
        scale_down_threshold: float = 0.05,
        max_workers: int = 16,
    ) -> None:
        """Scale the Presto stage scheduler's worker count.

        Default signal: admitted queries per eval interval per worker —
        a queue-depth probe can be passed in instead (the surge driver
        does).
        """
        engine = self.platform.presto
        window = {"last_admitted": 0}

        def admitted_per_worker() -> float:
            admitted = self.admission.admitted
            delta = admitted - window["last_admitted"]
            window["last_admitted"] = admitted
            return delta / max(1, engine.scheduler.workers)

        self.scaler.add_policy(
            ResourcePolicy(
                name="presto.workers",
                signal=signal or admitted_per_worker,
                current=lambda: engine.scheduler.workers,
                apply=lambda n: setattr(engine.scheduler, "workers", n),
                scale_up_threshold=scale_up_threshold,
                scale_down_threshold=scale_down_threshold,
                max_units=max_workers,
                cooldown_s=2 * self.eval_interval,
            )
        )

    # -- hooks Platform.step consults ----------------------------------------

    def flink_boost(self, job_id: str) -> int:
        return self._flink_boost.get(job_id, 1)

    def ingest_slots(self, table: str) -> int:
        return self._ingest_slots.get(table, 1)

    def tick(self, now: float) -> int:
        """Evaluate the scaler on its cadence; returns actions applied."""
        if now < self._next_eval:
            return 0
        self._next_eval = now + self.eval_interval
        actions = self.scaler.evaluate(now)
        tracer = self.platform.tracer
        if actions and tracer is not None:
            tracer.record_span(
                trace_id=f"controlplane-{now:.3f}",
                name="scale",
                layer="controlplane",
                start=now,
                end=now,
                actions=actions,
            )
        return actions

    # -- admission-guarded execution -----------------------------------------

    def _request(self, use_case: str, user_id: str, param: int) -> QueryRequest:
        self._seq += 1
        return QueryRequest(
            request_id=f"cp-{self._seq:07d}",
            user_id=user_id,
            use_case=use_case,
            arrival_time=self.platform.clock.now(),
            param=param,
        )

    def sql(
        self,
        query: str,
        use_case: str,
        user_id: str = "user-000000000",
        param: int = 0,
    ):
        """Admission-gated Presto query.

        Returns ``(decision, output)``; ``output`` is ``None`` when shed.
        """
        decision = self.admission.admit(self._request(use_case, user_id, param))
        if not decision.admitted:
            return decision, None
        return decision, self.platform.presto.execute(query)

    def pinot_query(
        self,
        query,
        use_case: str,
        user_id: str = "user-000000000",
        param: int = 0,
    ):
        """Admission-gated broker query; ``(decision, result | None)``."""
        decision = self.admission.admit(self._request(use_case, user_id, param))
        if not decision.admitted:
            return decision, None
        return decision, self.platform.broker.execute(query)

    def observe_latency(self, use_case: str, latency: float) -> None:
        """Feed a completed query's latency back into the p99 guard."""
        self.admission.observe_latency(
            use_case, latency, self.platform.clock.now()
        )

    def admit(self, use_case: str, user_id: str = "user-000000000", param: int = 0) -> AdmissionDecision:
        """Bare admission check (callers running the query themselves)."""
        return self.admission.admit(self._request(use_case, user_id, param))
