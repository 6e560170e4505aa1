"""The deterministic chaos harness (ties the whole paper together).

Production confidence at Uber comes from surviving failures, not from the
happy path: broker loss with leader re-election (Section 4.1), Flink
crash-restore from the last snapshot with Kafka offset rewind (Section
4.2), Pinot server death with peer-to-peer segment recovery (Section
4.3.4), segment-store outages, and full region failover under the
all-active coordinator (Section 6).  :class:`ChaosHarness` scripts those
faults against a :class:`~repro.platform.Platform` on its simulated
clock::

    p = Platform(seed=7).with_kafka().with_pinot()...
    chaos = (
        p.chaos()
        .kill_broker(at=10.0, broker_id=0)
        .restart_broker(at=25.0, broker_id=0)
        .crash_flink_job(at=40.0)
    )
    chaos.expect_no_acked_loss("orders", acked)
    chaos.run(until=120.0)
    report = chaos.report()
    assert report.ok, report.render()

Faults are scheduled as clock timers, so they also fire *inside* retry
backoffs (a produce retrying under a
:class:`~repro.common.retry.RetryPolicy` genuinely observes the broker
coming back mid-policy).  Every fault lands in the fault timeline, and —
when tracing is on — as a ``layer="chaos"`` span on a seed-derived trace
id, so ``Platform.dashboard()`` shows injected faults next to the
latencies they caused.  Same seed, same schedule ⇒ byte-identical
timeline and :class:`~repro.chaos.report.RecoveryReport`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.audit import lineage_digest
from repro.chaos import faults
from repro.chaos.faults import FaultEvent
from repro.chaos.report import InvariantResult, RecoveryReport
from repro.common.errors import (
    BrokerUnavailableError,
    ChaosError,
    OffsetOutOfRangeError,
)
from repro.common.rng import seeded_rng

#: Invariant checks return (passed, detail) or a bare bool.
InvariantCheck = Callable[[], "tuple[bool, str] | bool"]


class ChaosHarness:
    """Seeded fault scheduler + recovery verifier over one Platform."""

    def __init__(self, platform: Any, seed: int | None = None) -> None:
        self.platform = platform
        self.clock = platform.clock
        self.seed = platform.seed if seed is None else seed
        self.rng = seeded_rng(self.seed, "chaos")
        self.trace_id = f"chaos-{self.seed}"
        self.events: list[FaultEvent] = []
        self._invariants: list[tuple[str, InvariantCheck]] = []
        # Auditors registered via expect_integrity, in order: the
        # determinism gate byte-diffs their full rendered reports.
        self.auditors: list[Any] = []

    # -- recording ----------------------------------------------------------

    def _record(self, kind: str, target: str, detail: str = "") -> FaultEvent:
        event = FaultEvent(self.clock.now(), kind, target, detail)
        self.events.append(event)
        tracer = self.platform.tracer
        if tracer is not None:
            # Instantaneous span: the fault is a point on the timeline the
            # dashboard can correlate with surrounding latency spans.
            tracer.record_span(
                self.trace_id,
                kind,
                "chaos",
                start=event.time,
                end=event.time,
                target=target,
                detail=detail,
            )
        return event

    def at(
        self,
        time: float,
        action: Callable[[], str | None],
        kind: str = faults.CUSTOM,
        target: str = "",
    ) -> "ChaosHarness":
        """Schedule an arbitrary fault/repair; ``action``'s return value
        (if any) becomes the recorded event's detail."""

        def fire() -> None:
            detail = action()
            self._record(kind, target, detail or "")

        self.clock.call_at(time, fire)
        return self

    # -- kafka faults -------------------------------------------------------

    def kill_broker(self, at: float, broker_id: int) -> "ChaosHarness":
        """Broker death: partitions it led re-elect a live leader;
        unreplicated acks=1 records on it are at risk."""

        def action() -> None:
            self.platform.kafka.kill_broker(broker_id)

        return self.at(at, action, faults.KAFKA_KILL_BROKER, f"broker-{broker_id}")

    def restart_broker(self, at: float, broker_id: int) -> "ChaosHarness":
        """Broker return: diverged log suffixes truncate to the common
        prefix with the current leader, then resync."""

        def action() -> None:
            self.platform.kafka.restart_broker(broker_id)

        return self.at(
            at, action, faults.KAFKA_RESTART_BROKER, f"broker-{broker_id}"
        )

    def pause_replication(self, at: float) -> "ChaosHarness":
        """Freeze follower catch-up, widening the acks=1 loss window."""

        def action() -> None:
            self.platform.kafka.pause_replication()

        return self.at(
            at, action, faults.KAFKA_PAUSE_REPLICATION, self.platform.kafka.name
        )

    def resume_replication(self, at: float) -> "ChaosHarness":
        def action() -> None:
            self.platform.kafka.resume_replication()

        return self.at(
            at, action, faults.KAFKA_RESUME_REPLICATION, self.platform.kafka.name
        )

    # -- flink faults -------------------------------------------------------

    def _runtime(self, job: int):
        runtimes = self.platform.runtimes
        if not 0 <= job < len(runtimes):
            raise ChaosError(
                f"no Flink job #{job}; platform has {len(runtimes)} runtime(s)"
            )
        return runtimes[job]

    def checkpoint_flink(self, at: float, job: int = 0) -> "ChaosHarness":
        """Take a barrier-aligned snapshot (the state a later crash
        restores)."""

        def action() -> str:
            checkpoint_id = self._runtime(job).trigger_checkpoint()
            return f"checkpoint {checkpoint_id}"

        return self.at(at, action, faults.FLINK_CHECKPOINT, f"job-{job}")

    def crash_flink_job(self, at: float, job: int = 0) -> "ChaosHarness":
        """Crash mid-window: discard in-flight state, restore operator
        state from the last completed snapshot and rewind the Kafka source
        offsets to it (exactly-once internal state; exactly-once into
        transactional sinks too — their uncommitted 2PC buffers are
        aborted and re-emitted by the rewound sources — while eager sinks
        see at-least-once replay)."""

        def action() -> str:
            runtime = self._runtime(job)
            completed = runtime.completed_checkpoints()
            if not completed:
                raise ChaosError(
                    f"Flink job #{job} crashed with no completed checkpoint "
                    "to restore from; schedule checkpoint_flink() earlier"
                )
            checkpoint_id = completed[-1]
            runtime.restore_from(checkpoint_id)
            return f"restored from checkpoint {checkpoint_id}"

        return self.at(at, action, faults.FLINK_CRASH, f"job-{job}")

    # -- pinot faults -------------------------------------------------------

    def kill_pinot_server(self, at: float, name: str) -> "ChaosHarness":
        def action() -> None:
            self.platform.pinot.kill_server(name)

        return self.at(at, action, faults.PINOT_KILL_SERVER, name)

    def recover_pinot_server(
        self, at: float, failed: str, replacement: str
    ) -> "ChaosHarness":
        """Peer-to-peer recovery: a replacement server re-hosts the dead
        server's sealed segments from live replica peers (store fallback),
        takes over its partitions and re-consumes in-flight rows."""
        from repro.pinot.server import PinotServer

        def action() -> str:
            recovered = self.platform.pinot.recover_server(
                failed, PinotServer(replacement)
            )
            return f"{recovered} segments -> {replacement}"

        return self.at(at, action, faults.PINOT_RECOVER_SERVER, failed)

    # -- storage faults -----------------------------------------------------

    def _store(self, store: Any):
        if isinstance(store, str):
            named = {
                "segments": self.platform.segment_store,
                "checkpoints": self.platform.checkpoint_store,
            }
            if store not in named:
                raise ChaosError(
                    f"unknown store {store!r}; use 'segments', 'checkpoints' "
                    "or pass a BlobStore"
                )
            return named[store]
        return store

    def blob_outage(
        self, at: float, until: float, store: Any = "segments"
    ) -> "ChaosHarness":
        """Blob store down between ``at`` and ``until``: puts/gets raise
        ``StorageUnavailableError``; backup queues hold, P2P ingestion
        continues, centralized ingestion blocks."""
        target = self._store(store)
        if until <= at:
            raise ChaosError(f"outage must end after it starts: {at} .. {until}")
        self.at(
            at,
            lambda: target.set_available(False),
            faults.STORAGE_OUTAGE,
            target.name,
        )
        return self.at(
            until,
            lambda: target.set_available(True),
            faults.STORAGE_RESTORE,
            target.name,
        )

    # -- multi-region faults ------------------------------------------------

    def fail_region(
        self, at: float, coordinator: Any, region: str
    ) -> "ChaosHarness":
        """Region disaster: the all-active coordinator re-elects a healthy
        primary and flips the update services (Section 6)."""

        def action() -> str:
            primary = coordinator.fail_region(region)
            return f"primary -> {primary}"

        return self.at(at, action, faults.REGION_FAIL, region)

    def recover_region(
        self, at: float, coordinator: Any, region: str
    ) -> "ChaosHarness":
        def action() -> None:
            coordinator.recover_region(region)

        return self.at(at, action, faults.REGION_RECOVER, region)

    # -- driving ------------------------------------------------------------

    def run(self, until: float, dt: float = 1.0) -> "ChaosHarness":
        """Drive the platform to simulated time ``until``, firing every
        scheduled fault on the way (they trigger inside ``clock.advance``,
        interleaved with replication, Flink rounds and Pinot ingestion)."""
        while self.clock.now() < until - 1e-9:
            self.platform.step(min(dt, until - self.clock.now()))
        return self

    # -- invariants ---------------------------------------------------------

    def add_invariant(self, name: str, check: InvariantCheck) -> "ChaosHarness":
        """Register a recovery invariant, evaluated (in order) by
        :meth:`report`; ``check`` returns (passed, detail) or a bool."""
        self._invariants.append((name, check))
        return self

    def expect_no_acked_loss(
        self,
        topic: str,
        acked: list,
        name: str = "no-acked-loss",
    ) -> "ChaosHarness":
        """Every acknowledged record must still be readable after recovery.

        ``acked`` holds ``(partition, offset)`` pairs — optionally
        ``(partition, offset, digest)``, the acked value's
        :func:`~repro.audit.lineage_digest`, to also catch an offset that
        survived but was silently *replaced* by a diverged entry.  This is the
        acks=all zero-loss guarantee (Section 9.2); under acks=1 use it
        with the predicted-surviving subset.
        """

        def check() -> tuple[bool, str]:
            kafka = self.platform.kafka
            lost = []
            for item in sorted(set(tuple(a) for a in acked)):
                partition, offset = item[0], item[1]
                digest = item[2] if len(item) > 2 else None
                try:
                    entries = kafka.fetch(topic, partition, offset, 1)
                except (BrokerUnavailableError, OffsetOutOfRangeError):
                    lost.append((partition, offset))
                    continue
                if not entries or entries[0].offset != offset:
                    lost.append((partition, offset))
                elif digest not in (None, lineage_digest(entries[0].record.value)):
                    lost.append((partition, offset))
            if lost:
                detail = f"lost {len(lost)}/{len(acked)}: {lost[:5]}"
            else:
                detail = f"{len(acked)} acked records all present"
            return not lost, detail

        return self.add_invariant(name, check)

    def expect_equal(
        self, name: str, actual: Callable[[], Any], expected: Any
    ) -> "ChaosHarness":
        """Post-recovery state must equal the fault-free expectation — the
        exactly-once check: window sums after a crash-restore must match
        the sums computed directly from the input."""

        def check() -> tuple[bool, str]:
            value = actual()
            if value == expected:
                return True, f"matches expectation ({_brief(expected)})"
            return False, f"expected {_brief(expected)}, got {_brief(value)}"

        return self.add_invariant(name, check)

    def expect_integrity(
        self, auditor: Any, name: str | None = None
    ) -> "ChaosHarness":
        """After the fault timeline settles, the cross-layer integrity
        audit (Section 9.4) must come back clean: every expected record
        present exactly once, in per-key order, at every registered stage
        (Kafka topic logs, Pinot table scans).  The auditor's scans run
        lazily at :meth:`report` time, so register this before ``run()``.
        The full :class:`~repro.audit.IntegrityReport` stays on
        ``auditor.last_report`` for rendering/diffing."""

        def check() -> tuple[bool, str]:
            report = auditor.reconcile()
            return report.ok, report.summary()

        self.auditors.append(auditor)
        return self.add_invariant(name or f"integrity:{auditor.name}", check)

    def expect_freshness(
        self, table: str, target_seconds: float, name: str | None = None
    ) -> "ChaosHarness":
        """After the dust settles the freshness SLO must be re-attained:
        at check time every partition's staleness (how long its oldest
        not-yet-queryable row has waited) is within ``target_seconds``.
        On a traced platform the table's append → queryable samples feed
        the SLO monitor, so the dashboard shows the run's freshness next
        to the fault spans."""

        def check() -> tuple[bool, str]:
            ingestion = self.platform.pinot.table(table).ingestion
            staleness = ingestion.staleness()
            if self.platform.tracer is not None:
                report = self.platform.freshness(table)
                self.platform.slo_monitor.ingest_report(table, report)
            unread = sorted(set(ingestion.partitions) - set(staleness))
            if unread:
                return False, f"no live leader for partitions {unread}"
            worst = max(staleness.values())
            return (
                worst <= target_seconds,
                f"max staleness {worst:.2f}s vs target {target_seconds:.2f}s",
            )

        return self.add_invariant(name or f"freshness-slo:{table}", check)

    # -- verdict ------------------------------------------------------------

    def report(self) -> RecoveryReport:
        """Evaluate every invariant (in registration order) and return the
        run's :class:`RecoveryReport`."""
        results = []
        for name, check in self._invariants:
            outcome = check()
            if isinstance(outcome, tuple):
                passed, detail = outcome
            else:
                passed, detail = bool(outcome), ""
            results.append(InvariantResult(name, passed, detail))
        return RecoveryReport(self.seed, tuple(self.events), tuple(results))


def _brief(value: Any, limit: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
