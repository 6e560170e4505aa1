"""Chaperone: one auditor for every stage of a pipeline (Sections 4.1.4, 9.4).

Chaperone "collects key statistics like the number of unique messages in a
tumbling time window from every stage of the replication pipeline",
compares them, and alerts on mismatch.  An :class:`IntegrityAuditor`
audits one dataset.  Its observation store holds, per stage, an ordered
list of ``(key, lineage_digest(value), event_time)``.  The first stage is
the expected ledger, filled by :meth:`~IntegrityAuditor.record_expected`
(it has no event time); every other stage is a deferred scan — a Kafka
topic log, a Pinot table, an in-hand list of records — run when a report
is asked for, so the chaos harness registers an audit before its fault
timeline and reads it after recovery settles.

A record's identity is its lineage digest, a hash of its equality-canonical
serde encoding: one payload digests the same in the ledger, a Kafka log
entry or a Pinot row, whatever its dict order or int/float drift.  Keys are
canonicalized the same way.  Two reports share one multiset diff:
:meth:`~IntegrityAuditor.reconcile` diffs each stage against the ledger,
per key and in order (the deterministic :class:`IntegrityReport`), and
:meth:`~IntegrityAuditor.window_report` diffs each stage against the one
before it, per event-time window (Chaperone's :class:`AuditAlert` s).
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.common import serde
from repro.common.errors import AuditError
from repro.common.records import Record

#: One observation at one stage: (key, lineage digest, event time).
Observation = tuple[Any, str, Any]


def lineage_digest(value: Any) -> str:
    """Content fingerprint of one record payload (16 hex chars)."""
    return hashlib.blake2b(serde.encode_key(value), digest_size=8).hexdigest()


def _diff(expected: Iterable, observed: Iterable) -> tuple[Counter, Counter]:
    """The one multiset diff both reports use: (lost, extra)."""
    want, got = Counter(expected), Counter(observed)
    return want - got, got - want


@dataclass(frozen=True)
class KeyFinding:
    """One key's discrepancy at one stage."""

    key: str  # display form of the record key
    count: int  # how many records are missing/duplicated for this key
    digests: tuple[str, ...]  # the affected lineage digests, sorted


@dataclass(frozen=True)
class StageReport:
    stage: str
    expected_records: int
    observed_records: int
    missing: tuple[KeyFinding, ...]
    duplicated: tuple[KeyFinding, ...]
    # Keys whose record *multiset* matches but whose per-key order differs
    # (a re-delivery that jumped the line).
    reordered: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not (self.missing or self.duplicated or self.reordered)

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.stage}: OK "
                f"({self.observed_records}/{self.expected_records} records)"
            )
        parts = []
        if self.missing:
            parts.append(f"missing {sum(f.count for f in self.missing)}")
        if self.duplicated:
            parts.append(f"duplicated {sum(f.count for f in self.duplicated)}")
        if self.reordered:
            parts.append(f"reordered keys {len(self.reordered)}")
        return f"{self.stage}: FAIL ({', '.join(parts)})"


@dataclass(frozen=True)
class IntegrityReport:
    """``render()`` is byte-stable: findings are sorted by display key, so
    the same seed and fault timeline render the same report."""

    name: str
    stages: tuple[StageReport, ...]

    @property
    def ok(self) -> bool:
        return all(stage.ok for stage in self.stages)

    def summary(self) -> str:
        verdict = "CLEAN" if self.ok else "VIOLATED"
        return f"integrity[{self.name}]: {verdict}; " + "; ".join(
            stage.summary() for stage in self.stages
        )

    def render(self) -> str:
        lines = [f"=== integrity report: {self.name} ==="]
        for stage in self.stages:
            lines.append(
                f"stage {stage.stage}: expected={stage.expected_records} "
                f"observed={stage.observed_records} "
                f"{'OK' if stage.ok else 'FAIL'}"
            )
            for label, findings in (
                ("missing", stage.missing),
                ("duplicated", stage.duplicated),
            ):
                for finding in findings:
                    lines.append(
                        f"  {label} key={finding.key} x{finding.count} "
                        f"digests={','.join(finding.digests)}"
                    )
            for key in stage.reordered:
                lines.append(f"  reordered key={key}")
        lines.append(f"verdict: {'CLEAN' if self.ok else 'VIOLATED'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class AuditAlert:
    """One window in which a stage lost or duplicated its upstream's records."""

    window_start: float
    upstream: str
    downstream: str
    missing_count: int
    duplicate_count: int

    def describe(self) -> str:
        return (
            f"window@{self.window_start:.0f}: {self.downstream} is missing "
            f"{self.missing_count} of {self.upstream}'s messages "
            f"({self.duplicate_count} duplicates)"
        )


def _per_key(observations: list[Observation]):
    """Canonical key -> digests in order, and -> the first key's repr."""
    digests: dict[bytes, list[str]] = {}
    names: dict[bytes, str] = {}
    for key, digest, __ in observations:
        canonical = serde.encode_key(key)
        digests.setdefault(canonical, []).append(digest)
        names.setdefault(canonical, repr(key))
    return digests, names


def _per_window(stage: str, observations: list[Observation], width: float):
    """Window start -> the (canonical key, digest) identities inside it."""
    windows: dict[float, list[tuple[bytes, str]]] = {}
    for key, digest, event_time in observations:
        try:
            start = math.floor(event_time / width) * width
        except (TypeError, ValueError, OverflowError):
            message = f"stage {stage!r}: event time {event_time!r} is not finite"
            raise AuditError(message) from None
        windows.setdefault(start, []).append((serde.encode_key(key), digest))
    return windows


def _finding(key: str, digests: Counter) -> KeyFinding:
    return KeyFinding(key, sum(digests.values()), tuple(sorted(digests.elements())))


class IntegrityAuditor:
    def __init__(self, name: str) -> None:
        self.name = name
        self._expected: list[Observation] = []
        self._stages: list[tuple[str, Callable[[], Iterable[Observation]]]] = [
            ("expected", lambda: self._expected)
        ]
        self.last_report: IntegrityReport | None = None

    def record_expected(self, key: Any, value: Any) -> str:
        """Workload-generator hook: one record that MUST survive; returns
        its lineage digest."""
        digest = lineage_digest(value)
        self._expected.append((key, digest, None))
        return digest

    # -- stages --------------------------------------------------------------

    def _add(self, stage: str, scan: Callable[[], Iterable]) -> "IntegrityAuditor":
        """Register a deferred scan yielding ``(key, value, event_time)``."""

        def observe() -> list[Observation]:
            return [(key, lineage_digest(value), t) for key, value, t in scan()]

        self._stages.append((stage, observe))
        return self

    def add_stage(self, stage: str, records: Sequence[Record]) -> "IntegrityAuditor":
        """An in-hand list of records, read when a report runs."""
        return self._add(
            stage, lambda: ((r.key, r.value, r.event_time) for r in records)
        )

    def add_kafka_stage(
        self,
        cluster: Any,
        topic: str,
        stage: str | None = None,
        key_fn: Callable[[Record], Any] | None = None,
        where: Callable[[Record], bool] | None = None,
    ) -> "IntegrityAuditor":
        """Scan a Kafka topic log, partitions in order, offsets in order.

        Per-key observation order is faithful because the hash partitioner
        sends all records of one key to one partition.  ``key_fn`` maps a
        log record to the audited key (default: the record's own key);
        ``where`` keeps only matching records (for excluding out-of-ledger
        traffic like probe sentinels).
        """

        def scan() -> Iterable[tuple]:
            for partition in range(cluster.partition_count(topic)):
                start = cluster.start_offset(topic, partition)
                end = cluster.end_offset(topic, partition)
                for entry in cluster.fetch(topic, partition, start, end - start):
                    record = entry.record
                    if where is None or where(record):
                        key = record.key if key_fn is None else key_fn(record)
                        yield key, record.value, record.event_time

        return self._add(stage or f"kafka:{topic}", scan)

    def add_pinot_stage(
        self,
        controller: Any,
        table: str,
        stage: str | None = None,
        key_fn: Callable[[dict], Any] | None = None,
        where: Callable[[dict], bool] | None = None,
    ) -> "IntegrityAuditor":
        """Scan every row of a realtime Pinot table: partitions in order,
        each partition's sealed segments in seal order, then the consuming
        segment — i.e. ingestion order, so per-key order is faithful.

        The key is the table's partition column unless ``key_fn`` maps a
        row to one; the value is the whole row, the event time its time
        column; ``where`` keeps only matching rows.
        """

        def scan() -> Iterable[tuple]:
            state = controller.table(table)
            column = state.config.partition_column
            if column is None and key_fn is None:
                raise AuditError(
                    f"table {table!r} has no partition column; pass key_fn="
                )
            time_column = state.config.time_column
            for partition in sorted(state.ingestion.partitions):
                owner = state.ingestion.partitions[partition].owner
                for seg_name in state.ingestion.segments_of_partition(partition):
                    segment = owner.segments.get(seg_name)
                    if segment is None:
                        # Sealed copy lost from the owner: surface it as
                        # missing records rather than crashing the audit.
                        continue
                    for doc_id in range(segment.num_docs):
                        row = segment.row(doc_id)
                        if where is None or where(row):
                            key = row[column] if key_fn is None else key_fn(row)
                            yield key, row, row.get(time_column)

        return self._add(stage or f"pinot:{table}", scan)

    # -- reports -------------------------------------------------------------

    def _observe(self) -> list[tuple[str, list[Observation]]]:
        return [(stage, list(scan())) for stage, scan in self._stages]

    def reconcile(self) -> IntegrityReport:
        """Run every scan and diff each stage against the ledger, per key
        and in order: **missing** (digests in the ledger, not the stage),
        **duplicated** (the reverse), **reordered** (same multiset,
        different per-key order)."""
        [(__, ledger), *scanned] = self._observe()
        expected, expected_names = _per_key(ledger)
        reports = []
        for stage, observations in scanned:
            observed, names = _per_key(observations)
            names.update(expected_names)  # the ledger's spelling of a key wins
            missing, duplicated, reordered = [], [], []
            for canonical in sorted(set(expected) | set(observed), key=names.get):
                exp = expected.get(canonical, [])
                obs = observed.get(canonical, [])
                if exp == obs:
                    continue
                lost, extra = _diff(exp, obs)
                if lost:
                    missing.append(_finding(names[canonical], lost))
                if extra:
                    duplicated.append(_finding(names[canonical], extra))
                if not lost and not extra:
                    reordered.append(names[canonical])
            found = tuple(missing), tuple(duplicated), tuple(reordered)
            reports.append(StageReport(stage, len(ledger), len(observations), *found))
        self.last_report = IntegrityReport(self.name, tuple(reports))
        return self.last_report

    def window_report(self, window_seconds: float) -> list[AuditAlert]:
        """Chaperone's check: run every scan, count each stage per tumbling
        event-time window, and alert on every window (seen at either end)
        in which a stage lost or duplicated records of the stage before
        it.  The ledger has no event times, so it takes no part."""
        if not (0 < window_seconds < math.inf):
            raise AuditError(
                f"window must be positive and finite, got {window_seconds}"
            )
        stages = [
            (stage, _per_window(stage, observations, window_seconds))
            for stage, observations in self._observe()[1:]
        ]
        alerts = []
        for (upstream, up), (downstream, down) in zip(stages, stages[1:]):
            for window in sorted(set(up) | set(down)):
                lost, extra = _diff(up.get(window, ()), down.get(window, ()))
                if lost or extra:
                    counts = sum(lost.values()), sum(extra.values())
                    alerts.append(AuditAlert(window, upstream, downstream, *counts))
        return alerts
