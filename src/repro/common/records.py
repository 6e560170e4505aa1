"""The record envelope that flows through the whole stack.

Section 9.4 of the paper ("Data auditing") describes how every business
event is decorated by the Kafka client with a unique identifier, the
application timestamp, the producing service name and a tier.  We model
the same envelope here; the uid is the record's trace id.  The auditor
(:mod:`repro.audit`) identifies a record by its content digest instead, so
a stage that rebuilds a record without its headers is still audited.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

_uid_counter = itertools.count(1)


def next_uid(prefix: str = "evt") -> str:
    """Return a process-unique event identifier."""
    return f"{prefix}-{next(_uid_counter)}"


def reset_uid_counter(start: int = 1) -> None:
    """Restart uid assignment at ``start``.

    The uid rides in the record headers, so its *string length* feeds the
    encoded record size and therefore producer batch boundaries.  Seeded
    workloads that must reproduce byte-for-byte within one process (the
    perf harness) reset the counter before each run; independent
    pipelines never compare uids across runs, so collisions between
    resets are harmless.
    """
    global _uid_counter
    _uid_counter = itertools.count(start)


@dataclass(slots=True)
class Record:
    """One event, a value: never assigned to after it is built.

    The log, every replica, the consumer and the Flink source share the
    same object, so a new key or payload is a new record
    (:meth:`with_key`, :meth:`with_value`).  Not ``frozen``: that would
    make every construction pay a ``__setattr__`` call per field;
    ``tests/property/test_element_values.py`` checks the rule instead.

    Attributes:
        key: partitioning key; ``None`` means round-robin placement.
        value: the payload, any JSON-like structure.
        event_time: application timestamp in seconds (when the event
            happened, as opposed to when it was appended to a log).
        headers: audit metadata (uid, service, tier, ...).
    """

    key: Any
    value: Any
    event_time: float
    headers: Mapping[str, Any] = field(default_factory=dict)

    def uid(self) -> str | None:
        """The audit identifier stamped by the producing client, if any."""
        return self.headers.get("uid")

    def with_value(self, value: Any) -> "Record":
        """Copy of this record carrying a new payload."""
        return Record(self.key, value, self.event_time, self.headers)

    def with_key(self, key: Any) -> "Record":
        """Copy of this record re-keyed for a downstream shuffle."""
        return Record(key, self.value, self.event_time, self.headers)


def stamp_audit(
    headers: dict[str, Any], service: str, tier: str, produced_at: float
) -> None:
    """Add the audit metadata of Section 9.4 to ``headers`` in place.

    A uid is only assigned once so that duplicates created downstream
    (retries, replication) keep the same uid, and so the same trace.
    """
    if headers.get("uid") is None:
        headers.update(
            uid=next_uid(), service=service, tier=tier, produced_at=produced_at
        )


def stamp_audit_headers(
    record: Record,
    service: str,
    tier: str = "standard",
) -> Record:
    """Copy of ``record`` decorated by :func:`stamp_audit`; existing
    headers are preserved and an already-stamped record is returned as is."""
    if record.uid() is not None:
        return record
    headers = dict(record.headers)
    stamp_audit(headers, service, tier, record.event_time)
    return Record(record.key, record.value, record.event_time, headers)
