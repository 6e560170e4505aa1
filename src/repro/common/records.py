"""The record envelope that flows through the whole stack.

A record carries no audit stamp (paper Section 9.4's uid, service, tier
and time), because nothing would read it: the auditor (:mod:`repro.audit`)
names a record by its content digest and the tracer
(:mod:`repro.observability.trace`) by its Kafka coordinates.  Its headers
are what its producer's caller passed, usually nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


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
        headers: what the producing caller passed, e.g. the trace a
            Flink sink's re-produce continues.
    """

    key: Any
    value: Any
    event_time: float
    headers: Mapping[str, Any] = field(default_factory=dict)

    def with_value(self, value: Any) -> "Record":
        """Copy of this record carrying a new payload."""
        return Record(self.key, value, self.event_time, self.headers)

    def with_key(self, key: Any) -> "Record":
        """Copy of this record re-keyed for a downstream shuffle."""
        return Record(key, self.value, self.event_time, self.headers)
