"""Event time, watermarks and stream elements.

Everything that flows between operators is a :class:`StreamElement`:
data records, watermarks (event-time progress markers) and checkpoint
barriers (Section 4.2's "built-in state management and checkpointing").

An element is a value: it is never assigned to after it is built.  A
broadcast edge hands one object to every channel, a transactional sink
buffers the objects it was given and the tumbling assigner shares its last
window, so a changed value is a new element, and so is a changed key: a
hash edge whose key function returns another key routes a new record,
and a task that builds its own output (a source, a map, a flat_map, an
interval join) feeding one builds each record already keyed for it, so
a record is built once per hop.  The classes are slotted but not
``frozen`` — a frozen ``__init__`` pays one ``__setattr__`` call per field
and costs about three times a plain one — and
``tests/property/test_element_values.py`` checks the rule instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class StreamRecord:
    """A data element with an assigned event timestamp and optional key.

    ``trace`` and ``scope`` carry the trace of the Kafka record the element
    originated from (``None`` when the job is untraced): the log entry a
    traced source read and the
    :class:`~repro.observability.trace.EntryScope` of its poll (its
    partition and when it entered the job), shared by the poll's records,
    or a restored :class:`~repro.observability.trace.TraceContext` and no
    scope.  Operator transforms preserve both so the sink can record the
    element's ``process`` span.
    """

    value: Any
    timestamp: float
    key: Any = None
    trace: Any = None
    scope: Any = None


@dataclass(slots=True)
class Watermark:
    """Assertion that no element with timestamp <= ``timestamp`` follows."""

    timestamp: float


@dataclass(slots=True)
class CheckpointBarrier:
    """Alignment marker injected by the checkpoint coordinator."""

    checkpoint_id: int


@dataclass(slots=True)
class StreamStatus:
    """Source idleness marker (Flink's ``withIdleness``).

    An idle channel is excluded from the downstream watermark minimum so an
    empty Kafka partition cannot stall event time for the whole job.
    """

    idle: bool


StreamElement = StreamRecord | Watermark | CheckpointBarrier | StreamStatus


class BoundedOutOfOrdernessWatermarks:
    """Watermark generator tolerating ``max_out_of_orderness`` seconds.

    Emits ``max_seen_timestamp - max_out_of_orderness`` — the standard
    Flink strategy.  Late events (below the watermark) are handled by the
    window operator's allowed-lateness policy.
    """

    def __init__(self, max_out_of_orderness: float = 0.0) -> None:
        if max_out_of_orderness < 0:
            raise ValueError(
                f"out-of-orderness bound must be >= 0, got {max_out_of_orderness}"
            )
        self.max_out_of_orderness = max_out_of_orderness
        self._max_timestamp = float("-inf")

    def on_event(self, timestamp: float) -> None:
        if timestamp > self._max_timestamp:
            self._max_timestamp = timestamp

    def current_watermark(self) -> float:
        if self._max_timestamp == float("-inf"):
            return float("-inf")
        return self._max_timestamp - self.max_out_of_orderness
