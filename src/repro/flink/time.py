"""Event time, watermarks and stream elements.

Everything that flows between operators is a :class:`StreamElement`:
data records, watermarks (event-time progress markers) and checkpoint
barriers (Section 4.2's "built-in state management and checkpointing").

An element is a value: it is never assigned to after it is built.  A
broadcast edge hands one object to every channel, a transactional sink
buffers the objects it was given and the tumbling assigner shares its last
window, so a changed key or value is a new element (``with_key``,
``with_value``).  The classes are slotted but not ``frozen`` — a frozen
``__init__`` pays one ``__setattr__`` call per field and costs about three
times a plain one — and ``tests/property/test_element_values.py`` checks
the rule instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class StreamRecord:
    """A data element with an assigned event timestamp and optional key.

    ``trace`` carries the upstream
    :class:`~repro.observability.trace.TraceContext` of the Kafka record
    the element originated from (``None`` for untraced pipelines); operator
    transforms preserve it so the element can be followed back out of the
    job at the sink.
    """

    value: Any
    timestamp: float
    key: Any = None
    trace: Any = None

    def with_value(self, value: Any) -> "StreamRecord":
        return StreamRecord(value, self.timestamp, self.key, self.trace)

    def with_key(self, key: Any) -> "StreamRecord":
        return StreamRecord(self.value, self.timestamp, key, self.trace)


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


@dataclass(slots=True)
class RecordBatch:
    """A columnar batch flowing through the dataflow as one element.

    The vectorized counterpart of :class:`StreamRecord`: ``batch`` is a
    :class:`repro.columnar.ColumnBatch`, ``timestamps`` holds one event
    timestamp per row, and ``selection`` (when set) restricts the
    element to a subset of row indices — the runtime routes partitioned
    sub-batches as selection vectors over the *shared* parent batch, so
    a keyed exchange never copies cells.  ``trace`` follows the
    :class:`StreamRecord` contract for the whole batch.
    """

    batch: Any
    timestamps: tuple
    keys: tuple | None = None
    trace: Any = None
    selection: tuple | None = None

    def __len__(self) -> int:
        return len(self.selection) if self.selection is not None else len(self.batch)

    def row_indices(self) -> range | tuple:
        """Indices of live rows in ``batch`` (all rows when unselected)."""
        if self.selection is not None:
            return self.selection
        return range(self.batch.num_rows)


StreamElement = (
    StreamRecord | RecordBatch | Watermark | CheckpointBarrier | StreamStatus
)


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
