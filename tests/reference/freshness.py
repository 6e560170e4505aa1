"""Executable reference model of a realtime table's freshness.

It reads freshness from the two things a user could look at: the Kafka
log (each entry's row and ``append_time``) and what a full scan through
the broker returns.  It knows nothing of how ingestion works: no
position, no committed offset, no owner, no span.

* A partition's *staleness* at time ``t`` is ``t`` minus the
  ``append_time`` of the oldest entry whose row the scan does not return,
  or 0.0 when the scan returns every entry's row.
* A row's *freshness samples* are ``t - append_time``, one for each ``t``
  at which the row goes from not returned to returned.  A row that
  disappears (its server died) and comes back counts again.

Rows are named by an id column that is unique across the table.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping


def staleness(
    logs: Mapping[int, list[Any]], returned: set, now: float, id_column: str
) -> dict[int, float]:
    """Per partition: how long its oldest row the scan misses has waited.

    ``logs`` maps a partition to its retained log entries in offset order.
    """
    out = {}
    for partition, entries in logs.items():
        waiting = [
            entry.append_time
            for entry in entries
            if entry.record.value[id_column] not in returned
        ]
        out[partition] = now - waiting[0] if waiting else 0.0
    return out


class FreshnessModel:
    """Follows one table through time, one observation per step."""

    def __init__(self, id_column: str) -> None:
        self.id_column = id_column
        self.returned: set = set()
        self.samples: list[float] = []

    def observe(
        self, logs: Mapping[int, list[Any]], rows: Iterable[dict], now: float
    ) -> dict[int, float]:
        """Take one scan's ``rows`` at ``now``; returns the staleness."""
        returned = {row[self.id_column] for row in rows}
        appended = {
            entry.record.value[self.id_column]: entry.append_time
            for entries in logs.values()
            for entry in entries
        }
        for row_id in returned - self.returned:
            self.samples.append(now - appended[row_id])
        self.returned = returned
        return staleness(logs, returned, now, self.id_column)
