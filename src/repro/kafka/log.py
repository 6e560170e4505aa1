"""The partition log: Kafka's core data structure.

An append-only sequence of records with dense offsets, a log-start offset
that advances under retention, and byte accounting via the serde layer.
Replicas of a partition each hold one :class:`PartitionLog`; follower logs
trail the leader and are caught up by replication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.common import serde
from repro.common.errors import OffsetOutOfRangeError
from repro.common.perf import PERF
from repro.common.records import Record


@dataclass(slots=True)
class LogEntry:
    """A record at a fixed position in a partition."""

    offset: int
    record: Record
    append_time: float  # broker clock at append, drives time-based retention


class PartitionLog:
    """Append-only record log with offset-addressed reads and retention."""

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []
        # Encoded size of each retained entry, parallel to _entries.  Kept
        # so truncation/retention/replication never re-encode a record the
        # log already measured once at append time.
        self._sizes: list[int] = []
        self._start_offset = 0  # offset of the first retained entry
        self._bytes = 0

    @property
    def start_offset(self) -> int:
        """Lowest retained offset (the "low watermark")."""
        return self._start_offset

    @property
    def end_offset(self) -> int:
        """Offset that the next append will receive (the "high watermark")."""
        return self._start_offset + len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def append(self, record: Record, append_time: float) -> int:
        """Append one record; returns its offset."""
        offset = self.end_offset
        if PERF.enabled:
            PERF.inc("kafka.entry_allocs")
        self._entries.append(LogEntry(offset, record, append_time))
        size = _record_size(record)
        self._sizes.append(size)
        self._bytes += size
        return offset

    def append_batch(
        self,
        records: "list[Record] | tuple[Record, ...]",
        append_time: float,
        sizes: list[int] | None = None,
    ) -> int:
        """Append many records in one call; returns the base (first) offset.

        ``sizes`` carries precomputed per-record encoded sizes so replicas
        don't re-encode what the leader already measured.
        """
        base = self.end_offset
        if not records:
            return base
        if sizes is None:
            sizes = [_record_size(record) for record in records]
        if PERF.enabled:
            PERF.inc("kafka.entry_allocs", len(records))
        self._entries.extend(
            LogEntry(base + i, record, append_time)
            for i, record in enumerate(records)
        )
        self._sizes.extend(sizes)
        self._bytes += sum(sizes)
        return base

    def extend_shared(self, entries: list[LogEntry], sizes: list[int]) -> int:
        """Adopt already-constructed entries from a leader's log.

        The fast path for in-sync replicas: a :class:`LogEntry` is never
        assigned to after it is built, so leader and followers can hold the
        very same objects — no per-replica re-construction or re-encoding.
        Offsets must line up exactly.
        """
        base = self.end_offset
        if not entries:
            return base
        if entries[0].offset != base:
            raise OffsetOutOfRangeError(
                f"shared entries start at offset {entries[0].offset}, "
                f"log ends at {base}"
            )
        self._entries.extend(entries)
        self._sizes.extend(sizes)
        self._bytes += sum(sizes)
        return base

    def read(self, offset: int, max_records: int = 500) -> list[LogEntry]:
        """Read up to ``max_records`` entries starting at ``offset``.

        Reading exactly at the end offset returns an empty list (caller is
        caught up).  Reading below the start offset or beyond the end
        raises :class:`OffsetOutOfRangeError`, like the real broker.
        """
        if offset < self._start_offset or offset > self.end_offset:
            raise OffsetOutOfRangeError(
                f"offset {offset} outside retained range "
                f"[{self._start_offset}, {self.end_offset}]"
            )
        index = offset - self._start_offset
        return self._entries[index : index + max_records]

    def read_with_sizes(
        self, offset: int, max_records: int = 500
    ) -> tuple[list[LogEntry], list[int]]:
        """Like :meth:`read`, also returning the stored encoded sizes —
        replication hands both to :meth:`extend_shared`."""
        entries = self.read(offset, max_records)
        index = offset - self._start_offset
        return entries, self._sizes[index : index + len(entries)]

    def entry_at(self, offset: int) -> LogEntry:
        entries = self.read(offset, max_records=1)
        if not entries:
            raise OffsetOutOfRangeError(f"offset {offset} is at the log end")
        return entries[0]

    def iter_from(self, offset: int) -> Iterator[LogEntry]:
        index = max(0, offset - self._start_offset)
        yield from self._entries[index:]

    def common_prefix_end(self, other: "PartitionLog") -> int:
        """First offset at which this log diverges from ``other``.

        Compares the overlapping retained entries record-by-record; entries
        below either log's start offset are assumed to agree (anything that
        aged into retention/tiering was already replicated).  Returns an
        offset suitable for :meth:`truncate_to`: truncating there removes
        every entry this log holds that ``other`` does not share.
        """
        offset = max(self._start_offset, other.start_offset)
        end = min(self.end_offset, other.end_offset)
        while offset < end:
            if self.entry_at(offset).record != other.entry_at(offset).record:
                return offset
            offset += 1
        return end

    def truncate_to(self, end_offset: int) -> int:
        """Discard entries at or after ``end_offset`` (leader-change
        truncation of a diverged follower).  Returns entries removed."""
        keep = max(0, end_offset - self._start_offset)
        removed = max(0, len(self._entries) - keep)
        self._bytes -= sum(self._sizes[keep:])
        del self._entries[keep:]
        del self._sizes[keep:]
        return removed

    def trim_head_to(self, offset: int) -> int:
        """Advance the start offset to ``offset``, discarding earlier
        entries (tiered storage: the cold tier owns them now).  Returns the
        number of entries trimmed."""
        trimmed = min(len(self._entries), max(0, offset - self._start_offset))
        if trimmed:
            self._bytes -= sum(self._sizes[:trimmed])
            del self._entries[:trimmed]
            del self._sizes[:trimmed]
            self._start_offset += trimmed
        if self._start_offset < offset and not self._entries:
            self._start_offset = offset
        return trimmed

    def apply_retention(
        self,
        now: float,
        retention_seconds: float | None = None,
        retention_bytes: int | None = None,
    ) -> int:
        """Advance the start offset per time/size retention; returns the
        number of entries expired."""
        expired = 0
        while self._entries:
            head = self._entries[0]
            too_old = (
                retention_seconds is not None
                and now - head.append_time > retention_seconds
            )
            too_big = retention_bytes is not None and self._bytes > retention_bytes
            if not too_old and not too_big:
                break
            self._entries.pop(0)
            self._bytes -= self._sizes.pop(0)
            self._start_offset += 1
            expired += 1
        return expired


def _record_size(record: Record) -> int:
    if PERF.enabled:
        PERF.inc("kafka.size_encodings")
    headers = record.headers
    if type(headers) is not dict:
        headers = dict(headers)  # any Mapping sizes like the dict it holds
    return serde.encoded_size(
        {
            "key": record.key,
            "value": record.value,
            "event_time": record.event_time,
            "headers": headers,
        }
    )
