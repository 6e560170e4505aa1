"""Pinot servers: segment hosts and per-segment query execution.

A server hosts immutable (sealed) and mutable (consuming) segments and
executes subqueries against them; brokers scatter subqueries and merge the
partials (Section 4.3's scatter-gather-merge).  Servers also keep the
per-partition :class:`~repro.pinot.upsert.UpsertManager` for the upsert
partitions they own — shared-nothing, no central coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.epochcache import EpochCache
from repro.common.errors import SegmentError
from repro.common.metrics import MetricsRegistry
from repro.pinot.query import PartialResult, PinotQuery, execute_on_segment
from repro.pinot.scanshare import SCAN_SHARE_CAPACITY
from repro.pinot.segment import ImmutableSegment, MutableSegment
from repro.pinot.upsert import UpsertManager


@dataclass
class PinotServer:
    name: str
    alive: bool = True
    # segment name -> segment object (per table namespacing via names)
    segments: dict[str, ImmutableSegment | MutableSegment] = field(
        default_factory=dict
    )
    upsert_managers: dict[tuple[str, int], UpsertManager] = field(
        default_factory=dict
    )
    metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry("pinot.server")
    )
    # Memoized filter resolutions (see repro.pinot.scanshare), validated
    # against the table epoch the broker routed the subquery at.
    scan_cache: EpochCache = field(
        default_factory=lambda: EpochCache(SCAN_SHARE_CAPACITY)
    )

    def host_segment(self, segment: ImmutableSegment | MutableSegment) -> None:
        self.segments[segment.name] = segment

    def drop_segment(self, name: str) -> None:
        self.segments.pop(name, None)

    def has_segment(self, name: str) -> bool:
        return name in self.segments

    def upsert_manager(self, table: str, partition: int) -> UpsertManager:
        key = (table, partition)
        if key not in self.upsert_managers:
            self.upsert_managers[key] = UpsertManager(table, partition)
        return self.upsert_managers[key]

    def execute(
        self,
        query: PinotQuery,
        segment_names: list[str],
        upsert_partition: int | None,
        epoch: int,
    ) -> list[PartialResult]:
        """Run a subquery over the named hosted segments.

        For upsert tables the broker routes all of one partition's segments
        here and passes ``upsert_partition`` so execution honours the local
        valid-doc-id sets.  ``epoch`` is the table epoch at routing time:
        what this server's scan-share entries are validated against.
        """
        if not self.alive:
            raise SegmentError(f"server {self.name} is down")
        partials = []
        manager = (
            self.upsert_managers.get((query.table, upsert_partition))
            if upsert_partition is not None
            else None
        )
        for name in segment_names:
            segment = self.segments.get(name)
            if segment is None:
                raise SegmentError(f"server {self.name} does not host {name!r}")
            valid = manager.valid_docs(name) if manager is not None else None
            partials.append(
                execute_on_segment(
                    segment,
                    query,
                    valid,
                    scan_cache=self.scan_cache,
                    scan_epoch=epoch,
                )
            )
            self.metrics.counter("subqueries").inc()
        return partials

    def hosted_disk_bytes(self) -> int:
        return sum(
            s.disk_bytes()
            for s in self.segments.values()
            if isinstance(s, ImmutableSegment)
        )
