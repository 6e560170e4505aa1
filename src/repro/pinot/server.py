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
    # Memoized work on hosted segments (see repro.pinot.scanshare), each
    # entry validated by the segment instance it was computed on.
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
        query_key: tuple | None = None,
    ) -> list[PartialResult]:
        """Run a subquery over the named hosted segments.

        For upsert tables the broker routes all of one partition's segments
        here and passes ``upsert_partition`` so execution honours the local
        valid-doc-id sets.  ``query_key`` (the broker's normalized query,
        passed for a query asked again) lets a sealed segment's partial be
        served from, or stored in, ``scan_cache``, and a consuming
        segment's partial of an aggregation be extended by the docs
        appended since it was stored; an upsert subquery never is, since
        its valid docs move with every upsert.
        """
        if not self.alive:
            raise SegmentError(f"server {self.name} is down")
        partials = []
        manager = (
            self.upsert_managers.get((query.table, upsert_partition))
            if upsert_partition is not None
            else None
        )
        memo = query_key if upsert_partition is None else None
        aggregation = query.is_aggregation()
        for name in segment_names:
            segment = self.segments.get(name)
            if segment is None:
                raise SegmentError(f"server {self.name} does not host {name!r}")
            if memo is not None and (
                aggregation or isinstance(segment, ImmutableSegment)
            ):
                partials.append(self._memoized(segment, query, (name, memo)))
                continue
            valid = manager.valid_docs(name) if manager is not None else None
            partials.append(execute_on_segment(segment, query, valid, self.scan_cache))
        return partials

    def _memoized(
        self, segment: ImmutableSegment | MutableSegment, query: PinotQuery, key: tuple
    ) -> PartialResult:
        """The segment's partial for ``query``: what this instance answered
        before, else executed and kept.  A partial is never written to
        once produced (the broker's merge adopts its states without
        writing into them), so every serve shares the stored one.

        A consuming segment's entry is ``(docs covered, partial)``: served
        while no doc was appended since, else extended by the new docs
        and kept in its place."""
        held = self.scan_cache.get(key, segment.serial)
        if isinstance(segment, ImmutableSegment):
            if held is None:
                held = execute_on_segment(segment, query, None, self.scan_cache)
                self.scan_cache.put(key, segment.serial, held)
            return held
        if held is not None and held[0] == segment.num_docs:
            return held[1]
        partial = execute_on_segment(segment, query, None, self.scan_cache, held)
        # A consuming segment's plan examines exactly the docs it covers.
        self.scan_cache.put(key, segment.serial, (partial.plan.docs_examined, partial))
        return partial

    def hosted_disk_bytes(self) -> int:
        return sum(
            s.disk_bytes()
            for s in self.segments.values()
            if isinstance(s, ImmutableSegment)
        )
