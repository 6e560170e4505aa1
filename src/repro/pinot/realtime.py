"""Realtime ingestion: Kafka partitions -> consuming segments -> sealed
segments (Section 4.3).

Each Kafka partition is consumed into a mutable "consuming" segment on the
partition's owning server.  When the segment reaches the configured row
threshold it is sealed: columnar forward indexes, the configured query
indexes and (if configured) the star-tree are built; replicas receive a
copy; and the backup strategy is invoked — synchronously blocking the
partition under the centralized design, asynchronously under peer-to-peer.

For upsert tables (Section 4.3.1) the input stream must be partitioned by
the primary key (our Kafka producer's hash partitioner guarantees this
when records are keyed by it), and every ingested row updates the owning
server's per-partition UpsertManager.

:class:`RealtimeIngestion` alone owns a partition: its placement, its
segments and its committed offset (after the last sealed row), where a
replacement owner resumes, re-reading only what was never sealed (§4.3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audit import lineage_digest
from repro.common.errors import (
    BrokerUnavailableError,
    OffsetOutOfRangeError,
    PinotError,
)
from repro.kafka.cluster import KafkaCluster
from repro.observability.trace import Hop, SpanCollector
from repro.pinot.recovery import BackupHandle, SegmentBackupStrategy
from repro.pinot.segment import MutableSegment
from repro.pinot.server import PinotServer
from repro.pinot.startree import StarTree
from repro.pinot.table import TableConfig


def segment_name(table: str, partition: int, sequence: int) -> str:
    return f"{table}__{partition}__{sequence}"


@dataclass
class _PartitionState:
    partition: int
    owner: PinotServer
    replicas: list[PinotServer]
    position: int  # next Kafka offset to consume
    committed: int  # offset after the last sealed row: where a restart resumes
    consuming: MutableSegment = field(init=False)  # set by _open_consuming
    # The ingest hop into ``consuming``, bound with it when traced.
    ingest_hop: Hop | None = field(init=False, default=None)
    sequence: int = 0
    sealed_segments: list[str] = field(default_factory=list)
    pending_backup: BackupHandle | None = None
    # Content digests already ingested into this partition (dedup tables
    # only).  A restart forgets exactly the dead consuming segment's
    # digests: those rows were lost, so their replay from Kafka is a
    # legitimate re-ingest, while a sealed — or since dropped — row's
    # replay stays a duplicate.
    seen_digests: set[str] = field(default_factory=set)

    def blocked(self) -> bool:
        return self.pending_backup is not None and not self.pending_backup.done


class RealtimeIngestion:
    """Drives one table's ingestion from one Kafka topic."""

    def __init__(
        self,
        config: TableConfig,
        kafka: KafkaCluster,
        topic: str,
        owners: dict[int, PinotServer],
        replicas: dict[int, list[PinotServer]],
        backup: SegmentBackupStrategy,
        tracer: SpanCollector | None = None,
    ) -> None:
        self.config = config
        self.kafka = kafka
        self.topic = topic
        self.backup = backup
        self.tracer = tracer
        self.rows_ingested = 0
        self.rows_deduped = 0  # replayed rows a dedup table consumed past
        self.blocked_polls = 0  # partition rounds skipped awaiting backup
        self.segments_sealed = 0
        self.partitions: dict[int, _PartitionState] = {}
        for partition in range(kafka.partition_count(topic)):
            if partition not in owners:
                raise PinotError(f"partition {partition} has no owning server")
            start = kafka.start_offset(topic, partition)
            state = _PartitionState(
                partition=partition,
                owner=owners[partition],
                replicas=replicas.get(partition, []),
                position=start,
                committed=start,
            )
            self._open_consuming(state)
            self.partitions[partition] = state

    def _open_consuming(self, state: _PartitionState) -> None:
        """Host an empty consuming segment, numbered ``sequence``, on the owner."""
        state.consuming = MutableSegment(
            segment_name(self.config.name, state.partition, state.sequence),
            state.partition,
            column_names=self.config.schema.field_names(),
        )
        state.owner.host_segment(state.consuming)
        if self.tracer is not None:
            state.ingest_hop = self.tracer.hop(
                "entries", "ingest", "pinot",
                table=self.config.name,
                segment=state.consuming.name,
                topic=self.topic,
                partition=state.partition,
            )

    # -- consumption ----------------------------------------------------------

    def run_step(self, max_records_per_partition: int = 500) -> int:
        """Consume one round across partitions; returns rows ingested.

        A partition whose owner is dead is skipped, like one whose source
        broker is down: no query reaches its consuming segment, and its
        replacement resumes at the committed offset (:meth:`replace_server`).
        A partition whose sealed segment still awaits synchronous backup
        (centralized design) is skipped — that is the freshness violation
        of Section 4.3.4.
        """
        ingested = 0
        for state in self.partitions.values():
            if not state.owner.alive:
                continue
            if state.blocked():
                self.blocked_polls += 1
                continue
            if state.pending_backup is not None and state.pending_backup.done:
                state.pending_backup = None
            try:
                entries = self.kafka.fetch(
                    self.topic, state.partition, state.position,
                    max_records_per_partition,
                )
            except BrokerUnavailableError:
                # Every replica of the source partition is down.  Hold
                # position (no data is skipped) and resume next round once
                # a broker restart restores a leader.
                continue
            except OffsetOutOfRangeError:
                # Retention passed the position: rows that expired before
                # they were ingested are gone.  Resume at the log start next
                # round, like a consumer reset to earliest.
                state.position = self.kafka.start_offset(self.topic, state.partition)
                continue
            ingested += self._ingest_entries(state, entries)
        self.rows_ingested += ingested
        return ingested

    def _ingest_entries(self, state: _PartitionState, entries: list) -> int:
        """Ingest one fetched batch of a partition; returns rows added.

        The batch lands in slices of at most the rows the consuming
        segment has left before its seal threshold, so the seal test runs
        once per slice, not once per row.  Each row is copied and
        validated; on a dedup table a replayed row ends its slice and is
        consumed past.  A slice lands with one ``extend``, then has its
        ingest spans recorded (before anything that can seal: a seal
        renames the consuming segment and may move the clock) and, on an
        upsert table, its rows' locations applied.  A row that fails
        validation raises once every row before it has landed.
        """
        config = self.config
        validate, threshold = config.schema.validate, config.segment_rows_threshold
        seen = state.seen_digests if config.dedup_enabled else None
        ingested = start = 0
        while start < len(entries):
            # At least one row: a threshold below 1 seals after every row.
            room = max(1, threshold - state.consuming.num_docs)
            rows: list[dict] = []
            replayed = False
            try:
                for entry in entries[start : start + room]:
                    row = dict(entry.record.value)
                    validate(row)
                    if seen is not None:
                        digest = lineage_digest(row)
                        if digest in seen:
                            replayed = True
                            break
                        seen.add(digest)
                    rows.append(row)
            finally:
                if rows:
                    self._land(state, entries, start, rows)
            ingested += len(rows)
            start += len(rows)
            if replayed:
                # Upstream replay (at-least-once producer); the row is
                # already queryable — consume past it.
                state.position = entries[start].offset + 1
                self.rows_deduped += 1
                start += 1
            elif state.consuming.num_docs >= threshold:
                self._seal(state)
                if state.blocked():
                    break
        return ingested

    def _land(
        self, state: _PartitionState, entries: list, start: int, rows: list[dict]
    ) -> None:
        """Append ``rows``, the rows of ``entries[start:]`` that a slice
        took, to the consuming segment and move the position past them."""
        segment = state.consuming
        doc_id = segment.extend(rows)
        stop = start + len(rows)
        state.position = entries[stop - 1].offset + 1
        self._trace_ingest(state, entries, start, stop)
        if self.config.upsert_enabled:
            manager = state.owner.upsert_manager(self.config.name, state.partition)
            primary_key = self.config.primary_key
            for row in rows:
                manager.apply(row[primary_key], segment.name, doc_id)
                doc_id += 1

    def _trace_ingest(
        self, state: _PartitionState, entries: list, first: int, landed: int
    ) -> None:
        """Record the ingest spans of ``entries[first:landed]``.

        Ingest = log dwell + append; the rows are queryable in the consuming
        segment from this instant (the paper's freshness boundary).
        Timestamps come from the shared Kafka-cluster clock so a span can
        never end before the produce span did.
        """
        if state.ingest_hop is None or first == landed:
            return
        state.ingest_hop.record(
            entries if landed - first == len(entries) else entries[first:landed],
            self.kafka.clock.now(),
        )

    def _seal(self, state: _PartitionState) -> None:
        sealed = state.consuming.seal(
            index_config=self.config.index_config,
            time_column=self.config.time_column,
            column_names=self.config.schema.field_names(),
        )
        if self.config.startree_config is not None:
            # Feed the tree column arrays straight off the forward indexes
            # (one bulk decode per column) instead of materializing a row
            # dict per doc.
            tree_config = self.config.startree_config
            columns = {
                name: sealed.forward[name].values_list()
                for name in dict.fromkeys(
                    list(tree_config.dimensions) + list(tree_config.metrics)
                )
                if name in sealed.forward
            }
            sealed.startree = StarTree.from_columns(
                columns, sealed.num_docs, tree_config
            )
        # Owner replaces its consuming copy with the sealed one; replicas
        # receive copies so they can serve (and later provide peer recovery).
        state.owner.host_segment(sealed)
        for replica in state.replicas:
            if replica.alive:
                replica.host_segment(sealed)
        state.sealed_segments.append(sealed.name)
        state.committed = state.position
        state.pending_backup = self.backup.request_backup(self.config.name, sealed)
        state.sequence += 1
        self._open_consuming(state)
        self.segments_sealed += 1

    # -- placement ------------------------------------------------------------

    def replace_server(self, failed: PinotServer, replacement: PinotServer) -> None:
        """Put ``replacement``, already hosting the sealed segments, wherever
        ``failed`` served.  Where it owned, the consuming segment is lost:
        reopen it and resume at the committed offset."""
        for state in self.partitions.values():
            state.replicas[:] = [
                replacement if server is failed else server for server in state.replicas
            ]
            if state.owner is not failed:
                continue
            lost = state.consuming
            state.owner = replacement
            self._open_consuming(state)
            state.position = state.committed
            if self.config.dedup_enabled:
                state.seen_digests -= {
                    lineage_digest(lost.row(doc_id)) for doc_id in range(lost.num_docs)
                }
            if self.config.upsert_enabled:
                # Shared-nothing upsert metadata is rebuilt locally by
                # replaying the partition's sealed segments in order.
                sealed = [replacement.segments[name] for name in state.sealed_segments]
                manager = replacement.upsert_manager(self.config.name, state.partition)
                manager.rebuild_from_segments(
                    [(s.name, [s.row(d) for d in range(s.num_docs)]) for s in sealed],
                    self.config.primary_key,
                )

    def drop_segment(self, name: str) -> bool:
        """Drop a sealed segment (retention): unhost it, forget its upsert
        locations.  False when no partition has it."""
        for state in self.partitions.values():
            if name not in state.sealed_segments:
                continue
            state.sealed_segments.remove(name)
            for server in [state.owner] + state.replicas:
                server.drop_segment(name)
            if self.config.upsert_enabled:
                manager = state.owner.upsert_manager(self.config.name, state.partition)
                manager.drop_segment(name)
            return True
        return False

    # -- introspection -----------------------------------------------------------

    @staticmethod
    def _frontier(state: _PartitionState) -> int:
        """The partition's first offset whose row is not queryable: its
        ``position`` while the owner lives; under a dead owner, whose
        consuming segment no query reaches, its ``committed`` offset."""
        return state.position if state.owner.alive else state.committed

    def _lag_of(self, state: _PartitionState) -> int:
        try:
            end = self.kafka.end_offset(self.topic, state.partition)
        except BrokerUnavailableError:
            return 0
        return end - self._frontier(state)

    def lag(self) -> int:
        """Rows in Kafka not yet queryable (the freshness proxy).

        A partition with no live leader adds zero: its lag is unknowable
        until a broker returns.
        """
        return sum(self._lag_of(state) for state in self.partitions.values())

    def staleness(self) -> dict[int, float]:
        """Per partition, how long its oldest not-yet-queryable row has
        waited: the Kafka clock now minus the ``append_time`` of the entry
        at the partition's frontier (the one :meth:`lag` counts from), or
        0.0 when the partition is caught up.

        Read on demand, one ``fetch`` per partition; ingestion keeps
        nothing for it.  A frontier that retention passed reads the oldest
        retained entry.  A partition with no live leader is left out: what
        waits there is unknowable until a broker returns.
        """
        now = self.kafka.clock.now()
        out: dict[int, float] = {}
        for partition, state in self.partitions.items():
            try:
                start = self.kafka.start_offset(self.topic, partition)
                end = self.kafka.end_offset(self.topic, partition)
                offset = min(max(self._frontier(state), start), end)
                entries = self.kafka.fetch(self.topic, partition, offset, 1)
            except BrokerUnavailableError:
                continue
            out[partition] = now - entries[0].append_time if entries else 0.0
        return out

    def total_rows_ingested(self) -> int:
        return self.rows_ingested

    def segments_of_partition(self, partition: int) -> list[str]:
        """All segment names of a partition, consuming segment last."""
        state = self.partitions[partition]
        return state.sealed_segments + [state.consuming.name]

    def run_until_caught_up(self, max_steps: int = 10_000,
                            backup_steps_per_round: int = 1) -> int:
        """Ingest (driving backup uploads too) until every partition with
        a live owner has lag zero; a partition whose owner is dead waits
        for ``recover_server``."""
        total = 0
        for __ in range(max_steps):
            total += self.run_step()
            for __ in range(backup_steps_per_round):
                self.backup.run_step()
            if not any(
                state.blocked() or self._lag_of(state) > 0
                for state in self.partitions.values()
                if state.owner.alive
            ):
                return total
        raise PinotError(f"ingestion did not catch up in {max_steps} steps")
