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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.audit.lineage import lineage_digest
from repro.columnar import ColumnChunk
from repro.common.errors import BrokerUnavailableError, PinotError, SchemaError
from repro.common.metrics import MetricsRegistry
from repro.kafka.cluster import KafkaCluster
from repro.observability.trace import TRACE_HEADER, SpanCollector
from repro.pinot.recovery import BackupHandle, SegmentBackupStrategy
from repro.pinot.segment import MutableSegment
from repro.pinot.server import PinotServer
from repro.pinot.startree import StarTree
from repro.pinot.table import TableConfig


def segment_name(table: str, partition: int, sequence: int) -> str:
    return f"{table}__{partition}__{sequence}"


class TableEpoch:
    """Monotonic per-table data-version counter.

    Bumped on every mutation that can change query results: a row landing
    in a consuming segment (which also covers upserts — they ride in on
    rows), a segment sealing, an offline segment load, a segment drop, a
    consuming segment being restarted on recovery.  The broker's result
    cache is keyed on it, so cached results are invalidated exactly when
    freshness demands — never by wall-clock TTL, which would be both wrong
    (stale until expiry) and non-deterministic under the simulated clock.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class _PartitionState:
    partition: int
    owner: PinotServer
    replicas: list[PinotServer]
    position: int  # next Kafka offset to consume
    consuming: MutableSegment
    sequence: int = 0
    sealed_segments: list[str] = field(default_factory=list)
    pending_backup: BackupHandle | None = None
    # Content digests already ingested into this partition (dedup tables
    # only).  On a consuming-segment restart this is rebuilt from *sealed*
    # segments alone: the dead consuming segment's rows were lost, so their
    # replay from Kafka is a legitimate re-ingest, not a duplicate.
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
        metrics: MetricsRegistry | None = None,
        tracer: SpanCollector | None = None,
    ) -> None:
        self.config = config
        self.kafka = kafka
        self.topic = topic
        self.backup = backup
        self.tracer = tracer
        self.metrics = metrics or MetricsRegistry(f"pinot.ingest.{config.name}")
        self.epoch = TableEpoch()
        self.partitions: dict[int, _PartitionState] = {}
        for partition in range(kafka.partition_count(topic)):
            if partition not in owners:
                raise PinotError(f"partition {partition} has no owning server")
            state = _PartitionState(
                partition=partition,
                owner=owners[partition],
                replicas=replicas.get(partition, []),
                position=kafka.start_offset(topic, partition),
                consuming=MutableSegment(
                    segment_name(config.name, partition, 0),
                    partition,
                    column_names=config.schema.field_names(),
                ),
            )
            state.owner.host_segment(state.consuming)
            self.partitions[partition] = state

    # -- consumption ----------------------------------------------------------

    def run_step(self, max_records_per_partition: int = 500) -> int:
        """Consume one round across partitions; returns rows ingested.

        A partition whose sealed segment still awaits synchronous backup
        (centralized design) is skipped — that is the freshness violation
        of Section 4.3.4.
        """
        ingested = 0
        for state in self.partitions.values():
            if state.blocked():
                self.metrics.counter("blocked_polls").inc()
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
                self.metrics.counter("unavailable_polls").inc()
                continue
            ingested += self._ingest_entries(state, entries)
        self.metrics.counter("rows_ingested").inc(ingested)
        return ingested

    def _ingest_entries(self, state: _PartitionState, entries: list) -> int:
        """Ingest one fetched batch of a partition; returns rows added."""
        ingested = 0
        # Entries whose rows landed in the consuming segment and still await
        # their ingest spans: one collector call covers them, made before
        # anything that can seal (a seal renames the consuming segment and
        # may move the clock) and on every way out.
        landed: list = []
        try:
            for entry in entries:
                if isinstance(entry.record.value, ColumnChunk):
                    # Vectorized path: the whole chunk is one ingest unit.
                    self._trace_ingest(state, landed)
                    ingested += self._ingest_chunk(state, entry)
                    state.position = entry.offset + 1
                    if state.blocked():
                        break
                    continue
                row = dict(entry.record.value)
                self.config.schema.validate(row)
                if self.config.dedup_enabled:
                    digest = lineage_digest(row)
                    if digest in state.seen_digests:
                        # Upstream replay (at-least-once producer); the row
                        # is already queryable — consume past it.
                        state.position = entry.offset + 1
                        self.metrics.counter("rows_deduped").inc()
                        continue
                    state.seen_digests.add(digest)
                doc_id = state.consuming.append(row)
                state.position = entry.offset + 1
                ingested += 1
                # The row is queryable from this instant: cached results
                # for this table are stale now.
                self.epoch.bump()
                if self.tracer is not None:
                    landed.append(entry)
                if self.config.upsert_enabled:
                    manager = state.owner.upsert_manager(
                        self.config.name, state.partition
                    )
                    manager.apply(
                        row[self.config.primary_key],
                        state.consuming.name,
                        doc_id,
                    )
                if state.consuming.num_docs >= self.config.segment_rows_threshold:
                    self._trace_ingest(state, landed)
                    self._seal(state)
                    if state.blocked():
                        break
        finally:
            self._trace_ingest(state, landed)
        return ingested

    def _trace_ingest(self, state: _PartitionState, landed: list, **attrs: Any) -> None:
        """Record the ingest spans of ``landed`` entries and empty the list.

        Ingest = log dwell + append; the rows are queryable in the consuming
        segment from this instant (the paper's freshness boundary).
        Timestamps come from the shared Kafka-cluster clock so a span can
        never end before the produce span did.
        """
        if self.tracer is not None and landed:
            self.tracer.record_spans(
                "ingest",
                "pinot",
                [entry.record.headers.get(TRACE_HEADER) for entry in landed],
                [entry.append_time for entry in landed],
                end=self.kafka.clock.now(),
                table=self.config.name,
                partition=state.partition,
                segment=state.consuming.name,
                **attrs,
            )
        landed.clear()

    def _ingest_chunk(self, state: _PartitionState, entry) -> int:
        """Ingest one columnar chunk; returns the rows it added.

        The fast path validates once per column (per distinct value for
        dictionary-coded columns) and appends zero-copy batch slices to
        the consuming segment, sealing exactly on the same row-count
        boundaries as the row path.  Dedup and upsert tables — and traced
        pipelines — need per-row semantics (content digests, primary-key
        updates, spans), so they degrade to materialized rows.

        A chunk is one Kafka record and therefore one atomic ingest unit:
        if a seal mid-chunk blocks the partition (centralized backup), the
        remaining rows still land before the block takes effect at the
        next fetch.
        """
        chunk: ColumnChunk = entry.record.value
        config = self.config
        if config.dedup_enabled or config.upsert_enabled:
            ingested = self._ingest_chunk_rows(state, chunk)
        else:
            batch = chunk.batch
            self._validate_chunk_columns(batch)
            ingested = 0
            position = 0
            total = len(chunk)
            while position < total:
                room = config.segment_rows_threshold - state.consuming.num_docs
                take = min(room, total - position)
                piece = (
                    batch
                    if position == 0 and take == total
                    else batch.slice(position, take)
                )
                state.consuming.append_chunk(piece)
                position += take
                ingested += take
                self.epoch.bump(take)
                if state.consuming.num_docs >= config.segment_rows_threshold:
                    self._seal(state)
        if ingested:
            # One ingest span per chunk (the record granularity).
            self._trace_ingest(state, [entry], rows=ingested)
        return ingested

    def _ingest_chunk_rows(self, state: _PartitionState, chunk: ColumnChunk) -> int:
        """Row-at-a-time fallback for chunks on dedup/upsert tables."""
        config = self.config
        ingested = 0
        for row in chunk.batch.to_rows():
            config.schema.validate(row)
            if config.dedup_enabled:
                digest = lineage_digest(row)
                if digest in state.seen_digests:
                    self.metrics.counter("rows_deduped").inc()
                    continue
                state.seen_digests.add(digest)
            doc_id = state.consuming.append(row)
            ingested += 1
            self.epoch.bump()
            if config.upsert_enabled:
                manager = state.owner.upsert_manager(
                    config.name, state.partition
                )
                manager.apply(
                    row[config.primary_key], state.consuming.name, doc_id
                )
            if state.consuming.num_docs >= config.segment_rows_threshold:
                self._seal(state)
        return ingested

    def _validate_chunk_columns(self, batch) -> None:
        """Schema-validate a column batch without materializing rows.

        Mirrors :meth:`Schema.validate` semantics column-wise: nullability
        from the validity bitmap, type checks once per distinct value for
        dictionary-coded columns (a shared dictionary may carry values
        from sibling partitions' rows — same column, same checks).
        """
        schema = self.config.schema
        for f in schema.fields:
            vector = batch.columns.get(f.name)
            missing = vector is None or vector.null_count() > 0
            if missing and not f.nullable and f.default is None:
                raise SchemaError(
                    f"row missing non-nullable field {f.name!r} "
                    f"(schema {schema.name} v{schema.version})"
                )
            if vector is None:
                continue
            if vector.is_dict:
                candidates = vector.dictionary
            else:
                candidates = [
                    v for v in vector.values_list() if v is not None
                ]
            for value in candidates:
                if not f.type.accepts(value):
                    raise SchemaError(
                        f"field {f.name!r} expects {f.type.value}, got "
                        f"{type(value).__name__} (schema {schema.name})"
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
        state.pending_backup = self.backup.request_backup(self.config.name, sealed)
        state.sequence += 1
        state.consuming = MutableSegment(
            segment_name(self.config.name, state.partition, state.sequence),
            state.partition,
            column_names=self.config.schema.field_names(),
        )
        state.owner.host_segment(state.consuming)
        self.metrics.counter("segments_sealed").inc()
        # Sealing changes the segment set (and builds new pruning
        # metadata); routing/pruning decisions cached against the old
        # epoch must not survive it.
        self.epoch.bump()

    # -- introspection -----------------------------------------------------------

    def lag(self) -> int:
        """Rows in Kafka not yet queryable (the freshness proxy).

        A partition with no live leader contributes its last known lag of
        zero — its true lag is unknowable until a broker returns.
        """
        total = 0
        for state in self.partitions.values():
            try:
                end = self.kafka.end_offset(self.topic, state.partition)
            except BrokerUnavailableError:
                continue
            total += end - state.position
        return total

    def total_rows_ingested(self) -> int:
        return self.metrics.counter("rows_ingested").value

    def segments_of_partition(self, partition: int) -> list[str]:
        """All segment names of a partition, consuming segment last."""
        state = self.partitions[partition]
        return state.sealed_segments + [state.consuming.name]

    def run_until_caught_up(self, max_steps: int = 10_000,
                            backup_steps_per_round: int = 1) -> int:
        """Ingest (driving backup uploads too) until lag reaches zero."""
        total = 0
        for __ in range(max_steps):
            total += self.run_step()
            for __ in range(backup_steps_per_round):
                self.backup.run_step()
            if self.lag() == 0 and not any(
                s.blocked() for s in self.partitions.values()
            ):
                return total
        raise PinotError(f"ingestion did not catch up in {max_steps} steps")
