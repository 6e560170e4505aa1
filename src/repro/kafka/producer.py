"""Producer with batching, partitioning and acks semantics.

Mirrors the knobs the paper's use cases tune: surge pricing produces with
``acks=1`` for throughput (Section 5.1); financial topics force
``acks=all`` for zero loss (Section 9.2).  Every record is stamped with the
audit headers of Section 9.4 so Chaperone can track it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common import serde
from repro.common.clock import Clock, SystemClock
from repro.kafka.log import _record_size
from repro.common.errors import (
    BrokerUnavailableError,
    KafkaError,
    NotEnoughReplicasError,
)
from repro.common.metrics import MetricsRegistry
from repro.common.perf import PERF
from repro.common.records import Record, stamp_audit
from repro.common.retry import RetryPolicy
from repro.common.rng import seeded_rng
from repro.columnar import ColumnBatch, ColumnChunk
from repro.kafka.cluster import KafkaCluster, ProducerCtx
from repro.observability.trace import ORIGIN_HEADER, TRACE_HEADER, SpanCollector


@dataclass(slots=True)
class RecordMetadata:
    """Returned for each successfully produced record."""

    topic: str
    partition: int
    offset: int


def hash_partitioner(key: Any, num_partitions: int) -> int:
    """Deterministic key -> partition mapping (FNV-1a over the canonical
    serialized key).

    Stable across processes, unlike ``hash()`` with string randomization —
    the upsert design (Section 4.3.1) relies on the same key always landing
    on the same partition.  Hashing goes through
    :func:`serde.encode_key`, which is *equality*-canonical: keys that
    compare equal under Python ``==`` (``5``, ``5.0``, ``True``) land on
    the same partition.  The Pinot broker prunes partitions by hashing
    query literals with this same function, and the query executor matches
    rows with ``==`` — a type-sensitive encoding here would let a float
    literal prune the partition holding equal int-keyed rows.
    """
    if PERF.enabled:
        PERF.inc("kafka.key_hashes")
    data = serde.encode_key(key)
    acc = 0xCBF29CE484222325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc % num_partitions


@dataclass
class _Batch:
    partition: int
    records: list[Record] = field(default_factory=list)
    sent_at: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    bytes: int = 0


class Producer:
    """Batching producer bound to one cluster.

    ``send`` buffers records per partition; batches flush when they reach
    ``batch_size`` bytes, or when :meth:`flush` is called.  ``linger``
    exists in the config for fidelity but flushing is driven explicitly —
    our simulations control time.
    """

    def __init__(
        self,
        cluster: KafkaCluster,
        service_name: str = "producer",
        acks: str = "1",
        batch_size: int = 16_384,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: SpanCollector | None = None,
        retry_policy: RetryPolicy | None = None,
        transactional_id: str | None = None,
    ) -> None:
        if acks not in ("0", "1", "all"):
            raise KafkaError(f"acks must be one of '0', '1', 'all'; got {acks!r}")
        self.cluster = cluster
        self.service_name = service_name
        self.acks = acks
        self.batch_size = batch_size
        self.clock = clock or cluster.clock or SystemClock()
        self.tracer = tracer
        # Optional: retry transient broker failures instead of surfacing
        # them.  Backoff advances the (simulated) broker clock, so a broker
        # restart scheduled during the backoff window lets the retry land.
        self.retry_policy = retry_policy
        self._retry_rng = seeded_rng(0, f"producer.{service_name}")
        self._batches: dict[tuple[str, int], _Batch] = {}
        self._sticky: dict[str, int] = {}
        # Memoized keyed-partition choices: hash_partitioner is pure, so
        # (topic, key, partition count) -> partition never changes.  Dict
        # lookups collide keys that compare equal across types (5, 5.0,
        # True) — harmless, because hash_partitioner is equality-canonical
        # and maps all of them to the same partition anyway.
        self._partition_cache: dict[tuple[str, Any, int], int] = {}
        self._sends = 0
        self._last_flush: list[RecordMetadata] = []
        self.metrics = metrics or MetricsRegistry(f"producer.{service_name}")
        # Idempotent/transactional mode: register with the cluster for a
        # (pid, epoch) identity and number every record per partition, so
        # exact batch retries dedup broker-side and a zombie instance is
        # fenced on its first post-failover write.
        self.transactional_id = transactional_id
        self._pid: int | None = None
        self._epoch: int | None = None
        self._seqs: dict[tuple[str, int], int] = {}
        if transactional_id is not None:
            self.init_transactions()

    def init_transactions(self) -> tuple[int, int]:
        """(Re-)register with the cluster; bumps the epoch, fencing any
        older instance of the same ``transactional_id`` (zombie defense of
        the 2PC sink).  Returns the fresh ``(producer_id, epoch)``."""
        if self.transactional_id is None:
            raise KafkaError("producer has no transactional_id")
        self._pid, self._epoch = self.cluster.init_producer(self.transactional_id)
        self._seqs.clear()
        return self._pid, self._epoch

    @property
    def epoch(self) -> int | None:
        """Registered producer epoch (None when non-transactional)."""
        return self._epoch

    def send(
        self,
        topic: str,
        value: Any,
        key: Any = None,
        event_time: float | None = None,
        tier: str = "standard",
        headers: dict[str, Any] | None = None,
    ) -> int:
        """Buffer one record for sending; returns the partition it joined.

        ``headers`` lets re-producers (e.g. a Flink sink writing derived
        results back to Kafka) continue an upstream trace instead of
        starting a new one.
        """
        if event_time is None:
            event_time = self.clock.now()
        record = Record(
            key, value, event_time, self._stamp(headers, event_time, tier)
        )
        partition = self._choose_partition(topic, key)
        batch = self._pending(topic, partition)
        batch.records.append(record)
        # Span timestamps must come from the broker-side clock: a producer
        # constructed with its own clock would otherwise emit produce spans
        # that end (at append, cluster time) before they start.
        batch.sent_at.append(self.cluster.clock.now())
        # Encode the full record envelope exactly once: the size drives
        # batch accounting here and rides along to the broker, which would
        # otherwise re-encode every record for its log byte accounting.
        size = _record_size(record)
        batch.sizes.append(size)
        batch.bytes += size
        self._sends += 1
        if batch.bytes >= self.batch_size:
            self._flush_batch(topic, partition)
        return partition

    def send_columnar(
        self,
        topic: str,
        batch: ColumnBatch,
        key_column: str | None = None,
        event_times: list[float] | None = None,
        tier: str = "standard",
    ) -> list[int]:
        """Buffer a column batch as one :class:`ColumnChunk` per partition.

        The vectorized produce path: rows are routed by the key column in
        code space (one partitioner hash per *distinct* key), each
        partition's rows ride in a single chunk-valued record, and the
        chunk's byte size is encoded once — so entry allocation, size
        encoding and audit stamping amortize over every row in the chunk.
        Returns the partitions that received rows.
        """
        n = batch.num_rows
        if n == 0:
            return []
        times = (
            list(event_times)
            if event_times is not None
            else [self.clock.now()] * n
        )
        if len(times) != n:
            raise KafkaError(f"{len(times)} event times for {n} rows")
        if PERF.enabled:
            PERF.inc("columnar.rows_routed", n)
        selections = self._partition_selections(topic, batch, key_column, n)
        touched: list[int] = []
        for partition in sorted(selections):
            rows = selections[partition]
            if len(rows) == n:
                sub, sub_times = batch, times
            else:
                sub = batch.take(rows)
                sub_times = [times[i] for i in rows]
            chunk = ColumnChunk(sub, sub_times)
            record = Record(
                None, chunk, sub_times[-1], self._stamp(None, sub_times[-1], tier)
            )
            pending = self._pending(topic, partition)
            pending.records.append(record)
            pending.sent_at.append(self.cluster.clock.now())
            size = chunk.encoded_size()
            pending.sizes.append(size)
            pending.bytes += size
            self._sends += 1
            touched.append(partition)
            if pending.bytes >= self.batch_size:
                self._flush_batch(topic, partition)
        return touched

    def _pending(self, topic: str, partition: int) -> _Batch:
        """The open batch of a partition, started on its first record."""
        batch = self._batches.get((topic, partition))
        if batch is None:
            batch = self._batches[(topic, partition)] = _Batch(partition=partition)
        return batch

    def _stamp(
        self, headers: dict[str, Any] | None, event_time: float, tier: str
    ) -> dict[str, Any]:
        """The outgoing record's own header dict: the caller's headers, the
        audit metadata of Section 9.4 and, when tracing, the trace context
        (the audit ``uid`` doubles as trace id unless an upstream trace is
        being continued)."""
        stamped = dict(headers) if headers else {}
        stamp_audit(stamped, self.service_name, tier, event_time)
        if self.tracer is not None and TRACE_HEADER not in stamped:
            stamped[TRACE_HEADER] = stamped["uid"]
            stamped.setdefault(ORIGIN_HEADER, event_time)
        return stamped

    def _partition_selections(
        self, topic: str, batch: ColumnBatch, key_column: str | None, n: int
    ) -> dict[int, list[int]]:
        """Row indices per destination partition for a column batch."""
        if key_column is None:
            return {self._choose_partition(topic, None): list(range(n))}
        vector = batch.column(key_column)
        selections: dict[int, list[int]] = {}
        if vector.is_dict:
            # One partitioner hash per distinct key, swept over the codes.
            lut = [
                self._choose_partition(topic, value)
                for value in vector.dictionary
            ]
            null_partition: int | None = None
            for i in range(n):
                code = vector.code_at(i)
                if code is None:
                    if null_partition is None:
                        null_partition = self._choose_partition(topic, None)
                    partition = null_partition
                else:
                    partition = lut[code]
                selections.setdefault(partition, []).append(i)
        else:
            for i in range(n):
                partition = self._choose_partition(topic, vector.get(i))
                selections.setdefault(partition, []).append(i)
        return selections

    def _choose_partition(self, topic: str, key: Any) -> int:
        num_partitions = self.cluster.partition_count(topic)
        if key is not None:
            try:
                cache_key = (topic, key, num_partitions)
                partition = self._partition_cache.get(cache_key)
            except TypeError:  # unhashable key: hash every time
                return hash_partitioner(key, num_partitions)
            if partition is None:
                partition = hash_partitioner(key, num_partitions)
                self._partition_cache[cache_key] = partition
            return partition
        # Sticky partitioner: fill one partition per batch window, rotate.
        current = self._sticky.get(topic, 0)
        self._sticky[topic] = current
        return current

    def _rotate_sticky(self, topic: str) -> None:
        num_partitions = self.cluster.partition_count(topic)
        self._sticky[topic] = (self._sticky.get(topic, 0) + 1) % num_partitions

    def _append_batch(
        self, topic: str, partition: int, records: list[Record], sizes: list[int]
    ) -> int:
        ctx = None
        if self.transactional_id is not None:
            assert self._pid is not None and self._epoch is not None
            ctx = ProducerCtx(
                self.transactional_id,
                self._pid,
                self._epoch,
                self._seqs.get((topic, partition), 0),
            )
        if self.retry_policy is None:
            base = self.cluster.append_batch(
                topic, partition, records, acks=self.acks, sizes=sizes,
                producer_ctx=ctx,
            )
        else:
            # Whole-batch retry is safe: the cluster verifies leadership and
            # (under acks=all) replica liveness before any record lands, so a
            # failed attempt appends nothing; with a ProducerCtx an attempt
            # that did land dedups broker-side by sequence number anyway.
            base = self.retry_policy.call(
                lambda: self.cluster.append_batch(
                    topic, partition, records, acks=self.acks, sizes=sizes,
                    producer_ctx=ctx,
                ),
                retry_on=(BrokerUnavailableError, NotEnoughReplicasError),
                clock=self.cluster.clock,
                rng=self._retry_rng,
            )
        if ctx is not None:
            self._seqs[(topic, partition)] = ctx.base_seq + len(records)
        return base

    def _flush_batch(self, topic: str, partition: int) -> list[RecordMetadata]:
        batch = self._batches.pop((topic, partition), None)
        if batch is None or not batch.records:
            return []
        base = self._append_batch(topic, partition, batch.records, batch.sizes)
        out = [
            RecordMetadata(topic, partition, base + i)
            for i in range(len(batch.records))
        ]
        if self.tracer is not None:
            self.tracer.record_spans(
                "produce",
                "kafka",
                [record.headers.get(TRACE_HEADER) for record in batch.records],
                batch.sent_at,
                end=self.cluster.clock.now(),
                columns={"offset": range(base, base + len(batch.records))},
                topic=topic,
                partition=partition,
            )
        self.metrics.counter("records_sent").inc(len(batch.records))
        self.metrics.counter("batches_sent").inc()
        self.metrics.counter("bytes_sent").inc(batch.bytes)
        self._rotate_sticky(topic)
        self._last_flush = out
        return out

    def flush(self) -> list[RecordMetadata]:
        """Flush every pending batch; returns metadata for flushed records."""
        out: list[RecordMetadata] = []
        for topic, partition in list(self._batches):
            out.extend(self._flush_batch(topic, partition))
        return out

    def produce(
        self,
        topic: str,
        value: Any,
        key: Any = None,
        event_time: float | None = None,
        tier: str = "standard",
        headers: dict[str, Any] | None = None,
    ) -> RecordMetadata:
        """Send one record immediately (no batching); returns its metadata."""
        partition = self.send(
            topic, value, key=key, event_time=event_time, tier=tier, headers=headers
        )
        flushed = self._flush_batch(topic, partition)
        if not flushed:
            # send() already flushed the batch (it filled on this record,
            # rotating the sticky partition); the record's metadata is the
            # tail of that flush.
            flushed = self._last_flush
        return flushed[-1]
