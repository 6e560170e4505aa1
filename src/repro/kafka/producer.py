"""Producer with batching, partitioning and acks semantics.

Mirrors the knobs the paper's use cases tune: surge pricing produces with
``acks=1`` for throughput (Section 5.1); financial topics force
``acks=all`` for zero loss (Section 9.2).  A record's headers are exactly
what the caller passed, usually none: nothing stamps it, and a tracer names
it by the offset it lands at (:mod:`repro.observability.trace`).
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
from repro.common.perf import PERF
from repro.common.records import Record
from repro.common.retry import RetryPolicy
from repro.common.rng import seeded_rng
from repro.kafka.cluster import KafkaCluster, ProducerCtx
from repro.observability.trace import Hop, SpanCollector


@dataclass(slots=True)
class RecordMetadata:
    """Where :meth:`Producer.produce` put its record."""

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
    # Each record's send time, kept only by a traced producer.
    sent_at: list[float] | None
    records: list[Record] = field(default_factory=list)
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
        tracer: SpanCollector | None = None,
        retry_policy: RetryPolicy | None = None,
        transactional_id: str | None = None,
    ) -> None:
        if acks not in ("0", "1", "all"):
            raise KafkaError(f"acks must be one of '0', '1', 'all'; got {acks!r}")
        self.cluster = cluster
        self.acks = acks
        self.batch_size = batch_size
        self.clock = clock or cluster.clock or SystemClock()
        # Span timestamps must come from the broker-side clock: a producer
        # constructed with its own clock would otherwise emit produce spans
        # that end (at append, cluster time) before they start.
        self._broker_now = cluster.clock.now
        self.tracer = tracer
        # The produce hop of each (topic, partition), bound at its first
        # traced flush (see SpanCollector.hop).
        self._hops: dict[tuple[str, int], Hop] = {}
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
        self._last_offset = -1  # of the last record the last batch appended
        self.batches_sent = 0
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
        headers: dict[str, Any] | None = None,
    ) -> int:
        """Buffer one record for sending; returns the partition it joined.

        ``headers`` lets re-producers (e.g. a Flink sink writing derived
        results back to Kafka) continue an upstream trace instead of
        starting a new one.
        """
        if event_time is None:
            event_time = self.clock.now()
        record = Record(key, value, event_time, dict(headers) if headers else {})
        partition = self._choose_partition(topic, key)
        batch = self._batches.get((topic, partition))
        if batch is None:
            batch = self._batches[(topic, partition)] = _Batch(
                partition, [] if self.tracer is not None else None
            )
        batch.records.append(record)
        sent_at = batch.sent_at
        if sent_at is not None:
            sent_at.append(self._broker_now())
        # Size the record once, from its fields (no envelope is built or
        # encoded): the size drives batch accounting here and rides along
        # to the broker and every replica, which never size it again.
        size = _record_size(record)
        batch.sizes.append(size)
        batch.bytes += size
        self._sends += 1
        if batch.bytes >= self.batch_size:
            self._flush_batch(topic, partition)
        return partition

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

    def _flush_batch(self, topic: str, partition: int) -> int:
        """Append one pending batch; returns the records it appended."""
        batch = self._batches.pop((topic, partition), None)
        if batch is None or not batch.records:
            return 0
        count = len(batch.records)
        base = self._append_batch(topic, partition, batch.records, batch.sizes)
        tracer = self.tracer
        if tracer is not None and batch.sent_at is not None:
            hop = self._hops.get((topic, partition))
            if hop is None or hop.collector is not tracer:
                hop = self._hops[(topic, partition)] = tracer.hop(
                    "records", "produce", "kafka", topic=topic, partition=partition
                )
            hop.record(batch.records, batch.sent_at, self._broker_now(), base)
        self.batches_sent += 1
        self._rotate_sticky(topic)
        self._last_offset = base + count - 1
        return count

    def flush(self) -> int:
        """Flush every pending batch; returns the records appended.

        A record's offset is read off the log (``fetch``, ``end_offset``),
        or asked for by sending it with :meth:`produce`.
        """
        return sum(
            self._flush_batch(topic, partition)
            for topic, partition in list(self._batches)
        )

    def discard(self) -> None:
        """Drop every pending batch unsent."""
        self._batches.clear()

    def produce(
        self,
        topic: str,
        value: Any,
        key: Any = None,
        event_time: float | None = None,
        headers: dict[str, Any] | None = None,
    ) -> RecordMetadata:
        """Send one record immediately (no batching); returns its metadata.

        The record is the last one its batch appended: either the flush
        here, or, when the record filled its batch, the flush ``send``
        already made (which rotated the sticky partition).
        """
        partition = self.send(
            topic, value, key=key, event_time=event_time, headers=headers
        )
        self._flush_batch(topic, partition)
        return RecordMetadata(topic, partition, self._last_offset)
