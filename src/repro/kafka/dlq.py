"""Dead letter queues on top of the Kafka interface (Section 4.1.2).

In plain Kafka a consumer facing a poison message must either drop it
(data loss) or retry forever (head-of-line blocking).  Uber's DLQ strategy
publishes a message that failed several processing attempts to a dead
letter topic, keeping it out of the live path; users can later *purge*
(drop) or *merge* (re-inject for another attempt) the dead letters
(Section 4.1.4's merge-back path).

Design points, post-chaos-hardening:

* The dead letter topic mirrors the source topic's partition count and a
  dead letter lands on the *same partition index* it came from, so the
  DLQ preserves the source's ordering/parallelism instead of collapsing
  everything onto partition 0.
* Every dead letter is stamped with provenance headers (source topic,
  partition, offset, attempt count) so merge-back can route the record to
  exactly where it came from and auditing can trace it.
* Retries run under the shared :class:`~repro.common.retry.RetryPolicy`;
  ``max_retries`` is the *total* number of attempts, matching this
  module's documented "after ``max_retries`` failed attempts" semantics
  (the old code made ``1 + max_retries`` attempts through two duplicated
  loops).

:class:`DlqConsumer` wraps a regular consumer with this policy; it is also
reused by the consumer proxy (Section 4.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.common.errors import KafkaError, RetryExhaustedError
from repro.common.records import Record
from repro.common.retry import RetryPolicy, immediate
from repro.common.rng import seeded_rng
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.consumer import ConsumedMessage, Consumer


class FailurePolicy(Enum):
    """The three options Section 4.1.2 contrasts."""

    DROP = "drop"  # lose the message after retries
    BLOCK = "block"  # retry indefinitely, clogging the partition
    DLQ = "dlq"  # divert to the dead letter topic


def dlq_topic_name(topic: str, group: str) -> str:
    return f"{topic}.{group}.dlq"


# Provenance headers stamped on every dead letter (merge-back + auditing).
DLQ_SOURCE_TOPIC = "dlq.source.topic"
DLQ_SOURCE_PARTITION = "dlq.source.partition"
DLQ_SOURCE_OFFSET = "dlq.source.offset"
DLQ_ATTEMPTS = "dlq.attempts"
_DLQ_HEADERS = (DLQ_SOURCE_TOPIC, DLQ_SOURCE_PARTITION, DLQ_SOURCE_OFFSET,
                DLQ_ATTEMPTS)


def make_dead_letter(message: ConsumedMessage, attempts: int) -> Record:
    """The record to publish to the DLQ: original payload + provenance."""
    record = message.entry.record
    headers = dict(record.headers)
    headers[DLQ_SOURCE_TOPIC] = message.topic
    headers[DLQ_SOURCE_PARTITION] = message.partition
    headers[DLQ_SOURCE_OFFSET] = message.offset
    headers[DLQ_ATTEMPTS] = attempts
    return Record(record.key, record.value, record.event_time, headers)


def strip_dlq_headers(record: Record) -> Record:
    """The record to merge back: original payload, provenance removed."""
    headers = {k: v for k, v in record.headers.items() if k not in _DLQ_HEADERS}
    return Record(record.key, record.value, record.event_time, headers)


def create_dlq_topic(cluster: KafkaCluster, source_topic: str, group: str) -> str:
    """Create (if needed) the group's DLQ topic, mirroring the source
    topic's partition count; returns its name."""
    name = dlq_topic_name(source_topic, group)
    if not cluster.has_topic(name):
        cluster.create_topic(
            name,
            TopicConfig(
                partitions=cluster.partition_count(source_topic),
                replication_factor=1,
            ),
        )
    return name


@dataclass
class ProcessingStats:
    processed: int = 0
    failed_attempts: int = 0
    dropped: int = 0
    dead_lettered: int = 0
    blocked_on: ConsumedMessage | None = None


class DlqConsumer:
    """Consumer wrapper that applies a failure policy with bounded retries.

    ``handler(message) -> None`` raising marks the attempt failed.  With
    policy DLQ, after ``max_retries`` failed attempts (total — the retry
    policy's ``max_attempts``) the record is published to the dead letter
    topic and the consumer moves on.
    """

    def __init__(
        self,
        cluster: KafkaCluster,
        consumer: Consumer,
        handler: Callable[[ConsumedMessage], None],
        policy: FailurePolicy = FailurePolicy.DLQ,
        max_retries: int = 3,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_retries < 1:
            raise KafkaError(f"max_retries must be >= 1, got {max_retries}")
        self.cluster = cluster
        self.consumer = consumer
        self.handler = handler
        self.policy = policy
        self.retry_policy = retry_policy or immediate(max_retries)
        self.max_retries = self.retry_policy.max_attempts
        self.stats = ProcessingStats()
        self._retry_rng = seeded_rng(0, f"dlq.{consumer.group}")
        self._dlq_topic = dlq_topic_name(consumer.topic, consumer.group)
        # partition -> how many of its dead letters were merged or purged
        self._merge_positions: dict[int, int] = {}
        if policy is FailurePolicy.DLQ:
            create_dlq_topic(cluster, consumer.topic, consumer.group)

    @property
    def dlq_topic(self) -> str:
        return self._dlq_topic

    def _attempt(self, message: ConsumedMessage) -> None:
        """One handler invocation; raises on failure (for the retry policy)."""
        try:
            self.handler(message)
        except Exception:
            self.stats.failed_attempts += 1
            raise
        self.stats.processed += 1

    def _process(self, message: ConsumedMessage) -> bool:
        """Run the handler under the shared retry policy.

        True when some attempt succeeded; False when all ``max_retries``
        attempts failed.  One code path for every failure policy — the old
        implementation duplicated this loop per policy.
        """
        try:
            self.retry_policy.call(
                lambda: self._attempt(message),
                clock=self.cluster.clock,
                rng=self._retry_rng,
            )
        except RetryExhaustedError:
            return False
        return True

    def process_batch(self, max_records: int = 500) -> int:
        """Poll once and process the batch under the failure policy.

        Returns the number of records that left the live path (processed,
        dropped, or dead-lettered).  With policy BLOCK, processing stops at
        the first permanently failing record and the method returns early —
        subsequent records in the partition stay stuck behind it, which is
        exactly the pathology the DLQ eliminates.
        """
        completed = 0
        for message in self.consumer.poll(max_records):
            if self._process(message):
                completed += 1
                continue
            if self.policy is FailurePolicy.BLOCK:
                self.stats.blocked_on = message
                # Rewind so the failed record is re-fetched next poll.
                self.consumer.seek(message.partition, message.offset)
                return completed
            if self.policy is FailurePolicy.DROP:
                self.stats.dropped += 1
            else:  # DLQ: same partition index, provenance stamped
                self.cluster.append(
                    self._dlq_topic,
                    message.partition,
                    make_dead_letter(message, self.max_retries),
                )
                self.stats.dead_lettered += 1
            completed += 1
        self.consumer.commit()
        return completed

    # -- dead letter management (user-driven, Section 4.1.2) -------------------

    def dead_letters(self) -> list[ConsumedMessage]:
        """Peek at the current contents of the dead letter topic (all
        partitions, partition-major order)."""
        out = []
        for partition in range(self.cluster.partition_count(self._dlq_topic)):
            start = self.cluster.start_offset(self._dlq_topic, partition)
            end = self.cluster.end_offset(self._dlq_topic, partition)
            offset = start
            while offset < end:
                for entry in self.cluster.fetch(
                    self._dlq_topic, partition, offset, 1000
                ):
                    out.append(
                        ConsumedMessage(
                            self._dlq_topic, partition, entry.offset, entry
                        )
                    )
                    offset = entry.offset + 1
        return out

    def _pending_by_partition(self) -> dict[int, list[ConsumedMessage]]:
        pending: dict[int, list[ConsumedMessage]] = {}
        for message in self.dead_letters():
            pending.setdefault(message.partition, []).append(message)
        return {
            partition: messages[self._merge_positions.get(partition, 0):]
            for partition, messages in pending.items()
        }

    def merge_dead_letters(self) -> int:
        """Re-inject dead letters into the live topic for another attempt.

        Each record returns to the source partition stamped in its
        provenance headers (the §4.1.4 merge-back path), with the DLQ
        headers stripped so a re-failure re-enters the DLQ cleanly.
        Returns the number merged.  The DLQ itself is not truncated (Kafka
        topics are immutable); a real deployment tracks a merge offset per
        partition, which we do too.
        """
        merged = 0
        for partition, messages in sorted(self._pending_by_partition().items()):
            for message in messages:
                record = message.entry.record
                target_topic = record.headers.get(
                    DLQ_SOURCE_TOPIC, self.consumer.topic
                )
                target = record.headers.get(DLQ_SOURCE_PARTITION, partition)
                self.cluster.append(
                    target_topic, target, strip_dlq_headers(record)
                )
                merged += 1
            self._merge_positions[partition] = (
                self._merge_positions.get(partition, 0) + len(messages)
            )
        return merged

    def purge_dead_letters(self) -> int:
        """Acknowledge-and-forget everything currently in the DLQ."""
        purged = 0
        for partition, messages in self._pending_by_partition().items():
            purged += len(messages)
            self._merge_positions[partition] = (
                self._merge_positions.get(partition, 0) + len(messages)
            )
        return purged
