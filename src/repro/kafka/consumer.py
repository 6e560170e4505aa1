"""Consumers and consumer groups.

Implements the open-source consumer model the paper contrasts the proxy
against (Section 4.1.3): a group's partitions are range-assigned across
members, so parallelism is capped at the partition count — extra members
sit idle.  Offset commits live in group coordinators per cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import KafkaError, OffsetOutOfRangeError
from repro.common.metrics import MetricsRegistry
from repro.kafka.cluster import KafkaCluster
from repro.kafka.log import LogEntry
from repro.observability.trace import TRACE_HEADER, SpanCollector


@dataclass(slots=True)
class ConsumedMessage:
    """One message as seen by a consumer."""

    topic: str
    partition: int
    offset: int
    entry: LogEntry


class GroupCoordinator:
    """Tracks membership and committed offsets for the groups of a cluster."""

    def __init__(self, cluster: KafkaCluster) -> None:
        self.cluster = cluster
        # group -> topic -> [member ids]
        self._members: dict[str, dict[str, list[str]]] = {}
        # (group, topic, partition) -> committed offset
        self._offsets: dict[tuple[str, str, int], int] = {}
        self._generation: dict[str, int] = {}

    def join(self, group: str, topic: str, member_id: str) -> None:
        members = self._members.setdefault(group, {}).setdefault(topic, [])
        if member_id not in members:
            members.append(member_id)
            self._generation[group] = self._generation.get(group, 0) + 1

    def leave(self, group: str, topic: str, member_id: str) -> None:
        members = self._members.get(group, {}).get(topic, [])
        if member_id in members:
            members.remove(member_id)
            self._generation[group] = self._generation.get(group, 0) + 1

    def generation(self, group: str) -> int:
        return self._generation.get(group, 0)

    def assignment(self, group: str, topic: str, member_id: str) -> list[int]:
        """Range assignment of partitions to this member.

        Members beyond the partition count receive nothing — the
        parallelism cap the consumer proxy (Section 4.1.3) removes.
        """
        members = sorted(self._members.get(group, {}).get(topic, []))
        if member_id not in members:
            return []
        num_partitions = self.cluster.partition_count(topic)
        index = members.index(member_id)
        per_member = num_partitions // len(members)
        extra = num_partitions % len(members)
        start = index * per_member + min(index, extra)
        count = per_member + (1 if index < extra else 0)
        return list(range(start, start + count))

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        self._offsets[(group, topic, partition)] = offset

    def committed(self, group: str, topic: str, partition: int) -> int | None:
        return self._offsets.get((group, topic, partition))

    def committed_offsets(self, group: str, topic: str) -> dict[int, int]:
        return {
            p: self._offsets[(g, t, p)]
            for (g, t, p) in self._offsets
            if g == group and t == topic
        }

    def group_lag(self, group: str, topic: str) -> int:
        total = 0
        for partition in range(self.cluster.partition_count(topic)):
            committed = self._offsets.get((group, topic, partition), 0)
            total += self.cluster.end_offset(topic, partition) - committed
        return total


class Consumer:
    """A group member that polls assigned partitions.

    ``auto_offset_reset`` handles the two recovery extremes the paper's
    offset-sync discussion names (Section 6): "latest" resumes from the
    high watermark (may skip data), "earliest" from the low watermark (may
    reprocess a large backlog).
    """

    def __init__(
        self,
        cluster: KafkaCluster,
        coordinator: GroupCoordinator,
        group: str,
        topic: str,
        member_id: str,
        auto_offset_reset: str = "earliest",
        metrics: MetricsRegistry | None = None,
        tracer: SpanCollector | None = None,
    ) -> None:
        if auto_offset_reset not in ("earliest", "latest"):
            raise KafkaError(
                f"auto_offset_reset must be 'earliest' or 'latest', "
                f"got {auto_offset_reset!r}"
            )
        self.cluster = cluster
        self.coordinator = coordinator
        self.group = group
        self.topic = topic
        self.member_id = member_id
        self.auto_offset_reset = auto_offset_reset
        self.tracer = tracer
        self._positions: dict[int, int] = {}
        self._seen_generation = -1
        self.metrics = metrics or MetricsRegistry(f"consumer.{group}.{member_id}")
        coordinator.join(group, topic, member_id)

    def assignment(self) -> list[int]:
        return self.coordinator.assignment(self.group, self.topic, self.member_id)

    def _position(self, partition: int) -> int:
        if partition not in self._positions:
            committed = self.coordinator.committed(self.group, self.topic, partition)
            if committed is not None:
                self._positions[partition] = committed
            elif self.auto_offset_reset == "earliest":
                self._positions[partition] = self.cluster.start_offset(
                    self.topic, partition
                )
            else:
                self._positions[partition] = self.cluster.end_offset(
                    self.topic, partition
                )
        return self._positions[partition]

    def _refresh_assignment(self) -> None:
        generation = self.coordinator.generation(self.group)
        if generation != self._seen_generation:
            # Rebalance: drop positions for partitions we no longer own so
            # they are re-fetched from the committed offsets.
            owned = set(self.assignment())
            self._positions = {
                p: off for p, off in self._positions.items() if p in owned
            }
            self._seen_generation = generation

    def poll(self, max_records: int = 500) -> list[ConsumedMessage]:
        """Fetch the next batch across the member's assigned partitions."""
        self._refresh_assignment()
        out: list[ConsumedMessage] = []
        partitions = self.assignment()
        if not partitions:
            return out
        budget = max(1, max_records // len(partitions))
        for partition in partitions:
            position = self._position(partition)
            try:
                entries = self.cluster.fetch(self.topic, partition, position, budget)
            except OffsetOutOfRangeError:
                # Retention passed us by; reset per policy.
                if self.auto_offset_reset == "earliest":
                    position = self.cluster.start_offset(self.topic, partition)
                else:
                    position = self.cluster.end_offset(self.topic, partition)
                self._positions[partition] = position
                entries = self.cluster.fetch(self.topic, partition, position, budget)
            for entry in entries:
                out.append(ConsumedMessage(self.topic, partition, entry.offset, entry))
            if self.tracer is not None and entries:
                # Consume latency = log dwell time: append to poll.
                self.tracer.record_spans(
                    "consume",
                    "kafka",
                    [entry.record.headers.get(TRACE_HEADER) for entry in entries],
                    [entry.append_time for entry in entries],
                    end=self.cluster.clock.now(),
                    topic=self.topic,
                    partition=partition,
                    group=self.group,
                )
            if entries:
                self._positions[partition] = entries[-1].offset + 1
        self.metrics.counter("records_polled").inc(len(out))
        return out

    def commit(self) -> None:
        """Commit current positions for owned partitions."""
        for partition, offset in self._positions.items():
            self.coordinator.commit(self.group, self.topic, partition, offset)

    def seek(self, partition: int, offset: int) -> None:
        self._positions[partition] = offset

    def lag(self) -> int:
        """This member's lag over its assigned partitions."""
        total = 0
        for partition in self.assignment():
            total += self.cluster.end_offset(self.topic, partition) - self._position(
                partition
            )
        return total

    def close(self) -> None:
        self.commit()
        self.coordinator.leave(self.group, self.topic, self.member_id)
