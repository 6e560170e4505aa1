"""Kafka cluster federation (Section 4.1.1).

A metadata server aggregates all cluster/topic metadata in one place and
presents producers and consumers with a single "logical cluster": clients
address topics by name and the federation routes each request to the
physical cluster that hosts it.

Reproduced properties:

* **Scalability** — based on Uber's empirical data the ideal cluster size
  is < 150 nodes; when every cluster is at its node cap and topic capacity
  is exhausted, the federation scales horizontally by adding a cluster, and
  new topics land there seamlessly.
* **Availability** — single-cluster failure only affects topics hosted
  there; new topics avoid dead clusters.
* **Topic management** — a topic can be migrated between physical clusters
  and live consumers are redirected *without restart*: the federated
  consumer notices the move on its next poll and continues from the
  equivalent position on the new cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import Clock, SystemClock
from repro.common.errors import KafkaError, UnknownTopicError
from repro.common.records import Record
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.consumer import ConsumedMessage, Consumer, GroupCoordinator
from repro.kafka.producer import hash_partitioner

IDEAL_MAX_NODES_PER_CLUSTER = 150

# How many partitions one broker node can host at "optimum performance".
# This is the scaled-down stand-in for the capacity rule behind the
# <150-node guidance; the ratio, not the constant, is what experiments use.
PARTITIONS_PER_NODE = 8


@dataclass
class _TopicLocation:
    cluster_name: str
    # Epoch increments on every migration; consumers use it to notice moves.
    epoch: int = 0


class FederationMetadataServer:
    """Central routing table: topic -> physical cluster."""

    def __init__(self) -> None:
        self._clusters: dict[str, KafkaCluster] = {}
        self._locations: dict[str, _TopicLocation] = {}

    def add_cluster(self, cluster: KafkaCluster) -> None:
        if cluster.name in self._clusters:
            raise KafkaError(f"cluster {cluster.name!r} already federated")
        if cluster.num_brokers > IDEAL_MAX_NODES_PER_CLUSTER:
            raise KafkaError(
                f"cluster {cluster.name!r} has {cluster.num_brokers} nodes; "
                f"the ideal cluster size is <= {IDEAL_MAX_NODES_PER_CLUSTER}"
            )
        self._clusters[cluster.name] = cluster

    def clusters(self) -> list[KafkaCluster]:
        return list(self._clusters.values())

    def cluster(self, name: str) -> KafkaCluster:
        if name not in self._clusters:
            raise KafkaError(f"unknown cluster {name!r}")
        return self._clusters[name]

    def locate(self, topic: str) -> tuple[KafkaCluster, int]:
        """Physical cluster hosting a topic, plus the location epoch."""
        loc = self._locations.get(topic)
        if loc is None:
            raise UnknownTopicError(f"topic {topic!r} is not in the federation")
        return self._clusters[loc.cluster_name], loc.epoch

    def capacity_remaining(self, cluster: KafkaCluster) -> int:
        """Partition slots left on a cluster under the per-node rule."""
        used = sum(len(t.partitions) for t in cluster.topics.values())
        return cluster.num_brokers * PARTITIONS_PER_NODE - used

    def _cluster_healthy(self, cluster: KafkaCluster) -> bool:
        return any(b.alive for b in cluster.brokers.values())

    def place_topic(self, topic: str, config: TopicConfig | None = None) -> KafkaCluster:
        """Create a topic on the healthy cluster with the most free capacity."""
        if topic in self._locations:
            raise KafkaError(f"topic {topic!r} already placed")
        config = config or TopicConfig()
        candidates = [
            c
            for c in self._clusters.values()
            if self._cluster_healthy(c)
            and self.capacity_remaining(c) >= config.partitions
        ]
        if not candidates:
            raise KafkaError(
                "federation is full: no healthy cluster has capacity for "
                f"{config.partitions} partitions — add a cluster"
            )
        chosen = max(candidates, key=self.capacity_remaining)
        chosen.create_topic(topic, config)
        self._locations[topic] = _TopicLocation(chosen.name)
        return chosen

    def migrate_topic(self, topic: str, destination: str) -> None:
        """Move a topic to another cluster, copying retained data.

        Live federated consumers are redirected transparently: the location
        epoch bumps, and on their next poll they re-resolve the topic and
        continue from the same offsets (data is copied offset-aligned).
        """
        source, __ = self.locate(topic)
        dest = self.cluster(destination)
        if dest.name == source.name:
            return
        config = source.topics[topic].config
        if self.capacity_remaining(dest) < config.partitions:
            raise KafkaError(
                f"cluster {destination!r} lacks capacity for {topic!r}"
            )
        dest.create_topic(topic, config)
        for partition in range(source.partition_count(topic)):
            start = source.start_offset(topic, partition)
            end = source.end_offset(topic, partition)
            offset = start
            while offset < end:
                for entry in source.fetch(topic, partition, offset, 1000):
                    dest.append(topic, partition, entry.record, acks="1")
                    offset = entry.offset + 1
        source.delete_topic(topic)
        loc = self._locations[topic]
        loc.cluster_name = destination
        loc.epoch += 1

    def add_capacity_for(self, config: TopicConfig, brokers_per_new_cluster: int = 8):
        """Operator action: add a new physical cluster sized for growth."""
        name = f"cluster-{len(self._clusters)}"
        clock = next(iter(self._clusters.values())).clock if self._clusters else None
        cluster = KafkaCluster(name, num_brokers=brokers_per_new_cluster, clock=clock or SystemClock())
        self.add_cluster(cluster)
        return cluster


class FederatedProducer:
    """Producer facade over the logical cluster."""

    def __init__(
        self,
        metadata: FederationMetadataServer,
        acks: str = "1",
        clock: Clock | None = None,
    ) -> None:
        self.metadata = metadata
        self.acks = acks
        self.clock = clock or SystemClock()

    def produce(self, topic: str, value, key=None, event_time: float | None = None):
        cluster, __ = self.metadata.locate(topic)
        record = Record(
            key=key,
            value=value,
            event_time=self.clock.now() if event_time is None else event_time,
        )
        partition = (
            hash_partitioner(key, cluster.partition_count(topic))
            if key is not None
            else 0
        )
        return cluster.append(topic, partition, record, acks=self.acks)


class FederatedConsumer:
    """Consumer facade that survives topic migration without restart.

    Tracks the location epoch it last saw; when the epoch changes it
    re-resolves the physical cluster, re-joins the group there and resumes
    from its last positions.  The application's poll loop never stops —
    this is the Section 4.1.1 "consumer traffic redirection ... without
    restarting the application".
    """

    def __init__(
        self,
        metadata: FederationMetadataServer,
        coordinators: dict[str, GroupCoordinator],
        group: str,
        topic: str,
        member_id: str = "member-0",
    ) -> None:
        self.metadata = metadata
        self._coordinators = coordinators
        self.group = group
        self.topic = topic
        self.member_id = member_id
        self._epoch = -1
        self._consumer: Consumer | None = None
        self.redirects = 0
        self._attach()

    def _attach(self) -> None:
        cluster, epoch = self.metadata.locate(self.topic)
        coordinator = self._coordinators.setdefault(
            cluster.name, GroupCoordinator(cluster)
        )
        if cluster.name not in [c.name for c in self.metadata.clusters()]:
            raise KafkaError(f"cluster {cluster.name} vanished")
        previous_positions: dict[int, int] = {}
        if self._consumer is not None:
            previous_positions = dict(self._consumer._positions)
            self._consumer.close()
            self.redirects += 1
        # Coordinators are per-physical-cluster; a stale coordinator for the
        # same cluster object is reused, preserving committed offsets.
        if self._coordinators.get(cluster.name) is None or (
            self._coordinators[cluster.name].cluster is not cluster
        ):
            self._coordinators[cluster.name] = GroupCoordinator(cluster)
            coordinator = self._coordinators[cluster.name]
        self._consumer = Consumer(
            cluster, coordinator, self.group, self.topic, self.member_id
        )
        for partition, offset in previous_positions.items():
            self._consumer.seek(partition, offset)
        self._epoch = epoch

    def poll(self, max_records: int = 500) -> list[ConsumedMessage]:
        __, epoch = self.metadata.locate(self.topic)
        if epoch != self._epoch:
            self._attach()
        assert self._consumer is not None
        return self._consumer.poll(max_records)

    def commit(self) -> None:
        assert self._consumer is not None
        self._consumer.commit()

    def close(self) -> None:
        if self._consumer is not None:
            self._consumer.close()
            self._consumer = None
