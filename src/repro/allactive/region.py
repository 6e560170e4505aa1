"""Regions and the multi-region Kafka topology (Section 6).

"All the trip events are sent over to the Kafka regional cluster and then
aggregated into the aggregate clusters for the global view."

A :class:`Region` owns a regional cluster (local produce) and an aggregate
cluster (global view).  :class:`MultiRegionDeployment` wires uReplicators
from every region's regional cluster into every region's aggregate
cluster, so each aggregate cluster independently converges to the same
global message set — the property that lets redundant per-region Flink
jobs compute convergent state (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import Clock, SimulatedClock
from repro.common.errors import RegionError
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.kafka.ureplicator import OffsetMappingStore, UReplicator


@dataclass
class Region:
    name: str
    regional: KafkaCluster
    aggregate: KafkaCluster
    healthy: bool = True


class MultiRegionDeployment:
    """N regions with all-to-all regional -> aggregate replication."""

    def __init__(
        self,
        region_names: list[str],
        clock: Clock | None = None,
        brokers_per_cluster: int = 3,
    ) -> None:
        if len(region_names) < 2:
            raise RegionError("a multi-region deployment needs >= 2 regions")
        self.clock = clock or SimulatedClock()
        self.regions: dict[str, Region] = {}
        for name in region_names:
            self.regions[name] = Region(
                name=name,
                regional=KafkaCluster(
                    f"{name}-regional", brokers_per_cluster, clock=self.clock
                ),
                aggregate=KafkaCluster(
                    f"{name}-aggregate", brokers_per_cluster, clock=self.clock
                ),
            )
        self.offset_store = OffsetMappingStore()
        self._replicators: list[UReplicator] = []
        self._producers: dict[tuple[str, str], Producer] = {}
        self.topics: list[str] = []

    def region(self, name: str) -> Region:
        if name not in self.regions:
            raise RegionError(f"unknown region {name!r}")
        return self.regions[name]

    def healthy_regions(self) -> list[Region]:
        return [r for r in self.regions.values() if r.healthy]

    def create_topic(self, topic: str, config: TopicConfig | None = None) -> None:
        """Create the topic on every regional and aggregate cluster and
        wire all-to-all replication."""
        config = config or TopicConfig()
        self.topics.append(topic)
        for region in self.regions.values():
            region.regional.create_topic(topic, config)
            region.aggregate.create_topic(topic, config)
        for src in self.regions.values():
            for dst in self.regions.values():
                self._replicators.append(
                    UReplicator(
                        src.regional,
                        dst.aggregate,
                        topic,
                        num_workers=2,
                        checkpoint_store=self.offset_store,
                        checkpoint_interval=50,
                    )
                )

    def producer(self, region_name: str, service: str) -> Producer:
        key = (region_name, service)
        if key not in self._producers:
            self._producers[key] = Producer(
                self.region(region_name).regional,
                service_name=service,
                clock=self.clock,
            )
        return self._producers[key]

    def replicate_step(self) -> int:
        """One round of cross-cluster replication everywhere."""
        copied = 0
        for replicator in self._replicators:
            if not self.regions_for(replicator).healthy:
                continue
            copied += replicator.run_step()
        return copied

    def regions_for(self, replicator: UReplicator) -> Region:
        """The source region of a replicator (skipped while unhealthy)."""
        for region in self.regions.values():
            if replicator.source is region.regional:
                return region
        raise RegionError("replicator source is not a known region")

    def replicate_until_converged(self, max_steps: int = 1000) -> int:
        total = 0
        for __ in range(max_steps):
            copied = self.replicate_step()
            total += copied
            if copied == 0:
                return total
        raise RegionError(f"replication did not converge in {max_steps} steps")

    def fail_region(self, name: str) -> None:
        self.region(name).healthy = False

    def recover_region(self, name: str) -> None:
        self.region(name).healthy = True
