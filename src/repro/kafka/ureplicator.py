"""uReplicator: cross-cluster Kafka replication (Section 4.1.4).

Replicates topic partitions from a source cluster to a destination cluster
(regional -> aggregate in the all-active setup of Section 6).  Reproduced
design points:

* **Minimal-movement rebalancing.**  Partition->worker assignment is
  *sticky*: when workers join or leave, only the partitions that must move
  do.  A naive baseline (full round-robin reassignment) is provided for the
  comparison bench.
* **Elasticity under bursty traffic.**  A pool of standby workers absorbs
  load: when a worker's assigned lag exceeds a threshold, standbys are
  activated and the hottest partitions are redistributed to them.
* **Offset mapping checkpoints.**  While replicating, the worker
  periodically checkpoints the source->destination offset mapping into an
  :class:`OffsetMappingStore` — the input to the active/passive offset sync
  of Section 6 (Figure 7).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.common.errors import (
    BrokerUnavailableError,
    KafkaError,
    NotEnoughReplicasError,
    RetryExhaustedError,
)
from repro.common.records import Record
from repro.common.retry import RetryPolicy
from repro.common.rng import seeded_rng
from repro.kafka.cluster import KafkaCluster, TopicConfig


@dataclass(frozen=True, slots=True)
class OffsetMapping:
    """One checkpoint: source offset ``src`` replicated to dest offset ``dst``."""

    src: int
    dst: int
    checkpoint_time: float


class OffsetMappingStore:
    """Active-active DB of offset mapping checkpoints (Figure 7)."""

    def __init__(self) -> None:
        self._mappings: dict[tuple[str, str, int], list[OffsetMapping]] = {}

    def record(
        self,
        route: str,
        topic: str,
        partition: int,
        src: int,
        dst: int,
        when: float,
    ) -> None:
        """Append a checkpoint for a replication route (e.g. "regionA->aggB")."""
        history = self._mappings.setdefault((route, topic, partition), [])
        if history and src < history[-1].src:
            raise KafkaError(
                f"offset mapping checkpoints must be monotonic; "
                f"{src} < {history[-1].src}"
            )
        history.append(OffsetMapping(src, dst, when))

    def translate(self, route: str, topic: str, partition: int, src: int) -> int | None:
        """Largest checkpointed destination offset whose source offset is
        <= ``src``; None if nothing is checkpointed yet.

        This is the conservative translation an active/passive consumer
        uses at failover: it may re-read a little (between checkpoints) but
        never skips data.
        """
        history = self._mappings.get((route, topic, partition))
        if not history:
            return None
        index = bisect_right([m.src for m in history], src)
        if index == 0:
            return None
        return history[index - 1].dst

    def latest(self, route: str, topic: str, partition: int) -> OffsetMapping | None:
        history = self._mappings.get((route, topic, partition))
        return history[-1] if history else None


@dataclass
class _Worker:
    name: str
    standby: bool = False
    active: bool = True
    assigned: set[int] = field(default_factory=set)  # partition ids
    replicated: int = 0


class UReplicator:
    """Replicates one topic between two clusters with a worker fleet."""

    def __init__(
        self,
        source: KafkaCluster,
        destination: KafkaCluster,
        topic: str,
        num_workers: int = 2,
        num_standby: int = 1,
        worker_throughput: int = 1000,
        checkpoint_store: OffsetMappingStore | None = None,
        checkpoint_interval: int = 100,
        burst_lag_threshold: int = 5000,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if num_workers < 1:
            raise KafkaError("uReplicator needs at least one active worker")
        self.source = source
        self.destination = destination
        self.topic = topic
        self.worker_throughput = worker_throughput
        self.checkpoint_store = checkpoint_store
        self.checkpoint_interval = checkpoint_interval
        self.burst_lag_threshold = burst_lag_threshold
        # Broker blips on either side retry under this policy before the
        # worker gives the partition up for the round.
        self.retry_policy = retry_policy
        self.route = f"{source.name}->{destination.name}"
        self._retry_rng = seeded_rng(0, f"ureplicator.{self.route}")
        if not destination.has_topic(topic):
            src_cfg = source.topics[topic].config
            destination.create_topic(
                topic,
                TopicConfig(
                    partitions=src_cfg.partitions,
                    replication_factor=min(
                        src_cfg.replication_factor, destination.num_brokers
                    ),
                ),
            )
        self._positions: dict[int, int] = {
            p: source.start_offset(topic, p)
            for p in range(source.partition_count(topic))
        }
        self._since_checkpoint: dict[int, int] = {p: 0 for p in self._positions}
        self.workers: list[_Worker] = [
            _Worker(f"worker-{i}") for i in range(num_workers)
        ]
        self.workers.extend(
            _Worker(f"standby-{i}", standby=True, active=False)
            for i in range(num_standby)
        )
        self.rebalance(sticky=True)

    # -- assignment -------------------------------------------------------------

    def _active_workers(self) -> list[_Worker]:
        return [w for w in self.workers if w.active]

    def rebalance(self, sticky: bool = True) -> int:
        """(Re)assign partitions to active workers.

        With ``sticky=True`` (uReplicator's algorithm) existing placements
        are kept wherever possible and only the excess moves.  With
        ``sticky=False`` (naive baseline) everything is reassigned
        round-robin.  Returns the number of partition movements.
        """
        partitions = set(self._positions)
        active = self._active_workers()
        if not active:
            raise KafkaError("no active uReplicator workers")
        before = {p: w.name for w in self.workers for p in w.assigned}
        if not sticky:
            for worker in self.workers:
                worker.assigned.clear()
            for index, partition in enumerate(sorted(partitions)):
                active[index % len(active)].assigned.add(partition)
        else:
            # Drop assignments on inactive workers; collect orphans.
            for worker in self.workers:
                if not worker.active:
                    worker.assigned.clear()
            assigned_now = {p for w in active for p in w.assigned}
            orphans = sorted(partitions - assigned_now)
            target = len(partitions) // len(active)
            ceiling = target + (1 if len(partitions) % len(active) else 0)
            # Shed from overloaded workers first.
            for worker in active:
                while len(worker.assigned) > ceiling:
                    orphans.append(worker.assigned.pop())
            # Give orphans to the least-loaded workers.
            for partition in sorted(orphans):
                least = min(active, key=lambda w: len(w.assigned))
                least.assigned.add(partition)
        after = {p: w.name for w in self.workers for p in w.assigned}
        return sum(
            1 for p in partitions if before.get(p) is not None and before.get(p) != after.get(p)
        )

    def add_worker(self, sticky: bool = True) -> int:
        self.workers.append(_Worker(f"worker-{len(self.workers)}"))
        return self.rebalance(sticky=sticky)

    def remove_worker(self, name: str, sticky: bool = True) -> int:
        for worker in self.workers:
            if worker.name == name:
                worker.active = False
                worker.assigned.clear()
                return self.rebalance(sticky=sticky)
        raise KafkaError(f"no worker named {name!r}")

    def activate_standbys_if_bursty(self) -> int:
        """Bring standby workers online when lag crosses the threshold.

        Returns the number of standbys activated.  This is the "adaptive to
        the workload ... dynamically redistribute the load to the standby
        workers" behaviour.
        """
        if self.total_lag() < self.burst_lag_threshold:
            return 0
        activated = 0
        for worker in self.workers:
            if worker.standby and not worker.active:
                worker.active = True
                activated += 1
        if activated:
            self.rebalance(sticky=True)
        return activated

    def deactivate_standbys_if_idle(self) -> int:
        """Release standbys once the burst has drained."""
        if self.total_lag() >= self.burst_lag_threshold // 10:
            return 0
        released = 0
        for worker in self.workers:
            if worker.standby and worker.active:
                worker.active = False
                released += 1
        if released:
            self.rebalance(sticky=True)
        return released

    # -- data movement ------------------------------------------------------------

    def total_lag(self) -> int:
        lag = 0
        for partition, position in self._positions.items():
            try:
                lag += self.source.end_offset(self.topic, partition) - position
            except BrokerUnavailableError:
                continue
        return lag

    def _fetch(self, partition: int, position: int, budget: int) -> list:
        fetch = lambda: self.source.fetch(self.topic, partition, position, budget)
        if self.retry_policy is None:
            return fetch()
        return self.retry_policy.call(
            fetch,
            retry_on=(BrokerUnavailableError,),
            clock=self.source.clock,
            rng=self._retry_rng,
        )

    def _append(self, partition: int, record: Record) -> None:
        append = lambda: self.destination.append(self.topic, partition, record)
        if self.retry_policy is None:
            append()
            return
        self.retry_policy.call(
            append,
            retry_on=(BrokerUnavailableError, NotEnoughReplicasError),
            clock=self.destination.clock,
            rng=self._retry_rng,
        )

    def run_step(self) -> int:
        """One replication round: every active worker copies up to its
        throughput from its partitions.  Returns records replicated.

        A partition whose source leader (or destination) stays down through
        the retry policy is skipped for the round without advancing its
        position — replication there resumes, loss-free, once the broker is
        back.
        """
        copied = 0
        for worker in self._active_workers():
            budget = self.worker_throughput
            for partition in sorted(worker.assigned):
                if budget <= 0:
                    break
                position = self._positions[partition]
                try:
                    entries = self._fetch(partition, position, budget)
                except (BrokerUnavailableError, RetryExhaustedError):
                    continue
                for entry in entries:
                    try:
                        self._append(partition, entry.record)
                    except (BrokerUnavailableError, RetryExhaustedError,
                            NotEnoughReplicasError):
                        break
                    self._positions[partition] = entry.offset + 1
                    self._since_checkpoint[partition] += 1
                    worker.replicated += 1
                    copied += 1
                    budget -= 1
                    if (
                        self.checkpoint_store is not None
                        and self._since_checkpoint[partition]
                        >= self.checkpoint_interval
                    ):
                        self._checkpoint(partition)
        return copied

    def _checkpoint(self, partition: int) -> None:
        assert self.checkpoint_store is not None
        dst_end = self.destination.end_offset(self.topic, partition)
        self.checkpoint_store.record(
            self.route,
            self.topic,
            partition,
            src=self._positions[partition],
            dst=dst_end,
            when=self.source.clock.now(),
        )
        self._since_checkpoint[partition] = 0

    def checkpoint_all(self) -> None:
        """Force an offset-mapping checkpoint on every partition."""
        if self.checkpoint_store is None:
            raise KafkaError("no checkpoint store configured")
        for partition in self._positions:
            self._checkpoint(partition)

    def run_to_completion(self, max_steps: int = 10_000) -> int:
        """Replicate until fully caught up; returns total records copied."""
        total = 0
        for __ in range(max_steps):
            copied = self.run_step()
            total += copied
            if copied == 0 and self.total_lag() == 0:
                return total
        raise KafkaError(f"replication did not converge in {max_steps} steps")
