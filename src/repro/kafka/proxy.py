"""The Kafka consumer proxy (Section 4.1.3, Figure 4).

The proxy consumes from Kafka on behalf of an application and *pushes*
messages to a user-registered gRPC endpoint.  The complexities of the
consumer library live in the proxy; applications hold only a thin,
machine-generated client (here: the :class:`GrpcEndpoint` protocol).

Two properties from the paper are reproduced measurably:

* **Parallelism beyond the partition count.**  Kafka's group model caps
  live members at the number of partitions.  Most Uber pub/sub use cases
  assume no cross-message dependency, so the proxy dispatches each message
  to any free worker — a topic with 8 partitions can be processed by 64
  concurrent workers, which matters enormously for slow consumers.
* **Sophisticated error handling.**  Failed deliveries are retried and
  then routed to the DLQ (Section 4.1.2), so poison messages never block
  the live stream.

Time model: workers are simulated executors.  Each delivery occupies one
worker for the endpoint's reported service time; :meth:`drain` runs the
discrete-event loop until the group lag reaches zero and advances the
simulated clock to the makespan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Protocol

from repro.common.clock import SimulatedClock
from repro.common.errors import KafkaError, RetryExhaustedError
from repro.common.retry import RetryPolicy, immediate
from repro.common.rng import seeded_rng
from repro.kafka.cluster import KafkaCluster
from repro.kafka.consumer import ConsumedMessage, Consumer, GroupCoordinator
from repro.kafka.dlq import create_dlq_topic, make_dead_letter


class EndpointError(KafkaError):
    """The downstream service failed to process a delivery."""


class GrpcEndpoint(Protocol):
    """The thin, machine-generated service interface applications expose."""

    def invoke(self, message: ConsumedMessage) -> float:
        """Process one message; returns the service time in seconds.

        Raises :class:`EndpointError` if processing failed.
        """
        ...


@dataclass
class UniformEndpoint:
    """A test/bench endpoint with constant service time and an optional
    failure predicate."""

    service_time: float = 0.01
    fail_when: object = None  # callable(message) -> bool
    invocations: int = 0

    def invoke(self, message: ConsumedMessage) -> float:
        self.invocations += 1
        if self.fail_when is not None and self.fail_when(message):
            raise EndpointError(f"endpoint rejected offset {message.offset}")
        return self.service_time


@dataclass
class DrainReport:
    """Outcome of one :meth:`ConsumerProxy.drain` run."""

    delivered: int = 0
    retries: int = 0
    dead_lettered: int = 0
    makespan: float = 0.0
    peak_parallelism: int = 0
    per_worker_busy: list[float] = field(default_factory=list)


class ConsumerProxy:
    """Push-based dispatch from a topic to a worker pool."""

    def __init__(
        self,
        cluster: KafkaCluster,
        coordinator: GroupCoordinator,
        group: str,
        topic: str,
        endpoint: GrpcEndpoint,
        num_workers: int = 8,
        max_retries: int = 3,
        clock: SimulatedClock | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if num_workers < 1:
            raise KafkaError(f"num_workers must be >= 1, got {num_workers}")
        if max_retries < 1:
            raise KafkaError(f"max_retries must be >= 1, got {max_retries}")
        self.cluster = cluster
        self.topic = topic
        self.group = group
        self.endpoint = endpoint
        self.num_workers = num_workers
        # Same semantics as the DLQ consumer: total attempts per delivery.
        self.retry_policy = retry_policy or immediate(max_retries)
        self.max_retries = self.retry_policy.max_attempts
        self.clock = clock if clock is not None else cluster.clock
        if not isinstance(self.clock, SimulatedClock):
            raise KafkaError("ConsumerProxy requires a SimulatedClock")
        # The proxy itself is one "member" consuming every partition.
        self._consumer = Consumer(cluster, coordinator, group, topic, "proxy")
        self._dlq_topic = create_dlq_topic(cluster, topic, group)
        self._retry_rng = seeded_rng(0, f"proxy.{group}")

    @property
    def dlq_topic(self) -> str:
        return self._dlq_topic

    def drain(self, max_messages: int | None = None) -> DrainReport:
        """Dispatch the current backlog to the worker pool until caught up.

        Advances the simulated clock to the completion time of the last
        delivery.  Per-key ordering is not enforced (the paper notes most
        pub/sub use cases have no cross-message dependencies).
        """
        report = DrainReport(per_worker_busy=[0.0] * self.num_workers)
        start_time = self.clock.now()
        # worker heap: (free_at, worker_index)
        workers = [(start_time, i) for i in range(self.num_workers)]
        heapq.heapify(workers)
        busy = [0.0] * self.num_workers
        last_completion = start_time
        dispatched = 0
        while True:
            batch = self._consumer.poll(max_records=1000)
            if not batch:
                break
            for message in batch:
                free_at, worker = heapq.heappop(workers)
                begin = max(free_at, start_time)
                duration, retries, dead = self._deliver(message)
                report.retries += retries
                if dead:
                    report.dead_lettered += 1
                else:
                    report.delivered += 1
                end = begin + duration
                busy[worker] += duration
                last_completion = max(last_completion, end)
                heapq.heappush(workers, (end, worker))
                dispatched += 1
                if max_messages is not None and dispatched >= max_messages:
                    break
            self._consumer.commit()
            if max_messages is not None and dispatched >= max_messages:
                break
        report.makespan = last_completion - start_time
        report.per_worker_busy = busy
        report.peak_parallelism = min(self.num_workers, dispatched)
        self.clock.run_until(max(last_completion, self.clock.now()))
        return report

    def _deliver(self, message: ConsumedMessage) -> tuple[float, int, bool]:
        """Attempt delivery under the retry policy.

        Returns (total worker time consumed, failed-attempt count,
        dead-lettered?).  Failed attempts still cost service time — the
        endpoint did work before failing.  Backoff, if the policy has any,
        is worker idle time and is not charged to the worker budget.
        """
        total = 0.0
        failures = 0

        def attempt() -> None:
            nonlocal total, failures
            try:
                total += self.endpoint.invoke(message)
            except EndpointError:
                failures += 1
                # Assume a failed call costs a full service time slot.
                total += getattr(self.endpoint, "service_time", 0.01)
                raise

        try:
            self.retry_policy.call(
                attempt, retry_on=(EndpointError,), rng=self._retry_rng
            )
        except RetryExhaustedError:
            # Same routing as DlqConsumer: source partition + provenance.
            self.cluster.append(
                self._dlq_topic,
                message.partition,
                make_dead_letter(message, self.max_retries),
            )
            return total, failures, True
        return total, failures, False


def polling_group_makespan(
    cluster: KafkaCluster,
    topic: str,
    num_consumers: int,
    service_time: float,
) -> float:
    """Baseline: time for a classic polling consumer group to drain the
    current backlog.

    Members are range-assigned partitions; each member processes its
    partitions sequentially, one message at a time.  Effective parallelism
    is therefore ``min(num_consumers, partitions)`` — the cap the proxy
    removes.  Returns the makespan in seconds.
    """
    partitions = cluster.partition_count(topic)
    members = min(num_consumers, partitions)
    if members < 1:
        raise KafkaError("need at least one consumer")
    per_member_messages = [0] * members
    per_partition = [
        cluster.end_offset(topic, p) - cluster.start_offset(topic, p)
        for p in range(partitions)
    ]
    # Range assignment: same arithmetic as GroupCoordinator.assignment.
    per = partitions // members
    extra = partitions % members
    start = 0
    for member in range(members):
        count = per + (1 if member < extra else 0)
        per_member_messages[member] = sum(per_partition[start : start + count])
        start += count
    return max(per_member_messages) * service_time
