"""Brokers, topics and the cluster control plane.

A :class:`KafkaCluster` owns a set of brokers, assigns partition replicas
to them, serves produce/fetch requests and runs follower replication.
The replication model is deliberately explicit so the paper's consistency
trade-offs are observable:

* ``acks=1`` appends to the leader only; followers catch up when
  :meth:`replicate` runs.  If the leader dies first, unreplicated records
  are lost — this is the "higher throughput but not lossless" configuration
  surge pricing uses (Section 5.1).
* ``acks=all`` appends synchronously to every live replica; leader failure
  loses nothing — the financial-data configuration (Section 9.2 "zero data
  loss").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.common.clock import Clock, SystemClock
from repro.common.errors import (
    BrokerUnavailableError,
    KafkaError,
    NotEnoughReplicasError,
    OutOfOrderSequenceError,
    ProducerFencedError,
    TopicExistsError,
    UnknownTopicError,
)
from repro.common.perf import PERF
from repro.common.records import Record
from repro.kafka.log import LogEntry, PartitionLog, _record_size
from repro.observability.trace import Hop, SpanCollector


@dataclass(frozen=True, slots=True)
class ProducerCtx:
    """Idempotent-produce metadata riding with one batch append.

    ``base_seq`` is the sequence number of the batch's first record within
    ``(producer_id, topic, partition)``; the cluster uses it to drop exact
    retries and to fence zombie producer instances (stale ``epoch``).
    """

    transactional_id: str
    producer_id: int
    epoch: int
    base_seq: int


@dataclass
class _ProducerSeqState:
    """Last accepted batch per (producer id, topic, partition)."""

    base_seq: int
    end_seq: int  # sequence of the batch's last record
    base_offset: int


@dataclass
class TopicConfig:
    """Per-topic knobs, mirroring the paper's per-use-case tuning."""

    partitions: int = 4
    replication_factor: int = 2
    retention_seconds: float | None = None
    retention_bytes: int | None = None
    # "lossless" topics force acks=all on every produce regardless of the
    # producer's own setting (financial data, Section 9.2).
    lossless: bool = False


class Broker:
    """One broker node hosting partition replicas."""

    def __init__(self, broker_id: int) -> None:
        self.broker_id = broker_id
        self.alive = True
        # (topic, partition) -> replica log
        self.replicas: dict[tuple[str, int], PartitionLog] = {}

    def hosted_bytes(self) -> int:
        return sum(log.size_bytes for log in self.replicas.values())


@dataclass
class PartitionState:
    """Control-plane view of one partition."""

    topic: str
    partition: int
    replica_brokers: list[int]  # preference order; [0] is preferred leader
    leader: int


class Topic:
    def __init__(self, name: str, config: TopicConfig) -> None:
        self.name = name
        self.config = config
        self.partitions: list[PartitionState] = []


class KafkaCluster:
    """A single physical Kafka cluster."""

    def __init__(
        self,
        name: str = "kafka",
        num_brokers: int = 3,
        clock: Clock | None = None,
        tracer: SpanCollector | None = None,
    ) -> None:
        if num_brokers < 1:
            raise KafkaError(f"cluster needs at least one broker, got {num_brokers}")
        self.name = name
        self.clock = clock or SystemClock()
        self.tracer = tracer
        # The replicate hop of each (topic, partition, follower), bound at
        # its first traced copy (see SpanCollector.hop).
        self._replicate_hops: dict[tuple[str, int, int], Hop] = {}
        self.brokers: dict[int, Broker] = {i: Broker(i) for i in range(num_brokers)}
        self.topics: dict[str, Topic] = {}
        self._assign_cursor = itertools.count()
        self._replication_paused = False
        # Transactional-producer control plane (Section 9.2 zero-loss +
        # the 2PC sink's fencing).  Kept at the cluster level — like the
        # real broker's producer-state snapshots, it survives individual
        # broker kills and is rebuilt with the log, so a zombie is fenced
        # even across a leader change.
        self._txn_registry: dict[str, tuple[int, int]] = {}  # id -> (pid, epoch)
        self._next_pid = itertools.count(1)
        self._producer_seqs: dict[tuple[int, str, int], _ProducerSeqState] = {}
        # Exact batch retries answered without appending, and writes
        # refused from a fenced (stale-epoch) producer.
        self.duplicate_batches_dropped = 0
        self.fenced_produces = 0

    # -- cluster membership ---------------------------------------------------

    @property
    def num_brokers(self) -> int:
        return len(self.brokers)

    def add_broker(self) -> int:
        broker_id = max(self.brokers) + 1 if self.brokers else 0
        self.brokers[broker_id] = Broker(broker_id)
        return broker_id

    def kill_broker(self, broker_id: int) -> None:
        """Fail a broker; partitions it led elect a new live leader."""
        broker = self._broker(broker_id)
        broker.alive = False
        for topic in self.topics.values():
            for pstate in topic.partitions:
                if pstate.leader == broker_id:
                    self._elect_leader(pstate)

    def restart_broker(self, broker_id: int) -> None:
        """Bring a broker back; its replica logs truncate to their common
        prefix with the current leader (a restarted replica discards
        diverged entries, however long its log) and resync.

        When no live leader exists, leadership is re-elected against the
        replica preference order restricted to live brokers — the restarted
        broker does not unconditionally "take over as-is", so a stale
        ``pstate.leader`` pointing at a still-dead broker is repaired and a
        later-restarted preferred replica joins as a follower and resyncs
        instead of silently keeping a diverged log.
        """
        broker = self._broker(broker_id)
        broker.alive = True
        for topic in self.topics.values():
            for pstate in topic.partitions:
                if broker_id not in pstate.replica_brokers:
                    continue
                leader_log = self._leader_log(pstate)
                if leader_log is None:
                    self._elect_leader(pstate)
                    leader_log = self._leader_log(pstate)
                    if leader_log is None:
                        continue  # unreachable: this broker is live
                follower_log = broker.replicas[(pstate.topic, pstate.partition)]
                if follower_log is not leader_log:
                    # Length alone cannot detect divergence: a previous
                    # leader may hold *more* entries, none of them shared
                    # past the divergence point.
                    follower_log.truncate_to(
                        follower_log.common_prefix_end(leader_log)
                    )
        self.replicate()

    def _broker(self, broker_id: int) -> Broker:
        if broker_id not in self.brokers:
            raise KafkaError(f"unknown broker {broker_id}")
        return self.brokers[broker_id]

    def _elect_leader(self, pstate: PartitionState) -> None:
        for candidate in pstate.replica_brokers:
            if self.brokers[candidate].alive:
                pstate.leader = candidate
                return
        # No live replica: leader stays as-is; produce/fetch will fail until
        # a replica broker restarts.

    # -- topics ----------------------------------------------------------------

    def create_topic(self, name: str, config: TopicConfig | None = None) -> Topic:
        if name in self.topics:
            raise TopicExistsError(f"topic {name!r} already exists on {self.name}")
        config = config or TopicConfig()
        if config.replication_factor > len(self.brokers):
            raise KafkaError(
                f"replication factor {config.replication_factor} exceeds "
                f"broker count {len(self.brokers)}"
            )
        topic = Topic(name, config)
        broker_ids = sorted(self.brokers)
        for partition in range(config.partitions):
            start = next(self._assign_cursor)
            replicas = [
                broker_ids[(start + r) % len(broker_ids)]
                for r in range(config.replication_factor)
            ]
            pstate = PartitionState(name, partition, replicas, leader=replicas[0])
            for broker_id in replicas:
                self.brokers[broker_id].replicas[(name, partition)] = PartitionLog()
            self._elect_leader(pstate)
            topic.partitions.append(pstate)
        self.topics[name] = topic
        return topic

    def expand_partitions(self, name: str, additional: int) -> int:
        """Add ``additional`` partitions to a topic (§9.4: topics are
        "automatically expanded" as usage grows).

        Kafka cannot shrink or reshuffle existing partitions: new data
        spreads wider via the producer's hash partitioner, old data stays
        put, and existing consumers of the original partitions are
        unaffected.  New partitions replicate at the topic's configured
        factor over live brokers (preference order continues the creation
        round-robin).  Returns the new partition count.
        """
        if additional <= 0:
            raise KafkaError(f"additional partitions must be positive, got {additional}")
        topic = self._topic(name)
        broker_ids = sorted(self.brokers)
        current = len(topic.partitions)
        for partition in range(current, current + additional):
            start = next(self._assign_cursor)
            replicas = [
                broker_ids[(start + r) % len(broker_ids)]
                for r in range(topic.config.replication_factor)
            ]
            pstate = PartitionState(name, partition, replicas, leader=replicas[0])
            for broker_id in replicas:
                self.brokers[broker_id].replicas[(name, partition)] = PartitionLog()
            self._elect_leader(pstate)
            topic.partitions.append(pstate)
        topic.config.partitions = current + additional
        return current + additional

    def delete_topic(self, name: str) -> None:
        topic = self._topic(name)
        for pstate in topic.partitions:
            for broker_id in pstate.replica_brokers:
                self.brokers[broker_id].replicas.pop((name, pstate.partition), None)
        del self.topics[name]

    def has_topic(self, name: str) -> bool:
        return name in self.topics

    def _topic(self, name: str) -> Topic:
        if name not in self.topics:
            raise UnknownTopicError(f"topic {name!r} does not exist on {self.name}")
        return self.topics[name]

    def partition_count(self, topic: str) -> int:
        return len(self._topic(topic).partitions)

    def _pstate(self, topic: str, partition: int) -> PartitionState:
        t = self._topic(topic)
        if not 0 <= partition < len(t.partitions):
            raise KafkaError(f"{topic!r} has no partition {partition}")
        return t.partitions[partition]

    def _leader_log(self, pstate: PartitionState) -> PartitionLog | None:
        leader = self.brokers[pstate.leader]
        if not leader.alive:
            return None
        return leader.replicas[(pstate.topic, pstate.partition)]

    # -- transactional producers -----------------------------------------------

    def init_producer(self, transactional_id: str) -> tuple[int, int]:
        """Register (or re-register) a transactional producer.

        First call for an id assigns a fresh producer id at epoch 0; every
        later call keeps the pid and bumps the epoch, **fencing** any
        still-live instance holding the previous epoch (the pre-failure
        zombie of a restarted 2PC sink).  Sequence state restarts with the
        new epoch.
        """
        if transactional_id in self._txn_registry:
            pid, epoch = self._txn_registry[transactional_id]
            epoch += 1
        else:
            pid, epoch = next(self._next_pid), 0
        self._txn_registry[transactional_id] = (pid, epoch)
        for key in [k for k in self._producer_seqs if k[0] == pid]:
            del self._producer_seqs[key]
        return pid, epoch

    def _check_producer(
        self, ctx: "ProducerCtx", topic: str, partition: int, batch_len: int
    ) -> int | None:
        """Fence stale epochs; dedup exact batch retries.

        Returns the original base offset when the batch is a duplicate of
        the last accepted one (idempotent retry — nothing is appended), or
        ``None`` when the batch is new and should land.
        """
        registered = self._txn_registry.get(ctx.transactional_id)
        if registered is None:
            raise ProducerFencedError(
                f"producer {ctx.transactional_id!r} never initialized on "
                f"{self.name}; call init_transactions() first"
            )
        pid, epoch = registered
        if ctx.producer_id != pid or ctx.epoch < epoch:
            self.fenced_produces += 1
            raise ProducerFencedError(
                f"producer {ctx.transactional_id!r} epoch {ctx.epoch} is "
                f"fenced by epoch {epoch}"
            )
        if ctx.epoch > epoch:
            raise KafkaError(
                f"producer {ctx.transactional_id!r} claims unknown epoch "
                f"{ctx.epoch} (registry has {epoch})"
            )
        state = self._producer_seqs.get((pid, topic, partition))
        expected = 0 if state is None else state.end_seq + 1
        if ctx.base_seq == expected:
            return None
        if (
            state is not None
            and ctx.base_seq == state.base_seq
            and ctx.base_seq + batch_len - 1 == state.end_seq
        ):
            # Exact retry of the last accepted batch: drop it, answer with
            # the original base offset.
            self.duplicate_batches_dropped += 1
            return state.base_offset
        raise OutOfOrderSequenceError(
            f"{topic}[{partition}]: pid {pid} sent base seq {ctx.base_seq}, "
            f"expected {expected}"
        )

    def _record_producer_batch(
        self, ctx: "ProducerCtx", topic: str, partition: int,
        batch_len: int, base_offset: int,
    ) -> None:
        self._producer_seqs[(ctx.producer_id, topic, partition)] = (
            _ProducerSeqState(
                ctx.base_seq, ctx.base_seq + batch_len - 1, base_offset
            )
        )

    def producer_epoch(self, transactional_id: str) -> int | None:
        """Current registered epoch for an id (introspection/tests)."""
        registered = self._txn_registry.get(transactional_id)
        return None if registered is None else registered[1]

    # -- data plane --------------------------------------------------------------

    def append(
        self,
        topic: str,
        partition: int,
        record: Record,
        acks: str = "1",
    ) -> int:
        """Append one record to a partition leader; returns the offset."""
        return self.append_batch(topic, partition, (record,), acks)

    def append_batch(
        self,
        topic: str,
        partition: int,
        records: "list[Record] | tuple[Record, ...]",
        acks: str = "1",
        sizes: list[int] | None = None,
        producer_ctx: "ProducerCtx | None" = None,
    ) -> int:
        """Append a whole producer batch in one request; returns the base
        offset (record ``i`` lands at ``base + i``).

        Partition state, leadership and the acks=all replica check are
        resolved once per batch instead of once per record, and each
        record's size is encoded once and shared by every replica.  Under
        ``acks=all`` the replica check happens *before* any record lands,
        so a failed call appends nothing and the whole batch is safe to
        retry.

        With ``producer_ctx`` (idempotent/transactional producers) the
        batch is additionally epoch-fenced — a zombie instance raises
        :class:`ProducerFencedError` before anything lands — and
        sequence-checked: an exact retry of the last accepted batch is
        dropped and answered with its original base offset.
        """
        if PERF.enabled:
            PERF.inc("kafka.partition_resolutions")
        pstate = self._pstate(topic, partition)
        if producer_ctx is not None and records:
            duplicate_base = self._check_producer(
                producer_ctx, topic, partition, len(records)
            )
            if duplicate_base is not None:
                return duplicate_base
        if self._topic(topic).config.lossless:
            acks = "all"
        leader_log = self._leader_log(pstate)
        if leader_log is None:
            self._elect_leader(pstate)
            leader_log = self._leader_log(pstate)
        if leader_log is None:
            raise BrokerUnavailableError(
                f"no live replica for {topic}[{partition}] on {self.name}"
            )
        followers = []
        if acks == "all":
            for broker_id in pstate.replica_brokers:
                if broker_id == pstate.leader:
                    continue
                broker = self.brokers[broker_id]
                if not broker.alive:
                    raise NotEnoughReplicasError(
                        f"acks=all: replica broker {broker_id} of "
                        f"{topic}[{partition}] is down"
                    )
                followers.append(broker.replicas[(topic, partition)])
        if not records:
            return leader_log.end_offset
        now = self.clock.now()
        if sizes is None:
            sizes = [_record_size(record) for record in records]
        base = leader_log.append_batch(records, now, sizes)
        if producer_ctx is not None:
            self._record_producer_batch(
                producer_ctx, topic, partition, len(records), base
            )
        if followers:
            entries = leader_log.read(base, len(records))
            for log in followers:
                if log.end_offset == base:
                    # In-sync replica: share the leader's entries (an
                    # entry is never assigned to after it is built).
                    log.extend_shared(entries, sizes)
                else:
                    log.append_batch(records, now, sizes)
        return base

    def fetch(
        self,
        topic: str,
        partition: int,
        offset: int,
        max_records: int = 500,
    ) -> list[LogEntry]:
        if PERF.enabled:
            PERF.inc("kafka.partition_resolutions")
            PERF.inc("kafka.fetch_calls")
        pstate = self._pstate(topic, partition)
        leader_log = self._leader_log(pstate)
        if leader_log is None:
            raise BrokerUnavailableError(
                f"no live leader for {topic}[{partition}] on {self.name}"
            )
        entries = leader_log.read(offset, max_records)
        if PERF.enabled and entries:
            PERF.inc("kafka.records_fetched", len(entries))
        return entries

    def end_offset(self, topic: str, partition: int) -> int:
        pstate = self._pstate(topic, partition)
        log = self._leader_log(pstate)
        if log is None:
            raise BrokerUnavailableError(f"no live leader for {topic}[{partition}]")
        return log.end_offset

    def start_offset(self, topic: str, partition: int) -> int:
        pstate = self._pstate(topic, partition)
        log = self._leader_log(pstate)
        if log is None:
            raise BrokerUnavailableError(f"no live leader for {topic}[{partition}]")
        return log.start_offset

    def total_lag(self, topic: str, offsets: dict[int, int]) -> int:
        """Sum over partitions of (end offset - consumer position)."""
        return sum(
            self.end_offset(topic, p) - offsets.get(p, 0)
            for p in range(self.partition_count(topic))
        )

    # -- background work --------------------------------------------------------

    def pause_replication(self) -> None:
        """Chaos hook: follower replication stops until resumed, widening
        the acks=1 loss window without killing any broker."""
        self._replication_paused = True

    def resume_replication(self) -> None:
        self._replication_paused = False

    def replicate(self) -> int:
        """Catch followers up to their leaders (async replication step).

        Returns the number of entries copied.  Call this between produce
        and failure injection to control the replication lag window.
        """
        if self._replication_paused:
            return 0
        copied = 0
        for topic in self.topics.values():
            for pstate in topic.partitions:
                leader_log = self._leader_log(pstate)
                if leader_log is None:
                    continue
                for broker_id in pstate.replica_brokers:
                    if broker_id == pstate.leader:
                        continue
                    broker = self.brokers[broker_id]
                    if not broker.alive:
                        continue
                    follower = broker.replicas[(pstate.topic, pstate.partition)]
                    if follower.end_offset > leader_log.end_offset:
                        follower.truncate_to(leader_log.end_offset)
                    if follower.end_offset < leader_log.start_offset:
                        # Leader trimmed its head past this follower (tiered
                        # storage): re-stamp the retained leader entries
                        # under the follower's own offset numbering.
                        retained = list(leader_log.iter_from(follower.end_offset))
                        for entry in retained:
                            follower.append(entry.record, entry.append_time)
                        copied += len(retained)
                        self._trace_replication(pstate, broker_id, retained)
                        continue
                    while follower.end_offset < leader_log.end_offset:
                        entries, sizes = leader_log.read_with_sizes(
                            follower.end_offset, 500
                        )
                        if not entries:
                            break
                        follower.extend_shared(entries, sizes)
                        copied += len(entries)
                        self._trace_replication(pstate, broker_id, entries)
        return copied

    def _trace_replication(
        self,
        pstate: PartitionState,
        follower_id: int,
        entries: list[LogEntry],
    ) -> None:
        if self.tracer is None:
            return
        key = (pstate.topic, pstate.partition, follower_id)
        hop = self._replicate_hops.get(key)
        if hop is None:
            hop = self._replicate_hops[key] = self.tracer.hop(
                "entries", "replicate", "kafka",
                follower=follower_id, topic=pstate.topic, partition=pstate.partition,
            )
        hop.record(entries, self.clock.now())

    def apply_retention(self) -> int:
        """Expire old data on every replica per each topic's config."""
        now = self.clock.now()
        expired = 0
        for topic in self.topics.values():
            cfg = topic.config
            if cfg.retention_seconds is None and cfg.retention_bytes is None:
                continue
            for pstate in topic.partitions:
                for broker_id in pstate.replica_brokers:
                    log = self.brokers[broker_id].replicas[(topic.name, pstate.partition)]
                    expired += log.apply_retention(
                        now, cfg.retention_seconds, cfg.retention_bytes
                    )
        return expired

    def total_bytes(self) -> int:
        return sum(b.hosted_bytes() for b in self.brokers.values())
