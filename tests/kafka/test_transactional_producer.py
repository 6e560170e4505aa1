"""Idempotent / epoch-fenced transactional producers.

The broker half of exactly-once sink delivery (Section 9.2): sequence
numbers dedup exact batch retries, and the epoch registry fences the
pre-failover zombie of a restarted 2PC sink before it can write a single
stale record.
"""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import (
    KafkaError,
    OutOfOrderSequenceError,
    ProducerFencedError,
)
from repro.common.records import Record
from repro.kafka.cluster import KafkaCluster, ProducerCtx, TopicConfig
from repro.kafka.producer import Producer


def _cluster(partitions=2, brokers=3):
    clock = SimulatedClock()
    cluster = KafkaCluster("k", brokers, clock=clock)
    cluster.create_topic(
        "t", TopicConfig(partitions=partitions, replication_factor=2)
    )
    return clock, cluster


def _batch(cluster, count, start=0):
    now = cluster.clock.now()
    return [Record("k", {"i": start + i}, now, {}) for i in range(count)]


class TestIdempotentDedup:
    def test_exact_batch_retry_dedups_to_original_base_offset(self):
        __, cluster = _cluster()
        pid, epoch = cluster.init_producer("sink-1")
        ctx = ProducerCtx("sink-1", pid, epoch, base_seq=0)
        records = _batch(cluster, 5)
        base = cluster.append_batch("t", 0, records, producer_ctx=ctx)
        retried = cluster.append_batch("t", 0, records, producer_ctx=ctx)
        assert retried == base
        assert cluster.end_offset("t", 0) == 5  # nothing appended twice
        assert cluster.duplicate_batches_dropped == 1

    def test_next_batch_continues_after_a_deduped_retry(self):
        __, cluster = _cluster()
        pid, epoch = cluster.init_producer("sink-1")
        first = ProducerCtx("sink-1", pid, epoch, base_seq=0)
        cluster.append_batch("t", 0, _batch(cluster, 3), producer_ctx=first)
        cluster.append_batch("t", 0, _batch(cluster, 3), producer_ctx=first)
        second = ProducerCtx("sink-1", pid, epoch, base_seq=3)
        base = cluster.append_batch(
            "t", 0, _batch(cluster, 2, start=3), producer_ctx=second
        )
        assert base == 3
        assert cluster.end_offset("t", 0) == 5

    def test_sequence_gap_raises_out_of_order(self):
        __, cluster = _cluster()
        pid, epoch = cluster.init_producer("sink-1")
        cluster.append_batch(
            "t", 0, _batch(cluster, 3),
            producer_ctx=ProducerCtx("sink-1", pid, epoch, base_seq=0),
        )
        with pytest.raises(OutOfOrderSequenceError):
            cluster.append_batch(
                "t", 0, _batch(cluster, 2),
                producer_ctx=ProducerCtx("sink-1", pid, epoch, base_seq=7),
            )
        assert cluster.end_offset("t", 0) == 3  # the bad batch never landed

    def test_sequences_are_per_partition(self):
        __, cluster = _cluster()
        pid, epoch = cluster.init_producer("sink-1")
        cluster.append_batch(
            "t", 0, _batch(cluster, 3),
            producer_ctx=ProducerCtx("sink-1", pid, epoch, base_seq=0),
        )
        # Partition 1 starts its own sequence at 0.
        base = cluster.append_batch(
            "t", 1, _batch(cluster, 2),
            producer_ctx=ProducerCtx("sink-1", pid, epoch, base_seq=0),
        )
        assert base == 0

    def test_producer_retry_through_outage_lands_batch_once(self):
        """The end-to-end idempotence story: a retried produce that rides
        out a leader failover appends every record exactly once."""
        clock, cluster = _cluster()
        producer = Producer(
            cluster, "svc", acks="all", transactional_id="sink-1"
        )
        producer.produce("t", {"i": 0}, key="a")
        before = cluster.duplicate_batches_dropped
        # Simulate the client-side retry of an already-accepted batch (the
        # ack was lost, not the append): replay the same sequence window.
        ctx = ProducerCtx(
            "sink-1", producer._pid, producer.epoch, base_seq=0
        )
        partition = next(
            p for p in range(2) if cluster.end_offset("t", p) == 1
        )
        cluster.append_batch(
            "t", partition, _batch(cluster, 1), producer_ctx=ctx
        )
        assert cluster.end_offset("t", partition) == 1
        assert (
            cluster.duplicate_batches_dropped
            == before + 1
        )


class TestEpochFencing:
    def test_reinit_bumps_epoch_and_fences_the_zombie(self):
        __, cluster = _cluster()
        zombie = Producer(cluster, "svc", transactional_id="sink-1")
        assert zombie.epoch == 0
        recovered = Producer(cluster, "svc", transactional_id="sink-1")
        assert recovered.epoch == 1
        assert cluster.producer_epoch("sink-1") == 1
        recovered.produce("t", {"i": 1}, key="a")
        with pytest.raises(ProducerFencedError):
            zombie.produce("t", {"i": 0}, key="a")
        assert cluster.fenced_produces == 1

    def test_fenced_zombie_appends_nothing(self):
        __, cluster = _cluster(partitions=1)
        zombie = Producer(cluster, "svc", transactional_id="sink-1")
        Producer(cluster, "svc", transactional_id="sink-1")  # fences it
        with pytest.raises(ProducerFencedError):
            zombie.produce("t", {"i": 0}, key="a")
        assert cluster.end_offset("t", 0) == 0

    def test_zombie_can_reinit_and_refence_the_other_way(self):
        __, cluster = _cluster()
        first = Producer(cluster, "svc", transactional_id="sink-1")
        second = Producer(cluster, "svc", transactional_id="sink-1")
        first.init_transactions()  # epoch 2: now SECOND is the zombie
        first.produce("t", {"i": 0}, key="a")
        with pytest.raises(ProducerFencedError):
            second.produce("t", {"i": 1}, key="a")

    def test_unregistered_transactional_id_is_rejected(self):
        __, cluster = _cluster()
        with pytest.raises(ProducerFencedError):
            cluster.append_batch(
                "t", 0, _batch(cluster, 1),
                producer_ctx=ProducerCtx("ghost", 1, 0, base_seq=0),
            )

    def test_unknown_future_epoch_is_rejected(self):
        __, cluster = _cluster()
        pid, epoch = cluster.init_producer("sink-1")
        with pytest.raises(KafkaError):
            cluster.append_batch(
                "t", 0, _batch(cluster, 1),
                producer_ctx=ProducerCtx("sink-1", pid, epoch + 1, base_seq=0),
            )

    def test_init_transactions_requires_an_id(self):
        __, cluster = _cluster()
        with pytest.raises(KafkaError):
            Producer(cluster, "svc").init_transactions()


class TestFencingSurvivesBrokerFaults:
    def test_registry_outlives_a_broker_kill(self):
        """(pid, epoch) state lives at the cluster level — a leader
        failover must not reset it, or a zombie could slip in during
        recovery (exactly the window 2PC cares about)."""
        __, cluster = _cluster(partitions=1)
        zombie = Producer(
            cluster, "svc", acks="all", transactional_id="sink-1"
        )
        zombie.produce("t", {"i": 0}, key="a")
        recovered = Producer(
            cluster, "svc", acks="all", transactional_id="sink-1"
        )
        leader = cluster.topics["t"].partitions[0].leader
        cluster.kill_broker(leader)
        cluster.restart_broker(leader)
        recovered.produce("t", {"i": 1}, key="a")
        with pytest.raises(ProducerFencedError):
            zombie.produce("t", {"i": 2}, key="a")
        assert cluster.producer_epoch("sink-1") == 1
