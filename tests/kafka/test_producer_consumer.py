import pytest

from repro.common.errors import KafkaError
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.consumer import Consumer, GroupCoordinator
from repro.kafka.producer import Producer, hash_partitioner

from tests.conftest import produce_events


class TestPartitioner:
    def test_deterministic(self):
        assert hash_partitioner("abc", 8) == hash_partitioner("abc", 8)

    def test_within_range(self):
        assert all(0 <= hash_partitioner(f"k{i}", 5) < 5 for i in range(100))

    def test_spreads_keys(self):
        partitions = {hash_partitioner(f"key-{i}", 8) for i in range(200)}
        assert len(partitions) == 8

    def test_handles_non_string_keys(self):
        assert 0 <= hash_partitioner(("tuple", 1), 4) < 4
        assert 0 <= hash_partitioner(12345, 4) < 4

    def test_equal_keys_across_types_agree(self):
        # The Pinot executor matches rows with Python == and the broker
        # prunes partitions with this hash: keys that compare equal must
        # land on the same partition regardless of their type.
        from decimal import Decimal

        assert (
            hash_partitioner(5, 8)
            == hash_partitioner(5.0, 8)
            == hash_partitioner(Decimal(5), 8)
        )
        assert (
            hash_partitioner(True, 8)
            == hash_partitioner(1, 8)
            == hash_partitioner(1.0, 8)
        )
        assert hash_partitioner(("a", 1), 8) == hash_partitioner(("a", 1.0), 8)
        # Beyond float range the exact-int fallback must stay consistent.
        assert hash_partitioner(10**400, 8) == hash_partitioner(
            Decimal(10) ** 400, 8
        )

    def test_partition_cache_consistent_across_equal_key_types(self, kafka, clock):
        # 5 and 5.0 collide in the producer's memo dict (equal hash and
        # ==); that must be harmless, i.e. both land where a fresh
        # hash_partitioner call would place either.
        producer = Producer(kafka, "svc", clock=clock)
        p_int = producer.send("events", {"v": 1}, key=5)
        p_float = producer.send("events", {"v": 2}, key=5.0)
        assert p_int == p_float
        assert p_int == hash_partitioner(5, 4) == hash_partitioner(5.0, 4)


class TestProducer:
    def test_keyed_records_land_on_key_partition(self, kafka, producer):
        producer.produce("events", {"v": 1}, key="stable-key")
        producer.produce("events", {"v": 2}, key="stable-key")
        partition = hash_partitioner("stable-key", 4)
        entries = kafka.fetch("events", partition, 0)
        assert [e.record.value["v"] for e in entries] == [1, 2]

    def test_unkeyed_sticky_rotates_partitions(self, kafka, clock):
        producer = Producer(kafka, "svc", batch_size=100, clock=clock)
        for i in range(10):
            producer.send("events", {"i": i})
            producer.flush()
        filled = [
            p for p in range(4) if kafka.end_offset("events", p) > 0
        ]
        assert len(filled) > 1

    def test_batching_flushes_at_size(self, kafka, clock):
        producer = Producer(kafka, "svc", batch_size=64, clock=clock)
        for i in range(50):
            producer.send("events", {"i": i, "pad": "x" * 20}, key="k")
        # Most records should already be in the log without explicit flush.
        partition = hash_partitioner("k", 4)
        assert kafka.end_offset("events", partition) > 0

    def test_a_record_carries_only_its_callers_headers(self, kafka, producer):
        plain = producer.produce("events", {"v": 1}, key="k")
        producer.produce("events", {"v": 2}, key="k", headers={"h": "x"})
        fetched = kafka.fetch("events", plain.partition, plain.offset, 2)
        assert [entry.record.headers for entry in fetched] == [{}, {"h": "x"}]

    def test_invalid_acks(self, kafka):
        with pytest.raises(KafkaError):
            Producer(kafka, "svc", acks="2")

    def test_flush_returns_the_count_it_appended(self, kafka, producer):
        partition = producer.send("events", {"v": 1}, key="k")
        producer.send("events", {"v": 2}, key="k")
        assert producer.flush() == 2
        assert producer.flush() == 0
        # The offsets are read off the log, not off the flush.
        fetched = kafka.fetch("events", partition, 0, 10)
        assert [(e.offset, e.record.value) for e in fetched] == [
            (0, {"v": 1}),
            (1, {"v": 2}),
        ]

    def test_produce_when_send_autoflushes_full_batch(self, kafka, clock):
        """Regression: a keyless produce() whose record fills the batch is
        flushed inside send() — which rotates the sticky partition — and
        produce() must still return that record's metadata rather than
        flushing the (empty) next partition."""
        producer = Producer(kafka, "svc", batch_size=1, clock=clock)
        metas = [producer.produce("events", {"i": i}) for i in range(8)]
        offsets = {}
        for i, meta in enumerate(metas):
            assert meta.offset == offsets.get(meta.partition, 0)
            offsets[meta.partition] = meta.offset + 1
            entry = kafka.fetch("events", meta.partition, meta.offset)[0]
            assert entry.record.value == {"i": i}


class TestConsumerGroups:
    def test_single_consumer_gets_all_partitions(self, kafka, coordinator):
        consumer = Consumer(kafka, coordinator, "g", "events", "m0")
        assert consumer.assignment() == [0, 1, 2, 3]

    def test_range_assignment_splits_evenly(self, kafka, coordinator):
        consumers = [
            Consumer(kafka, coordinator, "g", "events", f"m{i}") for i in range(2)
        ]
        assignments = [c.assignment() for c in consumers]
        assert sorted(p for a in assignments for p in a) == [0, 1, 2, 3]
        assert all(len(a) == 2 for a in assignments)

    def test_excess_members_idle(self, kafka, coordinator):
        consumers = [
            Consumer(kafka, coordinator, "g", "events", f"m{i}") for i in range(6)
        ]
        idle = [c for c in consumers if not c.assignment()]
        # The cap the consumer proxy removes: members > partitions sit idle.
        assert len(idle) == 2

    def test_poll_consumes_everything(self, kafka, producer, clock, coordinator):
        produce_events(producer, clock, "events", 100)
        consumer = Consumer(kafka, coordinator, "g", "events", "m0")
        seen = []
        while True:
            batch = consumer.poll(1000)
            if not batch:
                break
            seen.extend(batch)
        assert len(seen) == 100

    def test_commit_and_resume(self, kafka, producer, clock, coordinator):
        produce_events(producer, clock, "events", 40)
        consumer = Consumer(kafka, coordinator, "g", "events", "m0")
        first = consumer.poll(1000)
        consumer.commit()
        consumer.close()
        resumed = Consumer(kafka, coordinator, "g", "events", "m0")
        rest = resumed.poll(1000)
        assert len(first) + len(rest) == 40
        offsets_first = {(m.partition, m.offset) for m in first}
        offsets_rest = {(m.partition, m.offset) for m in rest}
        assert not offsets_first & offsets_rest

    def test_latest_reset_skips_backlog(self, kafka, producer, clock, coordinator):
        produce_events(producer, clock, "events", 50)
        consumer = Consumer(
            kafka, coordinator, "g", "events", "m0", auto_offset_reset="latest"
        )
        assert consumer.poll(1000) == []
        produce_events(producer, clock, "events", 5)
        assert len(consumer.poll(1000)) == 5

    def test_invalid_reset_policy(self, kafka, coordinator):
        with pytest.raises(KafkaError):
            Consumer(kafka, coordinator, "g", "events", "m0",
                     auto_offset_reset="middle")

    def test_rebalance_on_member_join(self, kafka, producer, clock, coordinator):
        produce_events(producer, clock, "events", 40)
        first = Consumer(kafka, coordinator, "g", "events", "m0")
        first.poll(8)
        first.commit()
        second = Consumer(kafka, coordinator, "g", "events", "m1")
        assert len(first.assignment()) == 2
        assert len(second.assignment()) == 2
        # Between them, all remaining records are consumed exactly once.
        seen = []
        for __ in range(50):
            seen.extend(first.poll(100))
            seen.extend(second.poll(100))
        offsets = [(m.partition, m.offset) for m in seen]
        assert len(offsets) == len(set(offsets))

    def test_reset_after_retention_expiry(self, clock):
        cluster = KafkaCluster("c", 3, clock=clock)
        cluster.create_topic(
            "t", TopicConfig(partitions=1, retention_seconds=10.0)
        )
        producer = Producer(cluster, "svc", clock=clock)
        for i in range(5):
            producer.produce("t", {"i": i}, key="k")
        coordinator = GroupCoordinator(cluster)
        consumer = Consumer(cluster, coordinator, "g", "t", "m0")
        consumer.poll(2)
        clock.advance(100.0)
        cluster.apply_retention()
        for i in range(3):
            producer.produce("t", {"i": 100 + i}, key="k")
        batch = consumer.poll(100)  # position now below log start
        assert [m.entry.record.value["i"] for m in batch] == [100, 101, 102]

    def test_group_lag(self, kafka, producer, clock, coordinator):
        produce_events(producer, clock, "events", 30)
        consumer = Consumer(kafka, coordinator, "g", "events", "m0")
        assert consumer.lag() == 30
        consumer.poll(1000)
        consumer.commit()
        assert coordinator.group_lag("g", "events") == 0
