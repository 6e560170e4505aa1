import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import (
    BrokerUnavailableError,
    KafkaError,
    NotEnoughReplicasError,
    OffsetOutOfRangeError,
    TopicExistsError,
    UnknownTopicError,
)
from repro.common.records import Record
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.log import PartitionLog


def rec(i: int, t: float = 0.0) -> Record:
    return Record(f"k{i}", {"i": i}, t)


class TestPartitionLog:
    def test_append_assigns_dense_offsets(self):
        log = PartitionLog()
        assert [log.append(rec(i), 0.0) for i in range(3)] == [0, 1, 2]
        assert log.end_offset == 3
        assert log.start_offset == 0

    def test_read_from_offset(self):
        log = PartitionLog()
        for i in range(10):
            log.append(rec(i), 0.0)
        entries = log.read(4, max_records=3)
        assert [e.offset for e in entries] == [4, 5, 6]

    def test_read_at_end_is_empty(self):
        log = PartitionLog()
        log.append(rec(0), 0.0)
        assert log.read(1) == []

    def test_read_out_of_range(self):
        log = PartitionLog()
        log.append(rec(0), 0.0)
        with pytest.raises(OffsetOutOfRangeError):
            log.read(5)

    def test_time_retention_advances_start(self):
        log = PartitionLog()
        for i in range(5):
            log.append(rec(i), float(i))
        expired = log.apply_retention(now=10.0, retention_seconds=6.0)
        assert expired == 4  # entries at t=0..3 are older than 6s
        assert log.start_offset == 4
        with pytest.raises(OffsetOutOfRangeError):
            log.read(0)

    def test_size_retention(self):
        log = PartitionLog()
        for i in range(20):
            log.append(rec(i), 0.0)
        target = log.size_bytes // 2
        log.apply_retention(now=0.0, retention_bytes=target)
        assert log.size_bytes <= target
        assert log.start_offset > 0

    @pytest.mark.parametrize(
        "retention",
        [{"retention_seconds": 10.0}, {"retention_bytes": 40_000}],
        ids=["time", "bytes"],
    )
    def test_retention_expires_tens_of_thousands_of_entries(self, retention):
        log = PartitionLog()
        count = 50_000
        for i in range(count):
            log.append(rec(i), float(i))
        sizes = list(log._sizes)
        max_age = retention.get("retention_seconds")
        max_bytes = retention.get("retention_bytes")
        # The model: expire the head one entry at a time.
        start, held = 0, sum(sizes)
        while start < count and (
            (max_age is not None and count - start > max_age)
            or (max_bytes is not None and held > max_bytes)
        ):
            held -= sizes[start]
            start += 1
        assert start > 40_000
        assert log.apply_retention(now=float(count), **retention) == start
        assert (log.start_offset, log.end_offset) == (start, count)
        assert log.size_bytes == held == sum(sizes[start:])
        assert [e.offset for e in log.read(start, max_records=2)] == [start, start + 1]
        assert log.apply_retention(now=float(count), **retention) == 0

    def test_truncate_to(self):
        log = PartitionLog()
        for i in range(5):
            log.append(rec(i), 0.0)
        removed = log.truncate_to(2)
        assert removed == 3
        assert log.end_offset == 2

    def test_size_accounting(self):
        log = PartitionLog()
        assert log.size_bytes == 0
        log.append(rec(0), 0.0)
        assert log.size_bytes > 0


class TestCluster:
    def _cluster(self, brokers=3, partitions=2, rf=2, **cfg):
        clock = SimulatedClock()
        cluster = KafkaCluster("c", brokers, clock=clock)
        cluster.create_topic(
            "t", TopicConfig(partitions=partitions, replication_factor=rf, **cfg)
        )
        return cluster

    def test_create_duplicate_topic(self):
        cluster = self._cluster()
        with pytest.raises(TopicExistsError):
            cluster.create_topic("t")

    def test_unknown_topic(self):
        cluster = self._cluster()
        with pytest.raises(UnknownTopicError):
            cluster.fetch("missing", 0, 0)

    def test_rf_exceeding_brokers(self):
        cluster = KafkaCluster("c", 2)
        with pytest.raises(KafkaError):
            cluster.create_topic("t", TopicConfig(replication_factor=3))

    def test_append_fetch(self):
        cluster = self._cluster()
        offset = cluster.append("t", 0, rec(1))
        assert offset == 0
        entries = cluster.fetch("t", 0, 0)
        assert entries[0].record.value == {"i": 1}

    def test_acks1_loss_on_leader_failure_before_replication(self):
        cluster = self._cluster()
        leader = cluster.topics["t"].partitions[0].leader
        for i in range(10):
            cluster.append("t", 0, rec(i), acks="1")
        # No replicate() call: followers are empty. Leader dies.
        cluster.kill_broker(leader)
        # New leader has nothing: the acks=1 records are lost.
        assert cluster.end_offset("t", 0) == 0

    def test_acks1_no_loss_after_replication(self):
        cluster = self._cluster()
        leader = cluster.topics["t"].partitions[0].leader
        for i in range(10):
            cluster.append("t", 0, rec(i), acks="1")
        cluster.replicate()
        cluster.kill_broker(leader)
        assert cluster.end_offset("t", 0) == 10

    def test_acks_all_synchronous(self):
        cluster = self._cluster()
        leader = cluster.topics["t"].partitions[0].leader
        for i in range(10):
            cluster.append("t", 0, rec(i), acks="all")
        cluster.kill_broker(leader)
        assert cluster.end_offset("t", 0) == 10

    def test_acks_all_requires_live_replicas(self):
        cluster = self._cluster(brokers=2, partitions=1, rf=2)
        pstate = cluster.topics["t"].partitions[0]
        follower = [b for b in pstate.replica_brokers if b != pstate.leader][0]
        cluster.kill_broker(follower)
        with pytest.raises(NotEnoughReplicasError):
            cluster.append("t", 0, rec(0), acks="all")

    def test_lossless_topic_forces_acks_all(self):
        cluster = self._cluster(brokers=2, partitions=1, rf=2, lossless=True)
        pstate = cluster.topics["t"].partitions[0]
        follower = [b for b in pstate.replica_brokers if b != pstate.leader][0]
        cluster.kill_broker(follower)
        with pytest.raises(NotEnoughReplicasError):
            cluster.append("t", 0, rec(0), acks="1")  # upgraded to all

    def test_all_replicas_down(self):
        cluster = self._cluster(brokers=2, partitions=1, rf=2)
        for broker_id in list(cluster.brokers):
            cluster.kill_broker(broker_id)
        with pytest.raises(BrokerUnavailableError):
            cluster.append("t", 0, rec(0))

    def test_restart_truncates_diverged_follower(self):
        cluster = self._cluster(partitions=1)
        pstate = cluster.topics["t"].partitions[0]
        old_leader = pstate.leader
        for i in range(5):
            cluster.append("t", 0, rec(i), acks="1")
        cluster.kill_broker(old_leader)  # 5 records lost (never replicated)
        for i in range(3):
            cluster.append("t", 0, rec(100 + i), acks="1")
        cluster.restart_broker(old_leader)
        # Old leader rejoined as follower, truncated to new leader's log.
        follower_log = cluster.brokers[old_leader].replicas[("t", 0)]
        assert follower_log.end_offset == cluster.end_offset("t", 0) == 3

    def test_retention_applies_to_all_replicas(self):
        clock = SimulatedClock()
        cluster = KafkaCluster("c", 3, clock=clock)
        cluster.create_topic(
            "t", TopicConfig(partitions=1, replication_factor=2,
                             retention_seconds=100.0)
        )
        cluster.append("t", 0, rec(0))
        cluster.replicate()
        clock.advance(200.0)
        cluster.append("t", 0, rec(1))
        expired = cluster.apply_retention()
        assert expired == 2  # one entry on leader + one on follower
        assert cluster.start_offset("t", 0) == 1

    def test_total_lag(self):
        cluster = self._cluster(partitions=2)
        for i in range(6):
            cluster.append("t", i % 2, rec(i))
        assert cluster.total_lag("t", {0: 1, 1: 1}) == 4

    def test_add_broker(self):
        cluster = self._cluster()
        new_id = cluster.add_broker()
        assert new_id in cluster.brokers
        assert cluster.num_brokers == 4


class TestRestartDivergence:
    """Regressions for the restart_broker hardening: common-prefix
    truncation (not min-length) and re-election on the no-live-leader
    path."""

    def _two_broker_cluster(self):
        clock = SimulatedClock()
        cluster = KafkaCluster("c", 2, clock=clock)
        cluster.create_topic(
            "t", TopicConfig(partitions=1, replication_factor=2)
        )
        return cluster

    def test_common_prefix_end_detects_divergence_past_shared_prefix(self):
        a, b = PartitionLog(), PartitionLog()
        a.append(rec(0), 0.0)
        b.append(rec(0), 0.0)
        a.append(rec(1), 0.0)
        b.append(rec(2), 0.0)
        a.append(rec(3), 0.0)  # a longer AND diverged from offset 1
        assert a.common_prefix_end(b) == 1
        assert b.common_prefix_end(a) == 1

    def test_common_prefix_end_without_divergence_is_min_end(self):
        a, b = PartitionLog(), PartitionLog()
        for i in range(5):
            a.append(rec(i), 0.0)
            if i < 3:
                b.append(rec(i), 0.0)
        assert a.common_prefix_end(b) == 3
        assert b.common_prefix_end(a) == 3

    def test_later_restarted_preferred_replica_with_longer_log_converges(self):
        """The silent-divergence scenario: preferred leader A appends more
        unreplicated entries than the interim leader B ever writes, both
        die, B restarts first, then A.  A's log is LONGER than the
        leader's, so the old min-length truncation kept A's diverged
        entries; common-prefix truncation discards them and resyncs."""
        cluster = self._two_broker_cluster()
        pstate = cluster.topics["t"].partitions[0]
        a, b = pstate.replica_brokers  # a is the preferred leader
        assert pstate.leader == a
        cluster.append("t", 0, rec(0), acks="1")
        cluster.replicate()  # shared prefix: [0]
        cluster.append("t", 0, rec(1), acks="1")  # a-only
        cluster.append("t", 0, rec(2), acks="1")  # a-only; a holds [0,1,2]
        cluster.kill_broker(a)
        assert pstate.leader == b  # b holds [0]
        cluster.append("t", 0, rec(3), acks="1")  # b holds [0,3]
        cluster.kill_broker(b)
        cluster.restart_broker(b)  # b leads again with [0,3]
        cluster.restart_broker(a)  # a rejoins with the longer diverged [0,1,2]
        a_values = [
            e.record.value["i"]
            for e in cluster.brokers[a].replicas[("t", 0)].read(0, 10)
        ]
        b_values = [
            e.record.value["i"]
            for e in cluster.brokers[b].replicas[("t", 0)].read(0, 10)
        ]
        assert a_values == b_values == [0, 3]

    def test_restart_reelects_when_stale_leader_is_still_dead(self):
        """Restarting a non-preferred replica while the recorded leader is
        down must re-elect (preference order over live brokers), not leave
        the partition unreadable."""
        cluster = self._two_broker_cluster()
        pstate = cluster.topics["t"].partitions[0]
        a, b = pstate.replica_brokers
        cluster.append("t", 0, rec(0), acks="1")
        cluster.replicate()
        cluster.kill_broker(b)  # a still leads
        cluster.kill_broker(a)  # nobody alive; stale pointer keeps a
        assert pstate.leader == a
        cluster.restart_broker(b)
        assert pstate.leader == b
        assert cluster.end_offset("t", 0) == 1
        [entry] = cluster.fetch("t", 0, 0)
        assert entry.record.value == {"i": 0}

    def test_replication_pause_widens_acks1_loss_window(self):
        cluster = self._two_broker_cluster()
        pstate = cluster.topics["t"].partitions[0]
        leader = pstate.leader
        cluster.append("t", 0, rec(0), acks="1")
        cluster.replicate()
        cluster.pause_replication()
        cluster.append("t", 0, rec(1), acks="1")
        assert cluster.replicate() == 0  # paused: follower stays behind
        cluster.kill_broker(leader)
        assert cluster.end_offset("t", 0) == 1  # rec(1) lost as predicted
        cluster.resume_replication()
        cluster.restart_broker(leader)
        assert cluster.end_offset("t", 0) == 1
