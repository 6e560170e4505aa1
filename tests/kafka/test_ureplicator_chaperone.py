import pytest

from repro.audit import IntegrityAuditor
from repro.common.clock import SimulatedClock
from repro.common.errors import KafkaError
from repro.common.records import Record
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.kafka.ureplicator import OffsetMappingStore, UReplicator


def make_pair(partitions=4, count=100):
    clock = SimulatedClock()
    source = KafkaCluster("src", 3, clock=clock)
    destination = KafkaCluster("dst", 3, clock=clock)
    source.create_topic("t", TopicConfig(partitions=partitions))
    producer = Producer(source, "svc", clock=clock)
    for i in range(count):
        clock.advance(1.0)
        producer.send("t", {"i": i}, key=f"k{i}")
    producer.flush()
    return clock, source, destination


class TestUReplicator:
    def test_replicates_everything(self):
        __, source, destination = make_pair()
        replicator = UReplicator(source, destination, "t", num_workers=2)
        copied = replicator.run_to_completion()
        assert copied == 100
        total = sum(destination.end_offset("t", p) for p in range(4))
        assert total == 100

    def test_offsets_preserved_per_partition(self):
        __, source, destination = make_pair()
        UReplicator(source, destination, "t").run_to_completion()
        for p in range(4):
            assert destination.end_offset("t", p) == source.end_offset("t", p)

    def test_sticky_rebalance_moves_minimum(self):
        __, source, destination = make_pair(partitions=8)
        replicator = UReplicator(source, destination, "t", num_workers=4)
        moved_sticky = replicator.add_worker(sticky=True)
        # 8 partitions, 4->5 workers: only the excess should move.
        assert moved_sticky <= 3

    def test_naive_rebalance_moves_more(self):
        __, source, destination = make_pair(partitions=8)
        sticky = UReplicator(source, destination, "t", num_workers=4)
        moved_sticky = sticky.add_worker(sticky=True)
        __, source2, destination2 = make_pair(partitions=8)
        naive = UReplicator(source2, destination2, "t", num_workers=4)
        moved_naive = naive.add_worker(sticky=False)
        assert moved_sticky < moved_naive

    def test_worker_removal_reassigns_orphans(self):
        __, source, destination = make_pair(partitions=8)
        replicator = UReplicator(source, destination, "t", num_workers=3)
        replicator.remove_worker("worker-0")
        active = [w for w in replicator.workers if w.active]
        covered = {p for w in active for p in w.assigned}
        assert covered == set(range(8))
        replicator.run_to_completion()

    def test_standby_activation_on_burst(self):
        clock, source, destination = make_pair(count=0)
        replicator = UReplicator(
            source, destination, "t", num_workers=1, num_standby=2,
            worker_throughput=100, burst_lag_threshold=500,
        )
        producer = Producer(source, "svc", clock=clock)
        for i in range(2000):
            producer.send("t", {"i": i}, key=f"k{i}")
        producer.flush()
        activated = replicator.activate_standbys_if_bursty()
        assert activated == 2
        # With 3 active workers the burst drains 3x faster per step.
        copied = replicator.run_step()
        assert copied == 300
        replicator.run_to_completion()
        assert replicator.deactivate_standbys_if_idle() == 2

    def test_no_standby_activation_below_threshold(self):
        __, source, destination = make_pair(count=10)
        replicator = UReplicator(
            source, destination, "t", num_standby=1, burst_lag_threshold=1000
        )
        assert replicator.activate_standbys_if_bursty() == 0

    def test_checkpoints_offset_mappings(self):
        __, source, destination = make_pair(count=200)
        store = OffsetMappingStore()
        replicator = UReplicator(
            source, destination, "t", checkpoint_store=store,
            checkpoint_interval=10,
        )
        replicator.run_to_completion()
        replicator.checkpoint_all()
        for p in range(4):
            latest = store.latest(replicator.route, "t", p)
            assert latest is not None
            assert latest.src == source.end_offset("t", p)


class TestOffsetMappingStore:
    def test_translate_conservative(self):
        store = OffsetMappingStore()
        store.record("r", "t", 0, src=10, dst=12, when=1.0)
        store.record("r", "t", 0, src=20, dst=25, when=2.0)
        assert store.translate("r", "t", 0, 15) == 12  # floor checkpoint
        assert store.translate("r", "t", 0, 20) == 25
        assert store.translate("r", "t", 0, 5) is None

    def test_monotonicity_enforced(self):
        store = OffsetMappingStore()
        store.record("r", "t", 0, src=10, dst=10, when=1.0)
        with pytest.raises(KafkaError):
            store.record("r", "t", 0, src=5, dst=5, when=2.0)

    def test_unknown_route(self):
        assert OffsetMappingStore().translate("r", "t", 0, 10) is None


class TestChaperone:
    """The window report over hand-built stages; the loss / duplicate /
    replay / unexpected-key matrix is in tests/audit/test_chaperone.py."""

    def _records(self, n: int) -> list[Record]:
        return [Record(f"k{i}", {"i": i}, float(i)) for i in range(n)]

    def test_pipeline_audit_localizes_stage(self):
        records = self._records(50)
        audit = IntegrityAuditor("pipeline")
        audit.add_stage("regional", records)
        audit.add_stage("aggregate", records)
        audit.add_stage("flink", records[:-5])  # loss at the last hop
        alerts = audit.window_report(window_seconds=1000)
        assert len(alerts) == 1
        assert alerts[0].upstream == "aggregate"
        assert alerts[0].downstream == "flink"

    def test_describe_is_readable(self):
        records = self._records(5)
        audit = IntegrityAuditor("pair")
        audit.add_stage("a", records).add_stage("b", records[:3])
        alert = audit.window_report(window_seconds=60)[0]
        assert "missing 2" in alert.describe()
