import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import QuotaExceededError
from repro.kafka.admin import SelfServeAdmin, TopicQuota
from repro.kafka.cluster import KafkaCluster
from repro.kafka.federation import FederationMetadataServer


def make_admin():
    clock = SimulatedClock()
    metadata = FederationMetadataServer()
    metadata.add_cluster(KafkaCluster("c0", 4, clock=clock))
    return SelfServeAdmin(metadata, default_quota_bytes=1000)


class TestQuota:
    def test_charge_within_budget(self):
        quota = TopicQuota(100)
        quota.charge(60)
        quota.charge(40)
        with pytest.raises(QuotaExceededError):
            quota.charge(1)

    def test_reset(self):
        quota = TopicQuota(100)
        quota.charge(100)
        quota.reset()
        quota.charge(100)


class TestSelfServe:
    def test_deploy_provisions_topic(self):
        admin = make_admin()
        topic = admin.on_service_deployed("rides-api")
        assert topic == "logs.rides-api"
        cluster, __ = admin.federation.locate(topic)
        assert cluster.has_topic(topic)

    def test_deploy_idempotent(self):
        admin = make_admin()
        admin.on_service_deployed("svc")
        admin.on_service_deployed("svc")
        assert list(admin.quotas) == ["logs.svc"]
        topics = [t for c in admin.federation.clusters() for t in c.topics]
        assert topics == ["logs.svc"]

    def test_quota_enforced_on_produce(self):
        admin = make_admin()
        topic = admin.on_service_deployed("svc")
        admin.charge_produce(topic, 900)
        with pytest.raises(QuotaExceededError):
            admin.charge_produce(topic, 200)

    def test_auto_expansion_doubles_partitions(self):
        admin = make_admin()
        topic = admin.on_service_deployed("busy-svc")
        cluster, __ = admin.federation.locate(topic)
        before = cluster.partition_count(topic)
        admin.charge_produce(topic, 850)  # over the 80% threshold
        new_count = admin.maybe_expand(topic)
        assert new_count == before * 2
        assert cluster.partition_count(topic) == before * 2
        # New partitions are writable.
        from repro.common.records import Record

        cluster.append(topic, new_count - 1, Record("k", {"x": 1}, 0.0))

    def test_no_expansion_below_threshold(self):
        admin = make_admin()
        topic = admin.on_service_deployed("quiet-svc")
        admin.charge_produce(topic, 100)
        assert admin.maybe_expand(topic) == 0

    def test_expansion_raises_quota(self):
        admin = make_admin()
        topic = admin.on_service_deployed("svc")
        admin.charge_produce(topic, 900)
        admin.maybe_expand(topic)
        assert admin.quotas[topic].max_bytes_per_window == 2000
