"""ChaosHarness unit behaviour: scheduling, recording, invariants,
determinism.  The full-stack scenario lives in test_chaos_e2e.py."""

import pytest

from repro import Platform
from repro.chaos import faults
from repro.common.errors import ChaosError, StorageUnavailableError
from repro.storage.blobstore import BlobStore


def kafka_platform(seed=5, brokers=2):
    return (
        Platform(seed=seed, name="unit")
        .with_kafka(num_brokers=brokers)
        .topic("t", partitions=1, replication_factor=2)
    )


class TestScheduling:
    def test_faults_fire_at_their_times_into_timeline_and_spans(self):
        platform = kafka_platform()
        chaos = platform.chaos()
        chaos.kill_broker(at=2.0, broker_id=0)
        # A custom probe action: its return value becomes the event detail,
        # and it observes the world mid-outage.
        chaos.at(
            3.5,
            lambda: f"broker0 alive={platform.kafka.brokers[0].alive}",
            target="probe",
        )
        chaos.restart_broker(at=5.0, broker_id=0)
        chaos.run(until=8.0)

        assert [(e.time, e.kind) for e in chaos.events] == [
            (2.0, faults.KAFKA_KILL_BROKER),
            (3.5, faults.CUSTOM),
            (5.0, faults.KAFKA_RESTART_BROKER),
        ]
        assert chaos.events[1].detail == "broker0 alive=False"
        assert platform.kafka.brokers[0].alive  # restarted
        spans = platform.tracer.spans(layer="chaos")
        assert [s.name for s in spans] == [e.kind for e in chaos.events]
        assert all(s.trace_id == "chaos-5" for s in spans)
        assert all(s.start == s.end for s in spans)  # instantaneous marks

    def test_harness_seed_defaults_to_platform_seed(self):
        platform = kafka_platform(seed=99)
        assert platform.chaos().seed == 99
        assert platform.chaos(seed=3).seed == 3
        assert platform.chaos(seed=3).trace_id == "chaos-3"


class TestBlobOutage:
    def test_outage_window_opens_and_closes(self):
        platform = kafka_platform()
        store = platform.segment_store
        chaos = platform.chaos().blob_outage(at=1.0, until=3.0)
        chaos.run(until=2.0)
        with pytest.raises(StorageUnavailableError):
            store.put("k", b"v")
        chaos.run(until=4.0)
        store.put("k", b"v")  # back up
        assert [e.kind for e in chaos.events] == [
            faults.STORAGE_OUTAGE,
            faults.STORAGE_RESTORE,
        ]
        assert chaos.events[0].target == "segments"

    def test_outage_accepts_a_store_object(self):
        platform = kafka_platform()
        mine = BlobStore("mine")
        chaos = platform.chaos().blob_outage(at=1.0, until=2.0, store=mine)
        chaos.run(until=1.5)
        assert not mine.available
        assert platform.segment_store.available  # untouched

    def test_outage_validation(self):
        platform = kafka_platform()
        with pytest.raises(ChaosError):
            platform.chaos().blob_outage(at=1.0, until=3.0, store="nope")
        with pytest.raises(ChaosError):
            platform.chaos().blob_outage(at=3.0, until=3.0)


class TestFlinkFaults:
    def _with_job(self):
        platform = (
            kafka_platform()
            .topic("out", partitions=1)
            .stream_table("t", timestamp_column="ts")
        )
        platform.streaming_sql(
            "SELECT key, COUNT(*) AS n FROM t GROUP BY TUMBLE(ts, 10), key",
            sink_topic="out",
        )
        return platform

    def test_crash_with_no_job_raises(self):
        platform = kafka_platform()
        chaos = platform.chaos().crash_flink_job(at=1.0)
        with pytest.raises(ChaosError, match="no Flink job"):
            chaos.run(until=2.0)

    def test_crash_with_no_completed_checkpoint_raises(self):
        platform = self._with_job()
        chaos = platform.chaos().crash_flink_job(at=1.0)
        with pytest.raises(ChaosError, match="no completed checkpoint"):
            chaos.run(until=2.0)

    def test_checkpoint_then_crash_records_restore_detail(self):
        platform = self._with_job()
        chaos = (
            platform.chaos()
            .checkpoint_flink(at=1.0)
            .crash_flink_job(at=2.0)
        )
        chaos.run(until=3.0)
        checkpoint_event, crash_event = chaos.events
        assert checkpoint_event.detail.startswith("checkpoint ")
        assert crash_event.detail.startswith("restored from checkpoint ")


class TestRegionFaults:
    def test_failover_and_recovery_round_trip(self):
        from repro.allactive.coordinator import AllActiveCoordinator
        from repro.allactive.region import MultiRegionDeployment

        platform = kafka_platform()
        deployment = MultiRegionDeployment(["dca", "phx"], clock=platform.clock)
        coordinator = AllActiveCoordinator(deployment)
        assert coordinator.primary == "dca"
        chaos = (
            platform.chaos()
            .fail_region(at=2.0, coordinator=coordinator, region="dca")
            .recover_region(at=4.0, coordinator=coordinator, region="dca")
        )
        chaos.run(until=5.0)
        # Failover happened, and recovery does not steal primaryship back.
        assert coordinator.primary == "phx"
        assert coordinator.failovers == 1
        fail_event = chaos.events[0]
        assert fail_event.kind == faults.REGION_FAIL
        assert fail_event.detail == "primary -> phx"


class TestInvariants:
    def test_failing_invariant_renders_fail(self):
        platform = kafka_platform()
        chaos = platform.chaos()
        chaos.expect_equal("sums", lambda: {"a": 1}, {"a": 2})
        chaos.add_invariant("bare-bool", lambda: True)
        report = chaos.report()
        assert not report.ok
        assert [r.name for r in report.failures] == ["sums"]
        text = report.render()
        assert "[FAIL] sums" in text and "[PASS] bare-bool" in text
        assert "1/2 invariants passed" in text

    def test_no_acked_loss_detects_acks1_truncation(self):
        platform = kafka_platform()
        kafka = platform.kafka
        from repro.audit import lineage_digest
        from repro.common.records import Record

        record = Record("k", {"v": 1}, 0.0)
        offset = kafka.append("t", 0, record, acks="1")  # leader-only
        acked = [(0, offset, lineage_digest(record.value))]
        leader = kafka.topics["t"].partitions[0].leader
        kafka.kill_broker(leader)  # unreplicated entry dies with it
        kafka.restart_broker(leader)  # truncates to the new leader's log
        chaos = platform.chaos().expect_no_acked_loss("t", acked)
        [result] = chaos.report().invariants
        assert not result.passed
        assert "lost 1/1" in result.detail

    def test_no_acked_loss_passes_when_replicated(self):
        platform = kafka_platform()
        kafka = platform.kafka
        from repro.audit import lineage_digest
        from repro.common.records import Record

        record = Record("k", {"v": 1}, 0.0)
        offset = kafka.append("t", 0, record, acks="all")
        leader = kafka.topics["t"].partitions[0].leader
        kafka.kill_broker(leader)
        kafka.restart_broker(leader)
        chaos = platform.chaos().expect_no_acked_loss(
            "t", [(0, offset, lineage_digest(record.value))]
        )
        [result] = chaos.report().invariants
        assert result.passed
        assert "1 acked records all present" in result.detail


class TestDeterminism:
    def _scenario(self):
        platform = kafka_platform(seed=7)
        chaos = (
            platform.chaos()
            .kill_broker(at=2.0, broker_id=0)
            .pause_replication(at=3.0)
            .resume_replication(at=4.0)
            .restart_broker(at=5.0, broker_id=0)
        )
        chaos.expect_equal("alive", lambda: platform.kafka.brokers[0].alive, True)
        chaos.run(until=6.0)
        return chaos.report()

    def test_same_seed_same_schedule_byte_identical_report(self):
        first = self._scenario()
        second = self._scenario()
        assert first.render() == second.render()
        assert first.render().startswith("chaos seed 7:")
