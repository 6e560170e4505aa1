"""Upsert retention (drop_segment) and ingestion-time replay dedup.

Two halves of Pinot's no-loss/no-dup story:

* ``UpsertManager.drop_segment`` regression — dropping a segment holding
  a key's *latest* version used to hide the older versions still sitting
  in retained segments; the key must instead resurrect at its newest
  surviving version.
* ``dedup_enabled`` tables drop re-consumed rows by content digest, so an
  at-least-once replay (a consuming-segment re-read after a server death)
  never double-counts a row.
"""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import PinotError
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.controller import PinotController
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.pinot.upsert import UpsertManager
from repro.storage.blobstore import BlobStore

SCHEMA = Schema(
    "events",
    (
        Field("id", FieldType.STRING),
        Field("v", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


class TestDropSegmentResurrection:
    def test_drop_of_latest_resurrects_newest_surviving_version(self):
        manager = UpsertManager("t", 0)
        manager.apply("a", "seg-0", 0)  # v1
        manager.apply("a", "seg-1", 0)  # v2
        manager.apply("a", "seg-2", 0)  # v3 (latest)
        manager.drop_segment("seg-2")  # retention drops the newest segment
        # Regression: the key used to vanish even though seg-0/seg-1 still
        # hold versions of it.  It must resurrect at the newest survivor.
        assert manager.location("a") == ("seg-1", 0)
        assert manager.valid_docs("seg-1") == {0}
        assert manager.valid_docs("seg-2") == set()

    def test_drop_of_older_segment_leaves_latest_untouched(self):
        manager = UpsertManager("t", 0)
        manager.apply("a", "seg-0", 0)
        manager.apply("a", "seg-1", 3)
        manager.drop_segment("seg-0")
        assert manager.location("a") == ("seg-1", 3)
        assert manager.valid_docs("seg-1") == {3}

    def test_drop_of_only_segment_removes_the_key(self):
        manager = UpsertManager("t", 0)
        manager.apply("a", "seg-0", 0)
        manager.drop_segment("seg-0")
        assert manager.location("a") is None
        assert manager.key_count() == 0

    def test_mixed_keys_settle_independently(self):
        manager = UpsertManager("t", 0)
        manager.apply("a", "seg-0", 0)
        manager.apply("b", "seg-0", 1)
        manager.apply("a", "seg-1", 0)  # a's latest moves on; b stays
        manager.drop_segment("seg-1")
        assert manager.location("a") == ("seg-0", 0)  # resurrected
        assert manager.location("b") == ("seg-0", 1)  # untouched
        assert manager.valid_docs("seg-0") == {0, 1}

    def test_resurrection_survives_a_second_drop(self):
        manager = UpsertManager("t", 0)
        manager.apply("a", "seg-0", 0)
        manager.apply("a", "seg-1", 0)
        manager.apply("a", "seg-2", 0)
        manager.drop_segment("seg-2")
        manager.drop_segment("seg-1")
        assert manager.location("a") == ("seg-0", 0)
        manager.drop_segment("seg-0")
        assert manager.location("a") is None

    def test_rebuild_clears_history(self):
        manager = UpsertManager("t", 0)
        manager.apply("a", "seg-9", 0)
        manager.rebuild_from_segments(
            [("seg-0", [{"id": "a", "v": 1}])], "id"
        )
        manager.drop_segment("seg-0")
        # No ghost resurrection from the pre-rebuild history.
        assert manager.location("a") is None


def _dedup_stack(threshold=5):
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("events", TopicConfig(partitions=1))
    servers = [PinotServer(f"s{i}") for i in range(3)]
    controller = PinotController(servers, PeerToPeerBackup(BlobStore()))
    config = TableConfig(
        "events",
        SCHEMA,
        time_column="ts",
        segment_rows_threshold=threshold,
        dedup_enabled=True,
    )
    state = controller.create_realtime_table(config, kafka, "events")
    return clock, kafka, controller, state


def _rows(state):
    out = []
    for partition in sorted(state.ingestion.partitions):
        pstate = state.ingestion.partitions[partition]
        for name in pstate.sealed_segments + [pstate.consuming.name]:
            segment = pstate.owner.segments.get(name)
            if segment is None:
                continue
            out.extend(segment.row(d) for d in range(segment.num_docs))
    return out


class TestReplayDedup:
    def test_dedup_and_upsert_are_mutually_exclusive(self):
        with pytest.raises(PinotError):
            TableConfig(
                "events", SCHEMA, time_column="ts",
                dedup_enabled=True, upsert_enabled=True, primary_key="id",
            )

    def test_replayed_rows_are_dropped_by_content_digest(self):
        clock, kafka, __, state = _dedup_stack()
        producer = Producer(kafka, "svc", clock=clock)
        payloads = [
            {"id": f"r{i}", "v": float(i), "ts": float(i)} for i in range(8)
        ]
        for payload in payloads + payloads[:3]:  # at-least-once replay
            producer.produce("events", payload, key=payload["id"])
        state.ingestion.run_until_caught_up()
        rows = _rows(state)
        assert len(rows) == 8
        assert {row["id"] for row in rows} == {f"r{i}" for i in range(8)}
        assert state.ingestion.rows_deduped == 3

    def test_distinct_rows_with_same_key_are_not_deduped(self):
        clock, kafka, __, state = _dedup_stack()
        producer = Producer(kafka, "svc", clock=clock)
        producer.produce("events", {"id": "r", "v": 1.0, "ts": 1.0}, key="r")
        producer.produce("events", {"id": "r", "v": 2.0, "ts": 2.0}, key="r")
        state.ingestion.run_until_caught_up()
        assert len(_rows(state)) == 2
        assert state.ingestion.rows_deduped == 0

    def test_dedup_set_rebuilds_from_sealed_segments_on_owner_recovery(self):
        """Server death loses the consuming segment; recovery forgets only
        its rows' digests, so a replay of already-sealed rows still dedups
        while the lost consuming rows re-ingest."""
        clock, kafka, controller, state = _dedup_stack(threshold=5)
        producer = Producer(kafka, "svc", clock=clock)
        payloads = [
            {"id": f"r{i}", "v": float(i), "ts": float(i)} for i in range(7)
        ]
        for payload in payloads:
            producer.produce("events", payload, key=payload["id"])
        state.ingestion.run_until_caught_up()
        # 5 rows sealed, 2 consuming on the dead owner.
        owner = state.ingestion.partitions[0].owner
        controller.kill_server(owner.name)
        controller.recover_server(owner.name, PinotServer("s-new"))
        # Replay sealed rows (broker-side at-least-once) and catch up: the
        # rebuilt digest set drops them; the 2 consuming rows come back.
        for payload in payloads[:5]:
            producer.produce("events", payload, key=payload["id"])
        state.ingestion.run_until_caught_up()
        rows = _rows(state)
        assert len(rows) == 7
        assert {row["id"] for row in rows} == {f"r{i}" for i in range(7)}
