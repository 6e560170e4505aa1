"""Freshness read off the log equals what a reader sees, through faults.

A plain table (``trip_id`` unique per row) is fed three rows a second
while a chaos timeline kills a Kafka broker and restarts it, then kills
the Pinot server that owns partition 0 and replaces it.  After every
step, ``RealtimeIngestion.staleness()`` must equal
``tests/reference/freshness.py``'s reading of the Kafka log and a full
broker scan, and at the end ``Platform.freshness`` must equal, as a
multiset, the model's ``now - append_time`` each time a row became
queryable.  Nothing but the caller's rows may reach the topic.
"""

from __future__ import annotations

from repro import Field, FieldRole, FieldType, Platform, Schema, TableConfig
from repro.pinot.broker import PinotBroker
from repro.pinot.query import PinotQuery
from tests.reference.freshness import FreshnessModel

SCHEMA = Schema(
    "trips",
    (
        Field("trip_id", FieldType.STRING),
        Field("city", FieldType.STRING),
        Field("fare", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)
SCAN = PinotQuery("trips", select_columns=["trip_id"], limit=0)
PARTITIONS = 2
OWNER = "fresh-pinot-0"  # owns partition 0
KILL, RECOVER = 18.0, 26.0


def run_timeline(steps: int = 36):
    """Drive the timeline; returns the platform, the model, the rows sent
    and each step's ``(time, staleness)``, asserting the model's staleness
    after every step."""
    platform = (
        Platform(seed=5, name="fresh")
        .with_kafka(num_brokers=3)
        .with_pinot(servers=3)
        .topic("trips", partitions=PARTITIONS, replication_factor=2)
    )
    state = platform.realtime_table(
        TableConfig("trips", SCHEMA, time_column="ts", segment_rows_threshold=8),
        topic="trips",
    )
    assert state.ingestion.partitions[0].owner.name == OWNER
    chaos = (
        platform.chaos()
        .kill_broker(at=6.0, broker_id=0)
        .restart_broker(at=12.0, broker_id=0)
        .kill_pinot_server(at=KILL, name=OWNER)
        .recover_pinot_server(at=RECOVER, failed=OWNER, replacement="fresh-pinot-3")
        .expect_freshness("trips", target_seconds=1.0)
    )
    # acks=1: a broker outage must not stall the producer (acks=all
    # refuses while a replica is down), at the price of losing what the
    # dead leader never replicated.  The model reads the log as it is.
    producer = platform.producer("trips-svc")
    kafka = platform.kafka
    model = FreshnessModel("trip_id")
    sent, readings = [], []
    for step in range(steps):
        for __ in range(3):
            n = len(sent)
            row = {
                "trip_id": f"trip-{n:04d}",
                "city": f"c{n % 5}",
                "fare": float(n % 7),
                "ts": platform.clock.now(),
            }
            producer.send("trips", row, key=row["trip_id"])
            sent.append(row)
        producer.flush()
        chaos.run(until=step + 1.0)
        now = platform.clock.now()
        logs = {
            p: kafka.fetch("trips", p, kafka.start_offset("trips", p), len(sent))
            for p in range(PARTITIONS)
        }
        rows = PinotBroker(platform.pinot).execute(SCAN).rows
        expected = model.observe(logs, rows, now)
        got = state.ingestion.staleness()
        assert got == expected, f"t={now}: {got} != model {expected}"
        readings.append((now, got))
        if now == KILL + 4:
            # Mid-outage the freshness invariant fails and says why.
            [verdict] = chaos.report().invariants
            assert not verdict.passed and "max staleness" in verdict.detail
    return platform, chaos, model, sent, readings


class TestStalenessIsReadOffTheLog:
    def test_staleness_equals_the_model_and_tracks_the_owner_outage(self):
        platform, chaos, __, __, readings = run_timeline()
        outage = [s[0] for t, s in readings if KILL <= t < RECOVER]
        assert len(outage) == RECOVER - KILL
        assert outage[0] > 0 and all(b > a for a, b in zip(outage, outage[1:]))
        # Each step ingests what was sent before it; partition 1's owner
        # lived, so it never fell behind.
        assert all(s[1] == 0.0 for __, s in readings)
        assert all(s == {0: 0.0, 1: 0.0} for t, s in readings if t >= RECOVER)
        report = chaos.report()
        assert report.ok, report.render()
        assert platform.pinot.table("trips").ingestion.lag() == 0

    def test_freshness_is_every_time_a_row_became_queryable(self):
        platform, __, model, __, __ = run_timeline()
        report = platform.freshness("trips")
        assert sorted(report.samples) == sorted(model.samples)
        # The dead owner's consuming rows were queryable, hidden, then
        # re-consumed by the replacement: they count twice.
        kafka = platform.kafka
        held = sum(len(kafka.fetch("trips", p, 0, 1000)) for p in range(PARTITIONS))
        assert report.count > held
        assert report.max == max(model.samples) > RECOVER - KILL

    def test_the_topic_holds_only_the_callers_rows(self):
        platform, chaos, __, sent, __ = run_timeline()
        chaos.report()
        platform.freshness("trips")
        platform.dashboard()
        kafka = platform.kafka
        assert list(kafka.topics) == ["trips"]
        held = [
            entry.record.value
            for p in range(PARTITIONS)
            for entry in kafka.fetch("trips", p, 0, 10 * len(sent))
        ]
        # Each row held is one the caller sent, once; the broker kill may
        # have cost a few unreplicated ones.
        by_id = {row["trip_id"]: row for row in sent}
        assert len({row["trip_id"] for row in held}) == len(held)
        assert all(by_id[row["trip_id"]] == row for row in held)
        assert len(sent) - 6 <= len(held) <= len(sent)
