"""The auditor's two reports against one test matrix (Sections 4.1.4, 9.4).

The matrix crosses the failure classes an event pipeline must catch — the
ShareChat event-joining checklist: lost, duplicated, replayed out of
order, unexpected — with both reports over the same observation store:
``reconcile()`` (per key, in order, against the expected ledger) and the
window report (per event-time window, between consecutive stages).  Its
inputs are the Chaperone cases: one record a second, 60 s windows.
"""

import math

import pytest

from repro.audit import IntegrityAuditor
from repro.common.clock import SimulatedClock
from repro.common.errors import AuditError, ReproError
from repro.common.records import Record
from repro.flink.graph import StreamEnvironment
from repro.flink.runtime import JobRuntime
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.kafka.ureplicator import UReplicator
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.controller import PinotController
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore


def _stream(n: int) -> list[Record]:
    """``n`` records one second apart over three keys."""
    return [Record(f"k{i % 3}", {"i": i}, float(i)) for i in range(n)]


def _lose_three_in_second_window(upstream):
    return [r for r in upstream if not 60 <= r.event_time < 63]


# case -> (records upstream, what reaches downstream,
#          reconcile's (missing, duplicated, reordered keys),
#          the window report's [(window start, missing, duplicates)])
CASES = {
    "clean": (100, list, (0, 0, 0), []),
    "lost": (120, _lose_three_in_second_window, (3, 0, 0), [(60.0, 3, 0)]),
    "duplicated": (10, lambda up: up + up[:2], (0, 2, 0), [(0.0, 0, 2)]),
    # A re-delivery that jumped the line: every record arrives once, so
    # the per-window counts match and only the per-key order tells.
    "replayed_out_of_order": (10, lambda up: up[9:] + up[:9], (0, 0, 1), []),
    "unexpected_key": (
        10,
        lambda up: up + [Record("rogue", {"i": -1}, 5.0)],
        (0, 1, 0),
        [(0.0, 0, 1)],
    ),
}


@pytest.mark.parametrize("report", ["reconcile", "window"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matrix(case, report):
    n, deliver, finding, alerts = CASES[case]
    upstream = _stream(n)
    downstream = deliver(upstream)
    audit = IntegrityAuditor("matrix")
    if report == "reconcile":
        for record in upstream:
            audit.record_expected(record.key, record.value)
        audit.add_stage("aggregate", downstream)
        [stage] = audit.reconcile().stages
        assert (
            sum(f.count for f in stage.missing),
            sum(f.count for f in stage.duplicated),
            len(stage.reordered),
        ) == finding
    else:
        audit.add_stage("produced", upstream).add_stage("aggregate", downstream)
        assert [
            (a.window_start, a.missing_count, a.duplicate_count)
            for a in audit.window_report(window_seconds=60)
        ] == alerts


class TestWindowReport:
    def _pair(self, upstream, downstream):
        audit = IntegrityAuditor("pair")
        return audit.add_stage("a", upstream).add_stage("b", downstream)

    def test_window_seen_only_downstream_is_diffed(self):
        # A record seen twice downstream, in a window upstream never had.
        upstream = _stream(5)
        stray = Record("k9", {"i": 999}, 130.0)
        [alert] = self._pair(upstream, upstream + [stray, stray]).window_report(60)
        assert (alert.window_start, alert.missing_count) == (120.0, 0)
        assert alert.duplicate_count == 2

    @pytest.mark.parametrize("width", [0.0, -60.0])
    def test_non_positive_window_rejected(self, width):
        with pytest.raises(AuditError):
            self._pair(_stream(5), _stream(5)).window_report(width)

    @pytest.mark.parametrize("width", [math.inf, math.nan])
    def test_non_finite_window_rejected(self, width):
        # An infinite window used to put every record in its own NaN
        # window: two identical stages raised one false alert per record.
        with pytest.raises(AuditError):
            self._pair(_stream(5), _stream(5)).window_report(width)

    @pytest.mark.parametrize("event_time", [math.nan, math.inf, -math.inf])
    def test_non_finite_event_time_rejected(self, event_time):
        bad = _stream(3) + [Record("k0", {"i": 3}, event_time)]
        with pytest.raises(AuditError) as caught:
            self._pair(_stream(3), bad).window_report(60)
        assert isinstance(caught.value, ReproError)
        assert "'b'" in str(caught.value)


# -- each hop caught ----------------------------------------------------------

HOPS = ["produced", "regional", "aggregate", "flink", "pinot"]
LOST = 7  # the ``i`` of the record a stage's scan drops


@pytest.fixture(scope="module")
def stack():
    """20 records along produce -> regional cluster -> uReplicator ->
    aggregate cluster -> a Flink job sinking to Kafka -> a Pinot table."""
    clock = SimulatedClock()
    regional = KafkaCluster("regional", 3, clock=clock)
    aggregate = KafkaCluster("aggregate", 3, clock=clock)
    regional.create_topic("trips", TopicConfig(partitions=2))
    aggregate.create_topic("trips-out", TopicConfig(partitions=2))
    producer = Producer(regional, "trips-svc", clock=clock)
    produced = []
    for i in range(20):
        clock.advance(1.0)
        rider, ts = f"r{i % 4}", clock.now()
        record = Record(rider, {"rider": rider, "i": i, "ts": ts}, ts)
        producer.send("trips", record.value, key=rider, event_time=ts)
        produced.append(record)
    producer.flush()
    UReplicator(regional, aggregate, "trips").run_to_completion()
    env = StreamEnvironment()
    env.from_kafka(aggregate, "trips", group="audit").sink_to_kafka(
        aggregate, "trips-out"
    )
    JobRuntime(env.build("pass-through")).run_until_quiescent()
    schema = Schema(
        "trips",
        (
            Field("rider", FieldType.STRING),
            Field("i", FieldType.LONG, FieldRole.METRIC),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(2)], PeerToPeerBackup(BlobStore())
    )
    controller.create_realtime_table(
        TableConfig("trips", schema, time_column="ts", segment_rows_threshold=8),
        aggregate,
        "trips-out",
    ).ingestion.run_until_caught_up()
    return produced, regional, aggregate, controller


def _audit(stack, lost_at):
    """Every hop's stage; the scan of ``lost_at`` drops record ``LOST``."""
    produced, regional, aggregate, controller = stack

    def where(stage, value=lambda record: record.value):
        return lambda item: not (stage == lost_at and value(item)["i"] == LOST)

    audit = IntegrityAuditor("trips")
    for record in produced:
        audit.record_expected(record.key, record.value)
    audit.add_stage("produced", produced)
    audit.add_kafka_stage(regional, "trips", "regional", where=where("regional"))
    audit.add_kafka_stage(aggregate, "trips", "aggregate", where=where("aggregate"))
    audit.add_kafka_stage(aggregate, "trips-out", "flink", where=where("flink"))
    return audit.add_pinot_stage(
        controller,
        "trips",
        "pinot",
        key_fn=lambda row: row["rider"],
        where=where("pinot", value=lambda row: row),
    )


def test_clean_stack_audits_clean(stack):
    audit = _audit(stack, lost_at=None)
    assert audit.reconcile().ok
    assert audit.window_report(window_seconds=10) == []


@pytest.mark.parametrize("lost_at", HOPS[1:])
def test_each_hop_caught(stack, lost_at):
    """A loss is reported at the hop that lost it and at no earlier one."""
    hop = HOPS.index(lost_at)
    audit = _audit(stack, lost_at)
    alerts = audit.window_report(window_seconds=10)
    losses = [(a.upstream, a.downstream, a.missing_count) for a in alerts]
    assert [loss for loss in losses if loss[2]] == [(HOPS[hop - 1], lost_at, 1)]
    assert all(HOPS.index(a.downstream) >= hop for a in alerts)
    failing = [s for s in audit.reconcile().stages if not s.ok]
    assert [(s.stage, s.summary()) for s in failing] == [
        (lost_at, f"{lost_at}: FAIL (missing 1)")
    ]
