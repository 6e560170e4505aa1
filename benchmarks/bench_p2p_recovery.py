"""Experiment C9 — §4.3.4: peer-to-peer segment recovery vs the
centralized segment store.

Paper: the original design's synchronous, single-controller backup "was a
huge scalability bottleneck and caused data freshness violation.
Moreover, any segment store failures caused all data ingestion to come to
a halt."  The P2P redesign "solved the single node backup bottleneck and
significantly improved overall data freshness."

Series: ingestion lag over time under (a) a slow controller and (b) a
segment-store outage window, centralized vs peer-to-peer.  Then, under
both designs, a restore: retention drops partition 0's oldest sealed
segment and its owner dies; the replacement gets the sealed segments back
and re-reads from Kafka only what was never sealed, so the table holds
every row produced minus the dropped ones.
"""

from __future__ import annotations

from repro.common.clock import SimulatedClock
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.query import Aggregation, PinotQuery
from repro.pinot.recovery import CentralizedBackup, PeerToPeerBackup
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore

from benchmarks.conftest import print_table

SCHEMA = Schema(
    "t",
    (
        Field("k", FieldType.STRING),
        Field("v", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)

STEPS = 60
EVENTS_PER_STEP = 200
OUTAGE = range(10, 30)  # store down during these steps


def run_design(make_backup):
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("t", TopicConfig(partitions=4))
    store = BlobStore()
    backup = make_backup(store)
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)], backup
    )
    state = controller.create_realtime_table(
        TableConfig("t", SCHEMA, time_column="ts",
                    segment_rows_threshold=100),
        kafka, "t",
    )
    producer = Producer(kafka, "svc", clock=clock)
    lag_series = []
    counter = 0
    for step in range(STEPS):
        store.set_available(step not in OUTAGE)
        for __ in range(EVENTS_PER_STEP):
            clock.advance(0.01)
            producer.send("t", {"k": f"k{counter}", "v": 1.0,
                                "ts": clock.now()}, key=f"k{counter}")
            counter += 1
        producer.flush()
        state.ingestion.run_step(500)
        backup.run_step()
        lag_series.append(state.ingestion.lag())
    # Recovery phase: production stops; how long until fully fresh?
    drain_steps = 0
    while state.ingestion.lag() > 0 and drain_steps < 500:
        state.ingestion.run_step(500)
        backup.run_step()
        drain_steps += 1
    # Restore: drop partition 0's oldest sealed segment, then replace its
    # owner and catch up.
    pstate = state.ingestion.partitions[0]
    oldest = pstate.sealed_segments[0]
    dropped = pstate.owner.segments[oldest].num_docs
    controller.drop_segment("t", oldest)
    controller.kill_server(pstate.owner.name)
    controller.recover_server(pstate.owner.name, PinotServer("s-replacement"))
    state.ingestion.run_until_caught_up()
    result = PinotBroker(controller).execute(
        PinotQuery("t", aggregations=[Aggregation("COUNT")])
    )
    restore = (counter - dropped, result.rows[0]["count(*)"])
    return lag_series, drain_steps, restore


def run_both():
    centralized = run_design(lambda s: CentralizedBackup(s, uploads_per_step=1))
    p2p = run_design(lambda s: PeerToPeerBackup(s, uploads_per_step=1))
    return centralized, p2p


def test_p2p_recovery_freshness(benchmark):
    (centralized, c_drain, c_restore), (p2p, p_drain, p_restore) = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )
    sample_steps = [5, 15, 25, 35, 45, 59]
    print_table(
        "C9: ingestion lag (rows not yet queryable); store outage at "
        f"steps {OUTAGE.start}-{OUTAGE.stop - 1}",
        ["step", "centralized lag", "peer-to-peer lag"],
        [[s, centralized[s], p2p[s]] for s in sample_steps]
        + [
            ["drain steps after", c_drain, p_drain],
            ["rows after restore (expected)", c_restore[0], p_restore[0]],
            ["rows after restore (queried)", c_restore[1], p_restore[1]],
        ],
    )
    # A restore re-reads only what was never sealed: every row produced,
    # minus the dropped segment's, is queryable once, under both designs.
    assert c_restore[1] == c_restore[0] and p_restore[1] == p_restore[0]
    # During the outage the centralized design halts: lag explodes.
    assert centralized[OUTAGE.stop - 1] > 10 * max(1, p2p[OUTAGE.stop - 1])
    # P2P freshness is never hostage to the store (or the controller's
    # upload throughput).
    assert max(p2p) < EVENTS_PER_STEP * 3
    assert p_drain <= 1
    # Centralized recovers only after working through the controller's
    # single-node upload backlog — the bottleneck, visible as a long drain.
    assert c_drain > 10
    benchmark.extra_info.update(
        centralized_peak_lag=max(centralized), p2p_peak_lag=max(p2p),
        centralized_drain_steps=c_drain,
    )
