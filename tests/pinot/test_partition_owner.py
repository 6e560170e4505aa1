"""One owner for a realtime partition.

``RealtimeIngestion`` holds each partition's placement (owner and
replicas) and its committed offset: the offset after the last sealed row.
A replacement owner gets the sealed segments back from peers and re-reads
from the committed offset only what was never sealed, whatever
``drop_segment``, retention, dedup or upsert did to the partition before;
and a server that replaces a replica is a replica from then on.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pinot.broker import PinotBroker
from repro.pinot.query import PinotQuery
from repro.pinot.server import PinotServer
from tests.pinot.fixtures import PARTITIONS, SCHEMA, Table, ingested_rows
from tests.reference.query import canonical, realtime_rows

THRESHOLD = 10
FULL_SCAN = PinotQuery("rides", select_columns=SCHEMA.field_names(), limit=0)


def scan(table: Table) -> list[bytes]:
    return canonical(PinotBroker(table.controller).execute(FULL_SCAN).rows)


def replace_owner(table: Table, partition: int) -> None:
    """Kill the partition's owner, recover it onto a new server, catch up."""
    owner = table.state.ingestion.partitions[partition].owner
    table.controller.kill_server(owner.name)
    table.controller.recover_server(owner.name, PinotServer("replacement"))
    table.state.ingestion.run_until_caught_up()


def timestamps(rows: list[dict]) -> set[float]:
    """The rows' identities: every ride has its own ``ts``."""
    return {row["ts"] for row in rows}


def copies(table: Table, identities: set[float]) -> set[int]:
    """Indexes in ``table.sent`` of the rows with these identities."""
    return {i for i, row in enumerate(table.sent) if row["ts"] in identities}


class TestReplicaReplacement:
    def test_a_recovered_replica_hosts_the_segments_sealed_after(self):
        table = Table(threshold=THRESHOLD)
        table.send(table.full_segments(per_partition=THRESHOLD))
        pstate = table.state.ingestion.partitions[0]
        owner, [replica] = pstate.owner, pstate.replicas
        table.controller.kill_server(replica.name)
        table.controller.recover_server(replica.name, PinotServer("r3"))
        table.send(table.full_segments(per_partition=THRESHOLD))  # one more seal
        table.controller.kill_server(owner.name)
        # Every consuming segment is empty, so the replicas answer it all.
        assert scan(table) == canonical(table.sent)
        assert [s.name for s in pstate.replicas] == ["r3"]
        assert pstate.replicas[0].has_segment(pstate.sealed_segments[-1])


class TestOwnerReplacement:
    def test_dropped_rows_stay_dropped(self):
        table = Table(threshold=THRESHOLD)
        table.send(table.full_segments(per_partition=2 * THRESHOLD + 3))
        oldest = table.state.ingestion.partitions[0].sealed_segments[0]
        dropped = timestamps(table.segment_rows(0, [oldest]))
        table.controller.drop_segment("rides", oldest)
        replace_owner(table, 0)
        assert scan(table) == canonical(realtime_rows(table.sent, dropped))

    def test_a_dropped_row_sent_again_stays_dropped(self):
        table = Table(threshold=THRESHOLD, dedup=True)
        table.send(table.full_segments(per_partition=THRESHOLD + 3))
        pstate = table.state.ingestion.partitions[0]
        dropped = table.segment_rows(0, [pstate.sealed_segments[0]])
        table.controller.drop_segment("rides", pstate.sealed_segments[0])
        # A dropped row again, upstream.  It lands past the committed
        # offset, so the replacement owner reads it a second time.
        table.send([copy.deepcopy(dropped[-1])])
        replace_owner(table, 0)
        expected = realtime_rows(table.sent, timestamps(dropped), dedup=True)
        assert scan(table) == canonical(expected)

    @pytest.mark.parametrize("expired", [2, 5])
    def test_retention_of_sealed_offsets_loses_no_row(self, expired):
        table = Table(threshold=THRESHOLD)
        # 30 sealed rows and 3 consuming on every partition.
        table.send(table.full_segments(per_partition=3 * THRESHOLD + 3))
        for partition in range(PARTITIONS):
            table.expire(partition, expired)
        replace_owner(table, 0)
        assert scan(table) == canonical(table.sent)

    def test_a_restart_below_the_log_start_resumes_there(self):
        table = Table(threshold=THRESHOLD)
        # 10 sealed rows and 7 consuming on every partition.
        table.send(table.full_segments(per_partition=THRESHOLD + 7))
        pstate = table.state.ingestion.partitions[0]
        consuming = timestamps(table.segment_rows(0, [pstate.consuming.name]))
        table.expire(0, THRESHOLD + 5)
        # The first 5 consuming rows were never sealed and left the log:
        # they die with their owner.  The other 2 are read again.
        lost = consuming - timestamps(table.rows_in_log(0))
        assert len(lost) == 5
        replace_owner(table, 0)
        expected = realtime_rows(table.sent, expired=copies(table, lost))
        assert scan(table) == canonical(expected)


class TestDeadOwner:
    def test_queryable_rows_plus_lag_are_the_rows_produced(self):
        """A dead owner ingests nothing: no query reaches its consuming
        segment, so every row from its committed offset on counts as lag
        and waits (``staleness``) until the replacement re-reads it."""
        table = Table(threshold=THRESHOLD)
        # 10 sealed rows and 3 consuming on every partition.
        table.send(table.full_segments(per_partition=THRESHOLD + 3))
        ingestion = table.state.ingestion
        owner = ingestion.partitions[0].owner
        dead = [p for p, s in ingestion.partitions.items() if s.owner is owner]
        table.controller.kill_server(owner.name)
        waited = []
        for __ in range(3):
            table.send(table.rides(8))
            assert len(scan(table)) + ingestion.lag() == len(table.sent)
            staleness = ingestion.staleness()
            assert all(staleness[p] == 0.0 for p in staleness if p not in dead)
            waited.append([staleness[p] for p in dead])
        for series in zip(*waited):  # each dead partition waits longer
            assert 0 < series[0] < series[1] < series[2]
        table.controller.recover_server(owner.name, PinotServer("replacement"))
        ingestion.run_until_caught_up()
        assert ingestion.lag() == 0
        assert set(ingestion.staleness().values()) == {0.0}
        assert scan(table) == canonical(table.sent)


class TestRetentionPassesThePosition:
    def test_a_lagging_partition_resumes_at_the_log_start(self):
        table = Table(threshold=THRESHOLD)
        table.send(table.full_segments(per_partition=THRESHOLD + 7), ingest=False)
        before = timestamps(table.rows_in_log(0))
        table.expire(0, 5)
        expired = before - timestamps(table.rows_in_log(0))
        assert len(expired) == 5
        # The position expired: what waits is the oldest row still held.
        table.clock.advance(3.0)
        assert table.state.ingestion.staleness()[0] == 3.0
        table.state.ingestion.run_until_caught_up()
        assert table.state.ingestion.partitions[0].position == THRESHOLD + 7
        expected = realtime_rows(table.sent, expired=copies(table, expired))
        assert scan(table) == canonical(expected)


ARMS = ("plain", "dedup", "upsert")
FAULTS = ("owner death", "drop, then owner death", "trim, then owner death")


def new_rides(table: Table, arm: str, count: int, keys: int, resend: list[int]):
    """``count`` new rides.  Upsert rides share ``keys`` ride ids, so keys
    get new versions; the dedup arm also re-sends the rows ``resend`` picks
    from everything sent so far (an at-least-once upstream)."""
    rows = table.rides(count)
    if arm == "upsert":
        for row in rows:
            row["ride_id"] = f"ride-{int(row['ride_id'][5:]) % keys:05d}"
    pool = table.sent + rows
    if arm == "dedup" and pool:
        rows += [copy.deepcopy(pool[i % len(pool)]) for i in resend]
    return rows


class TestCommittedOffsetProperty:
    """Whatever happened to a partition before its owner died mid-way
    through consuming, the table ends up holding the model's rows: every
    row sent, minus the dropped ones and the ones that left the log before
    they were durable; once each under dedup, latest per key under upsert.
    No row is lost and none is read twice."""

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("arm", ARMS)
    @given(
        first=st.integers(min_value=10, max_value=80),
        later=st.integers(min_value=0, max_value=20),
        keys=st.integers(min_value=1, max_value=12),
        resend=st.lists(st.integers(min_value=0, max_value=200), max_size=8),
        rounds=st.integers(min_value=1, max_value=8),
        budget=st.integers(min_value=2, max_value=10),
        victim=st.integers(min_value=0, max_value=PARTITIONS - 1),
        trims=st.lists(
            st.integers(min_value=0, max_value=30),
            min_size=PARTITIONS,
            max_size=PARTITIONS,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_queryable_are_the_models(
        self, arm, fault, first, later, keys, resend, rounds, budget, victim, trims
    ):
        table = Table(threshold=5, upsert=arm == "upsert", dedup=arm == "dedup")
        ingestion = table.state.ingestion
        # One broker for the whole example: the ask after the fault finds
        # the answer cached before it, and must still answer the model.
        broker = PinotBroker(table.controller)
        table.send(new_rides(table, arm, first, keys, resend), ingest=False)
        for __ in range(rounds):  # the death comes mid-way through consuming
            ingestion.run_step(budget)
        held = realtime_rows(
            ingested_rows(table.kafka, "rides", table.state),
            dedup=arm == "dedup",
            key="ride_id" if arm == "upsert" else None,
        )
        assert canonical(broker.execute(FULL_SCAN).rows) == canonical(held)
        pstate = ingestion.partitions[victim]
        owner = pstate.owner
        dropped: set[float] = set()
        expired: set[int] = set()
        if fault.startswith("drop") and pstate.sealed_segments:
            oldest = pstate.sealed_segments[0]
            dropped = timestamps(table.segment_rows(victim, [oldest]))
            table.controller.drop_segment("rides", oldest)
        if fault.startswith("trim"):
            read = [p.position for p in ingestion.partitions.values()]
            dying = set()  # the owner takes these consuming rows down
            for partition, trim in enumerate(trims):
                table.expire(partition, trim)
                if ingestion.partitions[partition].owner is owner:
                    consuming = ingestion.partitions[partition].consuming.name
                    dying |= timestamps(table.segment_rows(partition, [consuming]))
            starts = [table.kafka.start_offset("rides", p) for p in range(PARTITIONS)]
            # A copy that left the log is gone unless it was durable: read,
            # and not in a consuming segment that dies with its owner.
            expired = {
                index
                for index, (partition, offset) in enumerate(table.placements())
                if offset < starts[partition]
                and (offset >= read[partition] or table.sent[index]["ts"] in dying)
            }
        table.controller.kill_server(owner.name)
        table.controller.recover_server(owner.name, PinotServer("replacement"))
        table.send(new_rides(table, arm, later, keys, resend))
        expected = realtime_rows(
            table.sent,
            dropped,
            expired,
            dedup=arm == "dedup",
            key="ride_id" if arm == "upsert" else None,
        )
        assert canonical(broker.execute(FULL_SCAN).rows) == canonical(expected)
