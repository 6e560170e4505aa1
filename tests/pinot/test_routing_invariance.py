"""Which replica serves a segment is invisible in results.

Sticky routing picks a segment's host by rendezvous hash over its *live*
replicas, so killing and restarting servers between queries moves
segments between hosts — and between scan-share caches.  Every answer
must stay byte-identical to the answer before any kill, and equal to a
plain-Python evaluation over the rows sent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import hashring, serde
from repro.common.errors import PinotError, StorageError
from repro.pinot.broker import PinotBroker
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.server import PinotServer
from tests.pinot.fixtures import Table
from tests.reference.query import canonical, evaluate, latest_per_key

QUERIES = {
    "selection": PinotQuery(
        "rides",
        select_columns=["ride_id", "city", "amount"],
        filters=[Filter("amount", ">=", 60.0)],
        limit=0,
    ),
    "ordered selection": PinotQuery(
        "rides",
        select_columns=["ride_id", "amount"],
        filters=[Filter("amount", "<", 30.0)],
        order_by=[("amount", True), ("ride_id", False)],
        limit=15,
    ),
    "group-by": PinotQuery(
        "rides",
        aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
        filters=[Filter("amount", ">=", 20.0)],
        group_by=["city"],
        limit=100,
    ),
    "global": PinotQuery(
        "rides",
        aggregations=[Aggregation("AVG", "amount"), Aggregation("MAX", "ts")],
        filters=[Filter("ts", "BETWEEN", low=10.0, high=150.0)],
    ),
}


def answers(broker) -> dict[str, bytes]:
    return {
        name: serde.encode(broker.execute(query).rows)
        for name, query in QUERIES.items()
    }


def assert_right(broker, rows) -> None:
    for name, query in QUERIES.items():
        got, expected = broker.execute(query).rows, evaluate(query, rows)
        if query.order_by or query.aggregations:
            assert serde.encode(got) == serde.encode(expected), name
        else:
            assert canonical(got) == canonical(expected), name


def routes(broker, state) -> dict[str, str]:
    """segment -> the server a full scan routes it to."""
    subqueries, __ = broker._route(state, PinotQuery("rides"))
    return {name: server.name for server, names, __ in subqueries for name in names}


def fresh_routes(state) -> dict[str, str] | None:
    """segment -> server, re-derived from nothing remembered: a fresh
    ``hashring.pick`` over the candidates that are alive and hold the
    segment *now*.  None when a sealed segment has no such host (the
    scatter must refuse, not answer short)."""
    out = {}
    for pstate in state.ingestion.partitions.values():
        owner = pstate.owner
        for name in pstate.sealed_segments:
            hosts = [
                s.name
                for s in [owner] + pstate.replicas
                if s.alive and s.has_segment(name)
            ]
            if not hosts:
                return None
            out[name] = hashring.pick(("rides", name), hosts)
        if owner.alive:
            out[pstate.consuming.name] = owner.name
    return out


class TestReplicaChurn:
    def test_answers_survive_every_single_server_outage(self):
        table = Table(threshold=20)
        table.send(table.full_segments(per_partition=40))
        assert table.sealed_segments() == 8 and table.consuming_docs() == 0
        # A fresh broker per ask routes every time; one kept broker also
        # serves repeats from its result cache (a kill does not move the
        # table epoch) and is the one whose routes are remembered.
        fresh = lambda: PinotBroker(table.controller)
        caching = PinotBroker(table.controller)
        before = answers(fresh())
        assert answers(caching) == before
        assert_right(fresh(), table.sent)
        home = routes(caching, table.state)
        moved = set()
        for victim in [s.name for s in table.controller.servers]:
            table.controller.kill_server(victim)
            during = routes(caching, table.state)
            assert victim not in during.values()
            moved |= {seg for seg in during if during[seg] != home[seg]}
            for __repeat in range(2):  # second pass: scan-share warm
                assert answers(fresh()) == before, f"{victim} down"
                assert answers(caching) == before, f"{victim} down"
            table.controller._server(victim).alive = True  # restart
            assert routes(caching, table.state) == home  # sticky: back home
            assert answers(fresh()) == before, f"{victim} back"
        assert moved  # the outages really re-routed segments
        assert_right(fresh(), table.sent)
        hits = sum(s.scan_cache.hits for s in table.controller.servers)
        assert hits > 0

    def test_route_depends_on_liveness_only(self):
        table = Table(threshold=20)
        table.send(table.full_segments(per_partition=40))
        broker = PinotBroker(table.controller)
        first = routes(broker, table.state)
        assert first == fresh_routes(table.state)
        for query in QUERIES.values():
            broker.execute(query)
            assert routes(broker, table.state) == first
        # Every sealed segment has two live hosts and is pinned to one.
        assert len(first) == 8 + 4  # sealed + the owners' consuming segments
        # The broker remembers its choices; liveness is a bare attribute
        # nobody announces.  Flipping it must still move exactly the
        # segments a from-scratch pick moves, and flip them back.
        for server in table.controller.servers:
            server.alive = False
            during = routes(broker, table.state)
            assert during == fresh_routes(table.state)
            assert server.name not in during.values()
            server.alive = True
            assert routes(broker, table.state) == first

    def test_ingest_between_outages_is_seen_from_every_replica(self):
        table = Table(threshold=20)
        table.send(table.full_segments(per_partition=40))
        broker = PinotBroker(table.controller)
        for victim in [s.name for s in table.controller.servers]:
            assert_right(broker, table.sent)
            table.send(table.full_segments(per_partition=20))  # epoch moves
            table.controller.kill_server(victim)
            assert_right(broker, table.sent)  # no stale entry on the new host
            table.controller._server(victim).alive = True
        assert_right(broker, table.sent)


THRESHOLD = 10

#: One step of a schedule: (operation, which server / partition it hits).
STEPS = st.tuples(
    st.sampled_from(
        ["kill", "down", "up", "recover", "add", "drop", "seal", "ingest", "query"]
    ),
    st.integers(min_value=0, max_value=11),
)


class TestStalePlacementCannotHappen:
    """The broker looks replica choices up instead of re-deriving them.
    Whatever happens to the cluster between two identical queries — by a
    controller call or by flipping ``server.alive`` behind its back — each
    segment's routed host is the one a fresh pick names, and the answers
    are the reference's."""

    @given(st.lists(STEPS, min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_routes_are_fresh_and_answers_right_after_every_step(self, schedule):
        table = Table(threshold=THRESHOLD)
        table.send(table.full_segments(per_partition=2 * THRESHOLD))
        table.send(table.rides(7))
        state, controller = table.state, table.controller
        broker = PinotBroker(controller)
        dropped_rides: set[str] = set()
        spares = (f"spare-{i}" for i in range(len(schedule)))

        def check():
            expected = fresh_routes(state)
            if expected is None:
                with pytest.raises(PinotError):
                    routes(broker, state)
                return
            assert routes(broker, state) == expected
            hidden = set(dropped_rides)
            for partition, pstate in state.ingestion.partitions.items():
                # Not ingested: a dead owner ingests nothing, and one that
                # came back "up" waits for the next ingest to catch up.
                hidden |= {
                    entry.record.value["ride_id"]
                    for entry in table.kafka.fetch(
                        "rides", partition, pstate.position, len(table.sent)
                    )
                }
                if not pstate.owner.alive:  # unreachable until back
                    consuming = pstate.consuming
                    hidden |= {
                        consuming.row(doc)["ride_id"]
                        for doc in range(consuming.num_docs)
                    }
            held = [r for r in table.sent if r["ride_id"] not in hidden]
            assert_right(PinotBroker(controller), held)

        check()
        for op, n in schedule:
            server = controller.servers[n % len(controller.servers)]
            partition = n % len(state.ingestion.partitions)
            if op == "kill":
                controller.kill_server(server.name)
            elif op == "down":
                server.alive = False
            elif op == "up":
                server.alive = True
            elif op == "recover" and not server.alive:
                try:
                    controller.recover_server(server.name, PinotServer(next(spares)))
                except StorageError:
                    pass  # no live peer and no backup yet: still down
                state.ingestion.run_until_caught_up()
            elif op == "add":
                try:
                    controller.add_server(PinotServer(next(spares)))
                except StorageError:
                    pass
            elif op == "drop":
                pstate = state.ingestion.partitions[partition]
                if pstate.sealed_segments:
                    name = pstate.sealed_segments[0]
                    segment = pstate.owner.segments[name]
                    dropped_rides |= {
                        segment.row(doc)["ride_id"]
                        for doc in range(segment.num_docs)
                    }
                    controller.drop_segment("rides", name)
            elif op == "seal":
                table.send(table.full_segments(per_partition=THRESHOLD))
            elif op == "ingest":
                table.send(table.rides(1 + n))
            check()


class TestUpsertOwnerFailure:
    def _updates(self, table, count, versions):
        rows = []
        for version in range(versions):
            for row in table.rides(count):
                row["ride_id"] = f"ride-{int(row['ride_id'][5:]) % count:05d}"
                row["amount"] += version * 100.0
                rows.append(row)
        return rows

    def test_answers_survive_replica_outage_and_owner_replacement(self):
        table = Table(threshold=25, upsert=True)
        table.send(self._updates(table, count=60, versions=3))
        current = latest_per_key(table.sent, "ride_id")
        assert len(current) == 60 and table.sealed_segments() > 0
        broker = PinotBroker(table.controller)
        before = answers(broker)
        assert_right(broker, current)
        owners = {p.owner.name for p in table.state.ingestion.partitions.values()}
        # A server that owns no partition of this table: only a replica.
        table.controller.add_server(PinotServer("spare"))
        table.controller.kill_server("spare")
        assert answers(broker) == before
        # An owner dies and is replaced: sealed segments come from peers,
        # the consuming rows are re-read from Kafka, validity is rebuilt.
        victim = sorted(owners)[0]
        table.controller.kill_server(victim)
        table.controller.recover_server(victim, PinotServer("replacement"))
        table.state.ingestion.run_until_caught_up()
        assert answers(broker) == before
        assert_right(broker, current)
