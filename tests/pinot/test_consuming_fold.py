"""A repeated aggregation folds only the docs its consuming segment gained.

A server keeps a consuming segment's partial of a panel the broker asks
again, with the number of docs it covers, and the next repeat filters and
folds only the docs appended since.  Every answer here is held to
``tests/reference/query.evaluate`` over every row the table ingested, and
the docs a repeat evaluates are counted (``pinot.filter_evals``).
"""

from __future__ import annotations

import pytest

from repro.common import serde
from repro.common.epochcache import EpochCache
from repro.common.errors import IncomparableError
from repro.common.perf import measured
from repro.pinot.broker import PinotBroker, normalize_query
from repro.pinot.query import (
    Aggregation,
    Filter,
    PartialResult,
    PinotQuery,
    execute_on_segment,
    group_fold,
)
from repro.pinot.segment import MutableSegment
from repro.pinot.server import PinotServer
from tests.pinot.fixtures import CITIES, Table, ingested_rows, ride
from tests.reference.query import evaluate, latest_per_key

#: A seal threshold no test reaches: every row stays in a consuming segment.
NEVER = 100_000

#: Two panels over the same segments; ``ts > -1`` keeps every doc, so a
#: panel's filter evaluations are the docs its segments examined.
PANEL = PinotQuery(
    table="rides",
    aggregations=[
        Aggregation("COUNT"),
        Aggregation("SUM", "amount"),
        Aggregation("AVG", "amount"),
        Aggregation("MIN", "amount"),
        Aggregation("MAX", "ts"),
        Aggregation("DISTINCTCOUNT", "ride_id"),
    ],
    filters=[Filter("ts", ">", -1.0)],
    group_by=["city"],
    limit=0,
)
TOTALS = PinotQuery(
    table="rides",
    aggregations=[Aggregation("AVG", "amount"), Aggregation("MAX", "amount")],
    filters=[Filter("amount", ">=", 0.0)],
    limit=0,
)


def burst(table: Table, count: int = 48, city: str | None = None) -> None:
    start = len(table.sent)
    table.send([ride(start + i, float(start + i), city) for i in range(count)])


def held(table: Table) -> list[dict]:
    return latest_per_key(table.sent, "ride_id") if table.upsert else table.sent


def ask(table: Table, broker: PinotBroker, query: PinotQuery, rows=None) -> int:
    """Ask ``query``, check the answer, and return the docs its filter
    evaluated."""
    with measured() as perf:
        got = broker.execute(query).rows
        evals = perf.counts.get("pinot.filter_evals", 0)
    expected = evaluate(query, held(table) if rows is None else rows)
    assert serde.encode(got) == serde.encode(expected)
    return evals


def consuming_held(table: Table, query: PinotQuery) -> list[str]:
    """Names of the consuming segments whose owner holds ``query``'s
    partial for the instance it hosts now."""
    key = normalize_query(query)
    names = []
    for pstate in table.state.ingestion.partitions.values():
        segment = pstate.consuming
        entry = pstate.owner.scan_cache.get((segment.name, key), segment.serial)
        if entry is not None:
            assert entry[0] == segment.num_docs
            names.append(segment.name)
    return names


def finished(query: PinotQuery, partial: PartialResult) -> bytes:
    """A partial's answer, read without writing into it."""
    fold = group_fold(query)
    fold.merge(partial.groups)
    return serde.encode(fold.rows())


class TestConsumingFold:
    def test_a_repeat_evaluates_only_the_docs_appended_since(self):
        table = Table(threshold=NEVER)
        broker = PinotBroker(table.controller)
        burst(table)
        for panel in (PANEL, TOTALS):
            ask(table, broker, panel)  # asked once: nothing is held
            assert consuming_held(table, panel) == []
        burst(table, 30)
        for panel in (PANEL, TOTALS):
            # The first repeat folds every doc and holds the result.
            assert ask(table, broker, panel) == len(table.sent)
            assert len(consuming_held(table, panel)) == 4
        # Three bursts; the second lands on one partition, so the other
        # three consuming segments are served what they hold.
        for count, city in ((48, None), (7, CITIES[3]), (20, None)):
            burst(table, count, city)
            for panel in (PANEL, TOTALS):
                assert ask(table, broker, panel) == count
        # Answered from scratch, the same panels examine every doc.
        fresh = PinotBroker(table.controller)
        assert ask(table, fresh, PANEL) == len(table.sent)

    def test_order_sensitive_floats_fold_as_a_full_scan_does(self):
        # Folded from fresh states per extension and then merged, the
        # second chunk would lose its 0.1 (-1e16 + 0.1 == -1e16).
        table = Table(threshold=NEVER)
        city = CITIES[5]
        query = PinotQuery(
            table="rides",
            aggregations=[Aggregation("SUM", "amount"), Aggregation("AVG", "amount")],
            filters=[Filter("city", "=", city)],
            limit=0,
        )
        broker = PinotBroker(table.controller)
        chunks = [[2.5], [1e16, 1.0], [-1e16, 0.1], [0.3, 1e-3, -2.5e15], [7.7]]
        for chunk in chunks:
            start = len(table.sent)
            table.send(
                [
                    dict(ride(start + i, float(start + i), city), amount=amount)
                    for i, amount in enumerate(chunk)
                ]
            )
            evals = ask(table, broker, query)
            got = broker.execute(query).rows  # a result-cache hit
            full = PinotBroker(table.controller).execute(query).rows
            assert got == full
        assert evals == len(chunks[-1])  # the last was an extension

    def test_a_held_partial_is_never_written_to(self):
        table = Table(threshold=NEVER)
        broker = PinotBroker(table.controller)
        for __ in range(2):
            burst(table)
            ask(table, broker, PANEL)
        pstate = table.state.ingestion.partitions[0]
        segment, server = pstate.consuming, pstate.owner
        key = (segment.name, normalize_query(PANEL))
        covered, partial = server.scan_cache.get(key, segment.serial)
        before = finished(PANEL, partial)
        burst(table)
        ask(table, broker, PANEL)  # extends the held partial
        grown, extended = server.scan_cache.get(key, segment.serial)
        assert grown > covered and extended is not partial
        assert finished(PANEL, partial) == before
        # Extended twice from the same held partial, alike both times.
        once = execute_on_segment(segment, PANEL, held=(covered, partial))
        twice = execute_on_segment(segment, PANEL, held=(covered, partial))
        assert finished(PANEL, once) == finished(PANEL, twice)
        assert finished(PANEL, once) == finished(PANEL, extended)
        assert finished(PANEL, partial) == before

    def test_an_upsert_table_holds_no_consuming_partial(self):
        table = Table(threshold=NEVER, upsert=True)
        broker = PinotBroker(table.controller)
        for __ in range(3):
            burst(table, 24)
            ask(table, broker, PANEL)
        assert consuming_held(table, PANEL) == []
        # Supersede a doc the consuming segments hold: the repeat shows
        # the new version, not the one a held partial would have folded.
        old = table.sent[0]
        table.send([dict(old, amount=old["amount"] + 1000.0)])
        assert ask(table, broker, PANEL) == len(table.sent)
        assert consuming_held(table, PANEL) == []

    def test_queries_asked_once_and_selections_hold_nothing(self):
        table = Table(threshold=NEVER)
        broker = PinotBroker(table.controller)
        selection = PinotQuery("rides", select_columns=["ride_id"], limit=0)
        queries = [
            PinotQuery(
                table="rides",
                aggregations=[Aggregation("SUM", "amount")],
                filters=[Filter("amount", ">=", float(low))],
            )
            for low in range(0, 60, 10)
        ]
        for query in queries:
            burst(table, 12)
            ask(table, broker, query)
            ask(table, broker, query)  # a result-cache hit
        for __ in range(3):
            burst(table, 12)
            got = broker.execute(selection).rows
            assert sorted(r["ride_id"] for r in got) == sorted(
                r["ride_id"] for r in table.sent
            )
        for query in [*queries, selection]:
            assert consuming_held(table, query) == []

    def test_a_raise_stores_nothing_and_is_the_full_scans(self):
        server = PinotServer("s0")
        segment = MutableSegment("seg")
        for x in (1.0, 2.0):
            segment.append({"x": x})
        server.host_segment(segment)
        query = PinotQuery(
            table="t", aggregations=[Aggregation("AVG", "x"), Aggregation("SUM", "x")]
        )
        key = normalize_query(query)
        server.execute(query, ["seg"], None, key)
        covered, partial = server.scan_cache.get(("seg", key), segment.serial)
        segment.append({"x": 4.0})
        segment.append({"x": "a"})  # AVG folds 4.0, then cannot add "a"
        with pytest.raises(IncomparableError) as held_raise:
            server.execute(query, ["seg"], None, key)
        with pytest.raises(IncomparableError) as full_raise:
            execute_on_segment(segment, query)
        assert str(held_raise.value) == str(full_raise.value)
        assert server.scan_cache.get(("seg", key), segment.serial) == (covered, partial)
        assert partial.groups == {(): [[3.0, 2], 3.0]}


class TestInstanceChanges:
    def test_a_sealed_segment_replaces_the_consuming_entry_of_its_name(self):
        table = Table(threshold=10)
        broker = PinotBroker(table.controller)
        table.send(table.full_segments(per_partition=4))
        ask(table, broker, PANEL)
        table.send(table.full_segments(per_partition=2))
        ask(table, broker, PANEL)
        names = consuming_held(table, PANEL)
        assert len(names) == 4
        # Ten more rows per partition: each of those segments seals under
        # its name and a new consuming segment takes the next one.
        table.send(table.full_segments(per_partition=10))
        ask(table, broker, PANEL)
        key = normalize_query(PANEL)
        for name in names:
            hosts = [s for s in table.controller.servers if s.has_segment(name)]
            entries = [
                s.scan_cache.get((name, key), s.segments[name].serial) for s in hosts
            ]
            # The host the sealed segment was routed to holds its partial;
            # no host serves the consuming entry of its name any more.
            assert any(isinstance(e, PartialResult) for e in entries)
            assert all(e is None or isinstance(e, PartialResult) for e in entries)
        assert len(consuming_held(table, PANEL)) == 4
        ask(table, broker, PANEL)

    def test_a_restarted_owner_refolds_its_new_consuming_segment(self):
        # The owner restarts in place, keeping its cache: the partition's
        # consuming segment is reopened under the same name on the same
        # server, and refills from the committed offset.
        table = Table(threshold=NEVER)
        broker = PinotBroker(table.controller)
        for __ in range(2):
            burst(table)
            ask(table, broker, PANEL)
        pstate = table.state.ingestion.partitions[0]
        owner, lost = pstate.owner, pstate.consuming
        assert lost.name in consuming_held(table, PANEL)
        restarted = [
            p for p in table.state.ingestion.partitions.values() if p.owner is owner
        ]
        table.controller.kill_server(owner.name)
        table.controller.recover_server(owner.name, owner)
        owner.alive = True
        assert pstate.owner is owner and pstate.consuming.name == lost.name
        assert pstate.consuming is not lost
        # Mid-fill: three rows per partition re-read so far.
        table.state.ingestion.run_step(max_records_per_partition=3)
        ingested = ingested_rows(table.kafka, "rides", table.state)
        assert pstate.consuming.num_docs == 3 < lost.num_docs
        # The reopened segments refold their three docs from doc 0; the
        # others' held partials still cover every doc.
        assert ask(table, broker, PANEL, ingested) == 3 * len(restarted)
        table.state.ingestion.run_until_caught_up()
        ask(table, broker, PANEL)

    def test_column_lists_catch_up_and_a_reopened_instance_starts_empty(self):
        table = Table(threshold=NEVER)
        burst(table, 8)
        pstate = table.state.ingestion.partitions[0]
        lost = pstate.consuming
        seen = lost.num_docs
        assert lost.cells("amount", range(seen)) == [
            row["amount"] for row in lost.rows
        ]
        burst(table, 40)
        assert lost.num_docs > seen
        # Read, appended to, read again: every row, by range and by list.
        docs = range(lost.num_docs)
        assert lost.cells("amount", docs) == [row["amount"] for row in lost.rows]
        assert lost.cells("city", docs[::-2]) == [r["city"] for r in lost.rows[::-2]]
        owner = pstate.owner
        table.controller.kill_server(owner.name)
        table.controller.recover_server(owner.name, owner)
        owner.alive = True
        reopened = pstate.consuming
        assert reopened is not lost and reopened.name == lost.name
        assert reopened._columns == {}
        table.state.ingestion.run_step(max_records_per_partition=3)
        assert reopened.cells("amount", range(3)) == [
            row["amount"] for row in reopened.rows
        ]

    def test_a_doc_appended_during_a_fold_is_folded_by_the_next_ask(self):
        server = PinotServer("s0")
        segment = MutableSegment("seg")
        for x in range(4):
            segment.append({"x": float(x)})
        server.host_segment(segment)
        query = PinotQuery(
            table="t",
            aggregations=[Aggregation("SUM", "x")],
            filters=[Filter("x", ">=", 0.0)],
        )
        key = normalize_query(query)
        read = segment.cells

        def cells_while_a_row_lands(column, docs):
            del segment.cells
            segment.append({"x": 100.0})
            return read(column, docs)

        segment.cells = cells_while_a_row_lands
        (first,) = server.execute(query, ["seg"], None, key)
        assert first.groups[()] == [6.0]  # the docs there when it began
        (second,) = server.execute(query, ["seg"], None, key)
        assert second.groups[()] == [106.0]
        assert execute_on_segment(segment, query).groups == second.groups


class TestConsumingFoldBound:
    def test_an_evicted_consuming_entry_refolds_from_doc_zero(self):
        server = PinotServer("s0", scan_cache=EpochCache(4))
        query = PinotQuery(
            table="t",
            aggregations=[Aggregation("SUM", "x"), Aggregation("AVG", "x")],
            filters=[Filter("x", ">=", 0.0)],
        )
        key = normalize_query(query)
        segments = [MutableSegment(f"seg-{i}") for i in range(5)]
        for i, segment in enumerate(segments):
            segment.append({"x": 0.1 * i})
            server.host_segment(segment)

        def ask(i) -> tuple[list, int]:
            with measured() as perf:
                (partial,) = server.execute(query, [f"seg-{i}"], None, key)
                evals = perf.counts.get("pinot.filter_evals", 0)
            fresh = execute_on_segment(segments[i], query)
            assert partial.groups == fresh.groups
            assert partial.plan.docs_examined == segments[i].num_docs
            return partial.groups[()], evals

        for i in range(5):
            ask(i)
        cache = server.scan_cache
        assert len(cache) == 4 and cache.evictions == 1
        assert ("seg-0", key) not in cache
        for x in (0.7, 0.2):
            segments[0].append({"x": x})
            segments[1].append({"x": x})
        # seg-1 is still held: only its two new docs are evaluated;
        # seg-0 was evicted: all three of its docs are.
        assert ask(1)[1] == 2
        assert ask(0)[1] == 3
        assert ("seg-0", key) in cache and len(cache) == 4
