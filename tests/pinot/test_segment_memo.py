"""Work on a sealed segment is validated by the segment, not the table.

A server keeps a sealed segment's whole partial for a query the broker
asks again after ingest moved the table, so the repeat re-runs only the
consuming segments (and any sealed since); what a consuming segment
holds is ``test_consuming_fold.py``'s.  Every answer here is held to
``tests/reference/query.evaluate`` over every row the table ingested.
"""

from __future__ import annotations

import pytest

from repro.common import serde
from repro.common.clock import SimulatedClock
from repro.common.epochcache import EpochCache
from repro.common.errors import PinotError
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker, normalize_query
from repro.pinot.controller import PinotController
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.segment import ImmutableSegment
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore
from tests.pinot.fixtures import Table, ride
from tests.reference.query import evaluate, latest_per_key

#: A panel every segment answers (no filter prunes one), so each of its
#: server-side cache hits is one sealed segment's partial served.
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
    group_by=["city"],
    limit=0,
)


def burst(table: Table, count: int = 48) -> None:
    """Send and ingest ``count`` new rides: the table's epoch moves and,
    at a threshold of 10 per partition, segments seal."""
    start = len(table.sent)
    table.send([ride(start + i, float(start + i)) for i in range(count)])


def held(table: Table) -> list[dict]:
    return latest_per_key(table.sent, "ride_id") if table.upsert else table.sent


def sealed_names(table: Table) -> list[str]:
    return [
        name
        for pstate in table.state.ingestion.partitions.values()
        for name in pstate.sealed_segments
    ]


def memo_entries(table: Table, query: PinotQuery) -> list[str]:
    """Names of the sealed segments some server holds a partial of
    ``query`` for."""
    key = normalize_query(query)
    return [
        name
        for name in sealed_names(table)
        if any((name, key) in s.scan_cache for s in table.controller.servers)
    ]


def cache_totals(table: Table) -> tuple[int, int]:
    caches = [s.scan_cache for s in table.controller.servers]
    return sum(c.hits for c in caches), sum(c.invalidations for c in caches)


def assert_answers(table: Table, broker: PinotBroker, query: PinotQuery) -> list:
    rows = broker.execute(query).rows
    assert serde.encode(rows) == serde.encode(evaluate(query, held(table)))
    return rows


class TestPartialMemo:
    def test_panel_repeated_across_bursts_is_served_for_sealed_segments(self):
        table = Table(threshold=10)
        burst(table)
        broker = PinotBroker(table.controller)
        assert_answers(table, broker, PANEL)  # first ask: stores no partial
        assert memo_entries(table, PANEL) == []
        for round_ in range(3):
            burst(table)
            before = sealed_names(table)
            hits0, __ = cache_totals(table)
            assert_answers(table, broker, PANEL)
            hits1, __ = cache_totals(table)
            # The first repeat stores every sealed segment's partial; each
            # later one is served those, and stores the segments sealed
            # since.
            assert memo_entries(table, PANEL) == before
            if round_ == 0:
                assert hits1 == hits0
            else:
                assert hits1 - hits0 == len(stored)
            stored = before
        assert len(stored) >= 12  # the last repeat was served that many

    def test_distinct_queries_store_no_partial(self):
        table = Table(threshold=10)
        burst(table)
        broker = PinotBroker(table.controller)
        queries = [
            PinotQuery(
                table="rides",
                aggregations=[Aggregation("SUM", "amount")],
                filters=[Filter("amount", ">=", float(low))],
            )
            for low in range(0, 60, 10)
        ]
        for query in queries:
            assert_answers(table, broker, query)
            assert_answers(table, broker, query)  # a result-cache hit
            burst(table, 12)
        for query in queries:
            assert memo_entries(table, query) == []

    def test_upsert_table_never_memos(self):
        table = Table(threshold=10, upsert=True)
        burst(table)
        broker = PinotBroker(table.controller)
        for __ in range(3):
            assert_answers(table, broker, PANEL)
            burst(table, 12)
        assert memo_entries(table, PANEL) == []
        # Supersede a doc that sits in a sealed segment: the repeat shows
        # the new version, not the one a kept partial would have folded.
        old = table.sent[0]
        assert any(
            old["ride_id"] in segment.cells("ride_id", range(segment.num_docs))
            for server in table.controller.servers
            for name, segment in server.segments.items()
            if name in sealed_names(table)
        )
        before = assert_answers(table, broker, PANEL)
        table.send([dict(old, amount=old["amount"] + 1000.0)])
        after = assert_answers(table, broker, PANEL)
        assert serde.encode(after) != serde.encode(before)
        assert memo_entries(table, PANEL) == []

    def test_segment_rehosted_from_bytes_is_recomputed(self):
        table = Table(threshold=10)
        burst(table)
        broker = PinotBroker(table.controller)
        for __ in range(3):
            assert_answers(table, broker, PANEL)
            burst(table, 12)
        name = sealed_names(table)[0]
        hosts = [s for s in table.controller.servers if s.has_segment(name)]
        old = hosts[0].segments[name]
        rebuilt = ImmutableSegment.from_bytes(old.to_bytes())
        assert rebuilt.serial != old.serial
        for server in hosts:
            server.host_segment(rebuilt)
        burst(table, 12)
        __, invalidated0 = cache_totals(table)
        assert_answers(table, broker, PANEL)
        __, invalidated1 = cache_totals(table)
        assert invalidated1 > invalidated0
        assert name in memo_entries(table, PANEL)  # stored again, fresh

    def test_a_kept_partial_served_twice_answers_alike(self):
        # Two brokers each hold the panel from before the table moved, so
        # both are served the same kept partials at the same data.  Were
        # the broker's merge to write into a state it adopted from one,
        # the second answer would fold it twice.
        table = Table(threshold=10)
        burst(table)
        first, second = PinotBroker(table.controller), PinotBroker(table.controller)
        for __ in range(2):
            assert_answers(table, first, PANEL)
            assert_answers(table, second, PANEL)
            burst(table, 12)
        hits0, __ = cache_totals(table)
        one = assert_answers(table, first, PANEL)
        two = assert_answers(table, second, PANEL)
        assert cache_totals(table)[0] > hits0
        assert serde.encode(one) == serde.encode(two)


class TestPartialMemoBound:
    def test_full_cache_of_partials_evicts_least_recently_used(self):
        server = PinotServer("s0", scan_cache=EpochCache(4))
        for i in range(5):
            server.host_segment(ImmutableSegment(f"seg-{i}", {"x": [i, i + 1]}))
        query = PinotQuery(table="t", aggregations=[Aggregation("SUM", "x")])
        key = normalize_query(query)

        def ask(i):
            (partial,) = server.execute(query, [f"seg-{i}"], None, key)
            return partial.groups[()]

        for i in range(4):
            assert ask(i) == [float(2 * i + 1)]
        assert ask(0) == [1.0]  # a hit: seg-0 is now the most recent
        assert ask(4) == [9.0]
        cache = server.scan_cache
        assert len(cache) == 4 and cache.evictions == 1 and cache.hits == 1
        assert ("seg-0", key) in cache and ("seg-1", key) not in cache


class TestSegmentNamesAreTableScoped:
    SCHEMA = Schema(
        "t",
        (
            Field("x", FieldType.LONG, FieldRole.METRIC),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )

    def test_a_name_another_table_holds_is_refused(self):
        kafka = KafkaCluster("k", 1, clock=SimulatedClock())
        backup = PeerToPeerBackup(BlobStore())
        controller = PinotController([PinotServer("s0")], backup)
        for name in ("a", "b"):
            kafka.create_topic(name, TopicConfig(partitions=1, replication_factor=1))
            config = TableConfig(name, self.SCHEMA, time_column="ts", replicas=1)
            controller.create_realtime_table(config, kafka, name)
        controller.add_offline_segment("a", ImmutableSegment("seg-1", {"x": [1, 2, 3]}))
        other = ImmutableSegment("seg-1", {"x": [100]})
        with pytest.raises(PinotError, match="seg-1"):
            controller.add_offline_segment("b", other)
        answer = PinotBroker(controller).execute(
            PinotQuery(table="a", aggregations=[Aggregation("SUM", "x")])
        )
        assert answer.rows == [{"sum(x)": 6.0}]
        # The table that holds the name may still replace its own segment.
        controller.add_offline_segment("a", ImmutableSegment("seg-1", {"x": [4]}))
