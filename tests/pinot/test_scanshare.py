"""Sticky replica routing + the per-server scan-share cache."""

from __future__ import annotations

from repro.common import serde
from repro.common.clock import SimulatedClock
from repro.common.epochcache import EpochCache
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.scanshare import share_key, shared_resolution
from repro.pinot.segment import ImmutableSegment, IndexConfig
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore
from tests.reference.query import canonical, evaluate

SCHEMA = Schema(
    "rides",
    (
        Field("city", FieldType.STRING),
        Field("ride_id", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


def build_stack(records=200, threshold=40):
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("rides", TopicConfig(partitions=4, replication_factor=2))
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)], PeerToPeerBackup(BlobStore())
    )
    state = controller.create_realtime_table(
        TableConfig(
            "rides",
            SCHEMA,
            time_column="ts",
            index_config=IndexConfig(inverted=frozenset({"city"})),
            segment_rows_threshold=threshold,
            partition_column="city",
        ),
        kafka,
        "rides",
    )
    send_rides(clock, state, "ride", records)
    return clock, controller, state


def send_rides(clock, state, prefix, count, amount=None):
    """Produce and ingest ``count`` rides; returns the rows sent."""
    producer = Producer(state.ingestion.kafka, f"svc-{prefix}", clock=clock)
    rows = []
    for i in range(count):
        clock.advance(1.0)
        rows.append(
            {
                "city": f"city-{i % 6}",
                "ride_id": f"{prefix}-{i:06d}",
                "amount": float(i % 100) if amount is None else amount,
                "ts": clock.now(),
            }
        )
        producer.send("rides", rows[-1], key=rows[-1]["city"])
    producer.flush()
    state.ingestion.run_until_caught_up()
    return rows


def scan_totals(controller):
    hits = sum(s.scan_cache.hits for s in controller.servers)
    entries = sum(len(s.scan_cache) for s in controller.servers)
    return hits, entries


QUERIES = [
    PinotQuery(
        table="rides",
        aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
        filters=[Filter("amount", ">=", 40.0)],
    ),
    PinotQuery(
        table="rides",
        aggregations=[Aggregation("COUNT")],
        filters=[Filter("ts", "BETWEEN", low=20.0, high=150.0)],
    ),
    PinotQuery(
        table="rides",
        aggregations=[Aggregation("SUM", "amount")],
        filters=[
            Filter("city", "=", "city-2"),
            Filter("amount", ">=", 10.0),
        ],
        group_by=["city"],
    ),
    PinotQuery(
        table="rides",
        select_columns=["city", "amount"],
        filters=[Filter("amount", ">", 95.0)],
    ),
]


def ask(controller, query):
    """Each ask on a fresh broker: a repeat reaches the servers, not the
    broker's result cache."""
    return PinotBroker(controller).execute(query)


class TestScanShare:
    def test_repeat_predicate_is_served_from_cache(self):
        __, controller, __ = build_stack()
        first = ask(controller, QUERIES[0])
        hits0, entries0 = scan_totals(controller)
        assert hits0 == 0 and entries0 > 0  # cold: all resolutions stored
        second = ask(controller, QUERIES[0])
        hits1, __ = scan_totals(controller)
        assert hits1 > 0
        assert serde.encode(first.rows) == serde.encode(second.rows)
        # Evidence replay: hits report the same docs_examined as a scan.
        assert second.docs_examined() == first.docs_examined()

    def test_every_query_shape_agrees_with_plain_python_when_served(self):
        clock, controller, state = build_stack(records=0)
        rows = send_rides(clock, state, "ride", 200)
        for __round in range(3):
            for query in QUERIES:
                got = ask(controller, query).rows
                # (The selection's 8 matches fit its limit; their order
                # is the segments', which plain Python does not know.)
                assert canonical(got) == canonical(evaluate(query, rows))
        hits, __ = scan_totals(controller)
        assert hits > 0  # later rounds were served, not rescanned

    def test_epoch_advance_invalidates_and_stays_correct(self):
        clock, controller, state = build_stack(records=0)
        rows = send_rides(clock, state, "ride", 200)
        query = QUERIES[0]
        broker = PinotBroker(controller)  # one broker across the mutation
        before = broker.execute(query).rows
        ask(controller, query)  # warm the scan-share entries
        hits0, __ = scan_totals(controller)
        # Mutate the table: new rows shift every aggregate.
        rows += send_rides(clock, state, "late", 80, amount=99.0)
        after = ask(controller, query).rows
        assert serde.encode(after) != serde.encode(before)
        # Against plain Python over everything ingested: an entry stored
        # before the mutation can never leak into the fresh result.
        assert serde.encode(after) == serde.encode(evaluate(query, rows))
        # The sealed segments the mutation left alone were served.
        hits1, __ = scan_totals(controller)
        assert hits1 > hits0
        # Nor is the broker's answer from before the mutation served.
        again = broker.execute(query)
        assert not again.cache_hit
        assert serde.encode(again.rows) == serde.encode(after)
        # A segment rebuilt under the same name (as a fetch from the
        # segment store rebuilds one) is a new segment: its entries die.
        name = state.ingestion.partitions[0].sealed_segments[0]
        hosts = [s for s in controller.servers if s.has_segment(name)]
        rebuilt = ImmutableSegment.from_bytes(hosts[0].segments[name].to_bytes())
        for server in hosts:
            server.host_segment(rebuilt)
        again = ask(controller, query).rows
        assert serde.encode(again) == serde.encode(evaluate(query, rows))
        assert sum(s.scan_cache.invalidations for s in controller.servers) > 0

    def test_live_table_holds_one_entry_per_segment_and_predicate(self):
        # The validity token is checked on read, not folded into the key:
        # on a table that takes a row between every two queries, a
        # predicate's resolution on a sealed segment stays one entry, and
        # stays fresh, however often the table moves.
        clock, controller, state = build_stack(records=0, threshold=25)
        rows = send_rides(clock, state, "ride", 200)
        query = QUERIES[0]  # one shareable predicate
        for i in range(30):
            rows += send_rides(clock, state, f"live{i}", 1, amount=50.0)
            got = ask(controller, query).rows
            assert serde.encode(got) == serde.encode(evaluate(query, rows))
        sealed = sum(
            len(p.sealed_segments) for p in state.ingestion.partitions.values()
        )
        hits, entries = scan_totals(controller)
        assert sealed >= 4
        assert 0 < entries <= sealed * 1  # segments x distinct predicates
        # Every query followed a mutation, yet the sealed segments it left
        # alone were fresh.
        assert hits > 0

    def test_index_served_filters_bypass_the_cache(self):
        __, controller, __ = build_stack()
        inverted_only = PinotQuery(
            table="rides",
            aggregations=[Aggregation("COUNT")],
            filters=[Filter("city", "=", "city-1")],
        )
        ask(controller, inverted_only)
        ask(controller, inverted_only)
        hits, entries = scan_totals(controller)
        # Inverted-index lookups are cheaper than a cache hit: nothing
        # stored, nothing served.
        assert hits == 0 and entries == 0


class TestScanShareCacheUnit:
    class _Plan:
        def __init__(self):
            self.access_paths = []
            self.docs_examined = 0

    class _Segment:
        name = "seg-1"
        serial = 7

    @staticmethod
    def _scan(docs, examined):
        calls = []

        def resolve(segment, flt, plan):
            calls.append(flt)
            plan.access_paths.append(f"scan:{flt.column}")
            plan.docs_examined += examined
            return list(docs)

        return resolve, calls

    def test_hit_replays_plan_evidence(self):
        cache = EpochCache(16)
        flt = Filter("amount", ">=", 5.0)
        resolve, calls = self._scan([1, 4, 9], examined=50)
        cold = self._Plan()
        assert shared_resolution(cache, self._Segment, flt, cold, resolve) == [
            1, 4, 9,
        ]
        warm = self._Plan()
        served = shared_resolution(cache, self._Segment, flt, warm, resolve)
        assert served == [1, 4, 9] and len(calls) == 1  # not resolved again
        assert warm.access_paths == cold.access_paths == ["scan:amount"]
        assert warm.docs_examined == cold.docs_examined == 50
        served.append(99)  # what was served is the caller's own list
        again = shared_resolution(cache, self._Segment, flt, self._Plan(), resolve)
        assert again == [1, 4, 9]
        assert cache.stats()["hit_rate"] == 2 / 3  # one miss, two hits

    def test_keys_are_equality_canonical(self):
        a = share_key("seg-1", Filter("amount", ">=", 5))
        b = share_key("seg-1", Filter("amount", ">=", 5.0))
        assert a is not None and a == b
        assert share_key("seg-2", Filter("amount", ">=", 5.0)) != a
        assert share_key("seg-1", Filter("amount", ">", 5.0)) != a
        # An unencodable literal has no key: the filter resolves fresh.
        assert share_key("seg-1", Filter("amount", "=", object())) is None

    def test_lru_eviction_bounds_entries(self):
        cache = EpochCache(4)
        resolve, __ = self._scan([0], examined=1)
        for i in range(10):
            shared_resolution(
                cache, self._Segment, Filter("amount", ">=", float(i)),
                self._Plan(), resolve,
            )
        assert len(cache) == 4 and cache.evictions == 6
