"""Segment pruning (zone maps, blooms, partitions) + broker result cache."""

from __future__ import annotations

import pytest

from repro.common import serde
from repro.common.clock import SimulatedClock
from repro.common.errors import PinotError
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer, hash_partitioner
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker, normalize_query
from repro.pinot.controller import PinotController
from repro.pinot.indexes import BloomFilter
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.segment import ImmutableSegment, IndexConfig, MutableSegment, ZoneMap
from repro.pinot.server import PinotServer
from repro.pinot.startree import StarTreeConfig
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore
from tests.pinot.fixtures import ingested_rows
from tests.reference.query import answers, latest_per_key

SCHEMA = Schema(
    "rides",
    (
        Field("city", FieldType.STRING),
        Field("ride_id", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


NUMERIC_SCHEMA = Schema(
    "rides",
    (
        Field("city_id", FieldType.INT),
        Field("ride_id", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


def build_stack(
    partitions=4,
    threshold=50,
    upsert=False,
    partition_column="city",
    bloom=("ride_id",),
    startree=None,
    schema=SCHEMA,
):
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("rides", TopicConfig(partitions=partitions))
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)], PeerToPeerBackup(BlobStore())
    )
    config = TableConfig(
        "rides",
        schema,
        time_column="ts",
        index_config=IndexConfig(bloom_filtered=frozenset(bloom)),
        startree_config=startree,
        upsert_enabled=upsert,
        primary_key="ride_id" if upsert else None,
        segment_rows_threshold=threshold,
        partition_column=partition_column if not upsert else None,
    )
    state = controller.create_realtime_table(config, kafka, "rides")
    return clock, kafka, controller, state


def produce_rides(kafka, clock, count, key_fn=None, city_fn=None):
    producer = Producer(kafka, "svc", clock=clock)
    for i in range(count):
        clock.advance(1.0)
        city = city_fn(i) if city_fn else f"city-{i % 8}"
        row = {
            "city": city,
            "ride_id": f"ride-{i:06d}",
            "amount": float(i % 100),
            "ts": clock.now(),
        }
        producer.send("rides", row, key=key_fn(i) if key_fn else city)
    producer.flush()


def assert_answers(broker, query, held):
    """Ask ``broker``; its rows must be the query model's over ``held``."""
    result = broker.execute(query)
    assert answers(result.rows, query, held), query
    return result


def segment_count(state) -> int:
    ingestion = state.ingestion
    return sum(len(ingestion.segments_of_partition(p)) for p in ingestion.partitions)


class TestZoneMap:
    def test_range_predicates(self):
        zone = ZoneMap(min_value=10, max_value=20, comparable=True)
        assert zone.may_match(Filter("c", "=", 15))
        assert not zone.may_match(Filter("c", "=", 25))
        assert zone.may_match(Filter("c", ">", 19))
        assert not zone.may_match(Filter("c", ">", 20))
        assert zone.may_match(Filter("c", ">=", 20))
        assert not zone.may_match(Filter("c", ">=", 21))
        assert zone.may_match(Filter("c", "<", 11))
        assert not zone.may_match(Filter("c", "<", 10))
        assert zone.may_match(Filter("c", "<=", 10))
        assert not zone.may_match(Filter("c", "<=", 9))
        assert zone.may_match(Filter("c", "BETWEEN", low=18, high=30))
        assert not zone.may_match(Filter("c", "BETWEEN", low=21, high=30))
        assert zone.may_match(Filter("c", "IN", values=(1, 15)))
        assert not zone.may_match(Filter("c", "IN", values=(1, 2)))

    def test_not_equal_prunes_only_constant_zones(self):
        constant = ZoneMap(min_value=7, max_value=7, comparable=True)
        assert not constant.may_match(Filter("c", "!=", 7))
        assert constant.may_match(Filter("c", "!=", 8))
        spread = ZoneMap(min_value=1, max_value=9, comparable=True)
        assert spread.may_match(Filter("c", "!=", 5))

    def test_all_null_zone_matches_nothing(self):
        zone = ZoneMap(has_null=True, all_null=True)
        assert not zone.may_match(Filter("c", "=", 1))
        assert not zone.may_match(Filter("c", "!=", 1))

    def test_mixed_types_and_incomparable_literals_never_prune(self):
        mixed = ZoneMap(has_null=False, all_null=False, comparable=False)
        assert mixed.may_match(Filter("c", "=", 1))
        typed = ZoneMap(min_value="a", max_value="z", comparable=True)
        assert typed.may_match(Filter("c", "=", 42))  # str vs int: benefit of the doubt

    def test_segment_builds_zone_maps_for_every_column(self):
        seg = MutableSegment("s", 0)
        seg.append({"city": "sf", "amount": 3.0, "ts": 1.0})
        seg.append({"city": "la", "amount": 9.0, "ts": 2.0})
        sealed = seg.seal()
        assert sealed.zone_maps["amount"] == ZoneMap(3.0, 9.0, False, False, True)
        assert sealed.zone_maps["city"].min_value == "la"
        assert sealed.zone_maps["city"].max_value == "sf"

    def test_null_handling_in_built_zone_maps(self):
        seg = MutableSegment("s", 0)
        seg.append({"a": None, "b": None})
        seg.append({"a": 5, "b": None})
        sealed = seg.seal()
        assert sealed.zone_maps["a"].has_null and not sealed.zone_maps["a"].all_null
        assert sealed.zone_maps["b"].all_null


class TestBloomFilter:
    def test_no_false_negatives(self):
        values = [f"ride-{i}" for i in range(500)] + [7, 7.5, None, True]
        bloom = BloomFilter.build(values)
        for v in values:
            if v is not None:
                assert bloom.might_contain(v)
        assert not bloom.might_contain(None)  # filters never match NULL

    def test_absent_values_mostly_excluded(self):
        bloom = BloomFilter.build([f"ride-{i}" for i in range(1000)])
        misses = sum(
            1 for i in range(1000) if not bloom.might_contain(f"other-{i}")
        )
        assert misses > 900  # ~1% expected false-positive rate

    def test_numeric_equality_classes_collapse(self):
        # 5 == 5.0 == True under Python equality; the bloom must not
        # report a false negative for any equal representation.
        bloom = BloomFilter.build([5])
        assert bloom.might_contain(5.0)
        bloom = BloomFilter.build([1])
        assert bloom.might_contain(True)

    def test_exotic_numeric_equality_classes_collapse(self):
        # Decimal(5) == 5 and Fraction(5, 1) == 5: any numbers.Number that
        # compares equal to a stored value must not be a false negative.
        from decimal import Decimal
        from fractions import Fraction

        bloom = BloomFilter.build([5])
        assert bloom.might_contain(Decimal(5))
        assert bloom.might_contain(Fraction(5, 1))
        big = BloomFilter.build([10**400])  # beyond float: exact-int path
        assert big.might_contain(10**400)
        assert big.might_contain(Decimal(10) ** 400)

    def test_unencodable_values_make_filter_opaque(self):
        bloom = BloomFilter.build(["a", object()])
        assert bloom.opaque
        assert bloom.might_contain("definitely-not-present")

    def test_payload_round_trip(self):
        bloom = BloomFilter.build(list(range(100)))
        restored = BloomFilter.from_payload(
            serde.decode(serde.encode(bloom.to_payload()))
        )
        assert restored == bloom


class TestSegmentSerialization:
    def test_pruning_metadata_survives_to_bytes(self):
        seg = MutableSegment("s", 2)
        for i in range(64):
            seg.append(
                {"city": f"c{i % 4}", "ride_id": f"r{i}", "amount": float(i),
                 "ts": float(i)}
            )
        sealed = seg.seal(
            index_config=IndexConfig(bloom_filtered=frozenset({"ride_id"})),
            time_column="ts",
        )
        restored = ImmutableSegment.from_bytes(sealed.to_bytes())
        assert restored.zone_maps == sealed.zone_maps
        assert restored.blooms == sealed.blooms
        assert restored.partition_id == 2
        filters = [Filter("ride_id", "=", "r63")]
        assert restored.may_match(filters) == sealed.may_match(filters)
        assert not restored.may_match([Filter("ride_id", "=", "nope")])
        assert not restored.may_match([Filter("amount", ">", 100.0)])


class TestBrokerPruning:
    def test_pruned_results_identical_with_segments_pruned(self):
        clock, kafka, controller, state = build_stack()
        produce_rides(kafka, clock, 600)
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller, clock=clock)
        held = ingested_rows(kafka, "rides", state)
        queries = [
            PinotQuery("rides", select_columns=["ride_id", "amount"],
                       filters=[Filter("ride_id", "=", "ride-000123")]),
            PinotQuery("rides", aggregations=[Aggregation("COUNT")],
                       filters=[Filter("ts", "BETWEEN", low=10.0, high=60.0)]),
            PinotQuery("rides", aggregations=[Aggregation("SUM", "amount")],
                       filters=[Filter("city", "=", "city-3")],
                       group_by=["city"]),
        ]
        saw_pruning = False
        for query in queries:
            result = assert_answers(broker, query, held)
            routed = result.segments_scanned + result.segments_pruned
            assert routed == segment_count(state)
            saw_pruning |= result.segments_pruned > 0
        assert saw_pruning

    def test_partition_pruning_uses_producer_hash(self):
        clock, kafka, controller, state = build_stack(partitions=4)
        produce_rides(kafka, clock, 400)
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller, clock=clock)
        query = PinotQuery(
            "rides",
            aggregations=[Aggregation("COUNT")],
            filters=[Filter("city", "=", "city-5")],
        )
        result = broker.execute(query)
        target = hash_partitioner("city-5", 4)
        expected = len(state.ingestion.segments_of_partition(target))
        # Only the owning partition's segments are scanned (zone maps may
        # prune within it, but never more than its own segment count).
        assert 0 < result.segments_scanned <= expected
        total = sum(
            len(state.ingestion.segments_of_partition(p))
            for p in state.ingestion.partitions
        )
        assert result.segments_pruned >= total - expected

    def test_partition_pruning_agrees_across_numeric_literal_types(self):
        # Rows keyed with *int* city ids; the executor matches 5 == 5.0 ==
        # True, so float/bool literals must still route to the partition
        # the int key hashed to instead of silently pruning it away.
        clock, kafka, controller, state = build_stack(
            partitions=4,
            schema=NUMERIC_SCHEMA,
            partition_column="city_id",
            bloom=(),
        )
        producer = Producer(kafka, "svc", clock=clock)
        for i in range(400):
            clock.advance(1.0)
            row = {
                "city_id": i % 8,
                "ride_id": f"ride-{i:06d}",
                "amount": float(i % 100),
                "ts": clock.now(),
            }
            producer.send("rides", row, key=row["city_id"])
        producer.flush()
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller, clock=clock)
        held = ingested_rows(kafka, "rides", state)
        for literal in (5, 5.0):
            query = PinotQuery(
                "rides",
                aggregations=[Aggregation("COUNT")],
                filters=[Filter("city_id", "=", literal)],
            )
            rows = assert_answers(broker, query, held).rows
            assert rows[0]["count(*)"] == 50
        bool_query = PinotQuery(
            "rides",
            aggregations=[Aggregation("COUNT")],
            filters=[Filter("city_id", "=", True)],  # True == city_id 1
        )
        rows = assert_answers(broker, bool_query, held).rows
        assert rows[0]["count(*)"] == 50
        in_query = PinotQuery(
            "rides",
            aggregations=[Aggregation("COUNT")],
            filters=[Filter("city_id", "IN", values=(5.0, 6))],
        )
        rows = assert_answers(broker, in_query, held).rows
        assert rows[0]["count(*)"] == 100

    def test_consuming_segments_never_pruned(self):
        clock, kafka, controller, state = build_stack(threshold=10_000)
        produce_rides(kafka, clock, 40)
        state.ingestion.run_until_caught_up()  # everything stays consuming
        broker = PinotBroker(controller, clock=clock)
        result = broker.execute(
            PinotQuery("rides", aggregations=[Aggregation("COUNT")],
                       filters=[Filter("amount", ">=", 0.0)])
        )
        assert result.rows[0]["count(*)"] == 40

    def test_upsert_pruning_preserves_latest_row_semantics(self):
        clock, kafka, controller, state = build_stack(
            upsert=True, bloom=(), threshold=25
        )
        # Each key written twice: the reread must only see version 2.
        producer = Producer(kafka, "svc", clock=clock)
        for version in (1, 2):
            for i in range(100):
                clock.advance(1.0)
                row = {
                    "city": f"city-{i % 8}",
                    "ride_id": f"ride-{i:04d}",
                    "amount": float(version),
                    "ts": clock.now(),
                }
                producer.send("rides", row, key=row["ride_id"])
        producer.flush()
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller, clock=clock)
        held = latest_per_key(ingested_rows(kafka, "rides", state), "ride_id")
        query = PinotQuery(
            "rides",
            select_columns=["ride_id", "amount"],
            filters=[Filter("ride_id", "=", "ride-0042")],
        )
        result = assert_answers(broker, query, held)
        assert result.rows == [{"ride_id": "ride-0042", "amount": 2.0}]
        assert result.segments_pruned > 0

    def test_offline_segments_prune_too(self):
        clock, kafka, controller, state = build_stack(threshold=10_000)
        produce_rides(kafka, clock, 10)
        state.ingestion.run_until_caught_up()
        batch = MutableSegment("batch-0", None)
        for i in range(50):
            batch.append({"city": "city-batch", "ride_id": f"b{i}",
                          "amount": 1.0, "ts": 0.5})
        controller.add_offline_segment("rides", batch.seal(time_column="ts"))
        broker = PinotBroker(controller, clock=clock)
        miss = broker.execute(
            PinotQuery("rides", aggregations=[Aggregation("COUNT")],
                       filters=[Filter("city", "=", "city-nowhere")])
        )
        assert miss.segments_pruned >= 1  # the offline segment was skipped
        hit = broker.execute(
            PinotQuery("rides", aggregations=[Aggregation("COUNT")],
                       filters=[Filter("city", "=", "city-batch")])
        )
        assert hit.rows[0]["count(*)"] == 50

    def test_startree_fast_path_agrees_under_pruning(self):
        tree = StarTreeConfig(dimensions=["city"], metrics=["amount"])
        clock, kafka, controller, state = build_stack(
            startree=tree, bloom=(), threshold=50
        )
        produce_rides(kafka, clock, 300)
        state.ingestion.run_until_caught_up()
        broker = PinotBroker(controller, clock=clock)
        query = PinotQuery(
            "rides",
            aggregations=[Aggregation("SUM", "amount"), Aggregation("COUNT")],
            filters=[Filter("city", "=", "city-2")],
            group_by=["city"],
        )
        assert_answers(broker, query, ingested_rows(kafka, "rides", state))


class TestResultCache:
    def make_broker(self, controller, clock):
        return PinotBroker(controller, clock=clock)

    def loaded_stack(self, **kwargs):
        clock, kafka, controller, state = build_stack(**kwargs)
        produce_rides(kafka, clock, 200)
        state.ingestion.run_until_caught_up()
        return clock, kafka, controller, state

    QUERY = PinotQuery(
        "rides",
        aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
        group_by=["city"],
    )

    def test_repeat_query_hits_cache_with_identical_rows(self):
        clock, kafka, controller, state = self.loaded_stack()
        broker = self.make_broker(controller, clock)
        first = broker.execute(self.QUERY)
        second = broker.execute(self.QUERY)
        assert not first.cache_hit and second.cache_hit
        assert second.servers_queried == 0 and second.segments_scanned == 0
        assert serde.encode(first.rows) == serde.encode(second.rows)
        assert broker.cache.hits == 1

    def test_cached_rows_are_isolated_copies(self):
        clock, kafka, controller, state = self.loaded_stack()
        broker = self.make_broker(controller, clock)
        broker.execute(self.QUERY).rows[0]["count(*)"] = -999
        again = broker.execute(self.QUERY)
        assert again.cache_hit
        assert all(row["count(*)"] != -999 for row in again.rows)

    def test_mutable_cells_cannot_poison_cache(self):
        # Scalar cells are shielded by the shallow per-row copy; rows with
        # mutable cells (JSON columns) must fall back to a deep copy so a
        # caller mutating a returned cell never corrupts later hits.
        schema = Schema(
            "rides",
            (
                Field("city", FieldType.STRING),
                Field("tags", FieldType.JSON),
                Field("ts", FieldType.DOUBLE, FieldRole.TIME),
            ),
        )
        clock, kafka, controller, state = build_stack(
            schema=schema, bloom=(), partition_column=None
        )
        producer = Producer(kafka, "svc", clock=clock)
        producer.send(
            "rides", {"city": "sf", "tags": ["x"], "ts": 1.0}, key="sf"
        )
        producer.flush()
        state.ingestion.run_until_caught_up()
        broker = self.make_broker(controller, clock)
        query = PinotQuery("rides", select_columns=["city", "tags"])
        broker.execute(query).rows[0]["tags"].append("poison")
        hit = broker.execute(query)
        assert hit.cache_hit
        assert hit.rows[0]["tags"] == ["x"]

    def test_ingest_invalidates(self):
        clock, kafka, controller, state = self.loaded_stack()
        broker = self.make_broker(controller, clock)
        before = broker.execute(self.QUERY)
        produce_rides(kafka, clock, 30)
        state.ingestion.run_until_caught_up()
        after = broker.execute(self.QUERY)
        assert not after.cache_hit
        assert sum(r["count(*)"] for r in after.rows) == sum(
            r["count(*)"] for r in before.rows
        ) + 30

    def test_segment_drop_invalidates(self):
        clock, kafka, controller, state = self.loaded_stack()
        broker = self.make_broker(controller, clock)
        broker.execute(self.QUERY)
        victim = state.ingestion.partitions[0].sealed_segments[0]
        controller.drop_segment("rides", victim)
        after = broker.execute(self.QUERY)
        assert not after.cache_hit
        assert sum(r["count(*)"] for r in after.rows) < 200

    def test_offline_load_invalidates(self):
        clock, kafka, controller, state = self.loaded_stack()
        broker = self.make_broker(controller, clock)
        broker.execute(self.QUERY)
        batch = MutableSegment("batch-0", None)
        batch.append({"city": "city-batch", "ride_id": "b0",
                      "amount": 1.0, "ts": 0.5})
        controller.add_offline_segment("rides", batch.seal(time_column="ts"))
        after = broker.execute(self.QUERY)
        assert not after.cache_hit
        assert any(r["city"] == "city-batch" for r in after.rows)

    def test_upsert_invalidates(self):
        clock, kafka, controller, state = build_stack(upsert=True, bloom=())
        producer = Producer(kafka, "svc", clock=clock)
        row = {"city": "sf", "ride_id": "r1", "amount": 1.0, "ts": 1.0}
        producer.send("rides", row, key="r1")
        producer.flush()
        state.ingestion.run_until_caught_up()
        broker = self.make_broker(controller, clock)
        query = PinotQuery("rides", aggregations=[Aggregation("SUM", "amount")])
        assert broker.execute(query).rows[0]["sum(amount)"] == 1.0
        producer.send("rides", {**row, "amount": 5.0}, key="r1")
        producer.flush()
        state.ingestion.run_until_caught_up()
        after = broker.execute(query)
        assert not after.cache_hit
        assert after.rows[0]["sum(amount)"] == 5.0

    def test_recovery_restart_invalidates(self):
        # 40-row seals leave rows in every consuming segment.
        clock, kafka, controller, state = self.loaded_stack(threshold=40)
        broker = self.make_broker(controller, clock)
        before = broker.execute(self.QUERY)
        victim = state.ingestion.partitions[0].owner.name
        controller.kill_server(victim)
        controller.recover_server(victim, PinotServer("replacement"))
        # The replacement reopens the victim's consuming segments at the
        # committed offset: their rows are gone until read again.
        after = assert_answers(broker, self.QUERY, ingested_rows(kafka, "rides", state))
        assert not after.cache_hit
        assert serde.encode(after.rows) != serde.encode(before.rows)

    @pytest.mark.parametrize("copies", [1, 2], ids=["from-store", "from-peer"])
    def test_recovery_rehosts_the_dead_servers_offline_segments(self, copies):
        # With one copy its only host dies and the segment store serves it.
        clock, kafka, controller, state = self.loaded_stack()
        batch = MutableSegment("batch-0", None)
        offline = [
            {"city": "city-batch", "ride_id": f"b{i}", "amount": float(i), "ts": 0.5}
            for i in range(3)
        ]
        for row in offline:
            batch.append(row)
        controller.add_offline_segment(
            "rides", batch.seal(time_column="ts"), copies=copies
        )
        while controller.backup.run_step():
            pass
        victim = state.offline_segments["batch-0"][1][0]
        controller.kill_server(victim.name)
        replacement = PinotServer("replacement")
        assert controller.recover_server(victim.name, replacement) >= 1
        hosts = state.offline_segments["batch-0"][1]
        assert victim not in hosts and replacement in hosts and len(hosts) == copies
        assert replacement.has_segment("batch-0")
        held = ingested_rows(kafka, "rides", state) + offline
        assert_answers(
            PinotBroker(controller, clock=clock),
            PinotQuery("rides", aggregations=[Aggregation("COUNT")]),
            held,
        )

    def test_drop_then_seal_back_to_the_same_counts_invalidates(self):
        # A drop, then enough rows to seal once more and refill the
        # consuming segment: every doc and segment count is back where it
        # was, over other rows; only the consuming segment's new instance
        # tells the table apart.
        clock, kafka, controller, state = self.loaded_stack(threshold=40)
        broker = self.make_broker(controller, clock)
        pstate = state.ingestion.partitions[0]

        def counts():
            return [
                (p.consuming.num_docs, len(p.sealed_segments))
                for p in state.ingestion.partitions.values()
            ]

        before = counts()
        assert before[0] == (10, 1)
        broker.execute(self.QUERY)
        oldest = pstate.sealed_segments[0]
        segment = pstate.owner.segments[oldest]
        dropped = {segment.row(doc)["ts"] for doc in range(segment.num_docs)}
        controller.drop_segment("rides", oldest)
        city = next(
            f"city-{i}" for i in range(8) if hash_partitioner(f"city-{i}", 4) == 0
        )
        produce_rides(kafka, clock, 40, city_fn=lambda i: city)
        state.ingestion.run_until_caught_up()
        assert counts() == before
        held = [
            row
            for row in ingested_rows(kafka, "rides", state)
            if row["ts"] not in dropped
        ]
        after = assert_answers(broker, self.QUERY, held)
        assert not after.cache_hit

    def test_offline_reload_under_the_same_name_invalidates(self):
        # Same name, same doc count, other rows: only the segment
        # instance tells the two loads apart.
        clock, kafka, controller, state = self.loaded_stack()
        broker = self.make_broker(controller, clock)

        def batch(amount):
            segment = MutableSegment("batch-0", None)
            rows = [
                {"city": "city-batch", "ride_id": f"b{i}", "amount": amount, "ts": 0.5}
                for i in range(2)
            ]
            for row in rows:
                segment.append(row)
            return segment.seal(time_column="ts"), rows

        held = ingested_rows(kafka, "rides", state)
        first, first_rows = batch(1.0)
        controller.add_offline_segment("rides", first)
        assert_answers(broker, self.QUERY, held + first_rows)
        assert broker.execute(self.QUERY).cache_hit
        second, second_rows = batch(7.0)
        controller.add_offline_segment("rides", second)
        after = assert_answers(broker, self.QUERY, held + second_rows)
        assert not after.cache_hit

    def test_distinct_queries_do_not_collide(self):
        clock, kafka, controller, state = self.loaded_stack()
        broker = self.make_broker(controller, clock)
        broker.execute(self.QUERY)
        other = PinotQuery(
            "rides",
            aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
            group_by=["city"],
            filters=[Filter("amount", ">=", 50.0)],
        )
        assert not broker.execute(other).cache_hit

    def test_filter_order_normalizes(self):
        filters_ab = [Filter("city", "=", "sf"), Filter("amount", ">", 1.0)]
        query_ab = PinotQuery("rides", filters=filters_ab,
                              select_columns=["ride_id"])
        query_ba = PinotQuery("rides", filters=list(reversed(filters_ab)),
                              select_columns=["ride_id"])
        assert normalize_query(query_ab) == normalize_query(query_ba)

    def test_unhashable_literals_bypass_cache(self):
        query = PinotQuery(
            "rides", select_columns=["ride_id"],
            filters=[Filter("city", "=", ["not", "hashable"])],
        )
        assert normalize_query(query) is None

    def test_lru_eviction_bounds_entries(self):
        clock, kafka, controller, state = self.loaded_stack()
        broker = PinotBroker(controller, clock=clock)
        broker.cache.capacity = 4
        for i in range(10):
            broker.execute(
                PinotQuery("rides", aggregations=[Aggregation("COUNT")],
                           filters=[Filter("amount", ">=", float(i))])
            )
        assert len(broker.cache) == 4
        assert broker.cache.evictions == 6


class TestDropSegment:
    def test_unknown_segment_raises(self):
        clock, kafka, controller, state = build_stack()
        with pytest.raises(PinotError):
            controller.drop_segment("rides", "nope")

    def test_drop_sealed_segment_unhosts_everywhere(self):
        clock, kafka, controller, state = build_stack()
        produce_rides(kafka, clock, 300)
        state.ingestion.run_until_caught_up()
        victim = state.ingestion.partitions[0].sealed_segments[0]
        controller.drop_segment("rides", victim)
        assert victim not in state.ingestion.partitions[0].sealed_segments
        assert not any(s.has_segment(victim) for s in controller.servers)


class TestQuerySpans:
    def test_broker_spans_carry_pruning_and_cache_attributes(self):
        from repro.observability.trace import SpanCollector

        clock, kafka, controller, state = build_stack()
        produce_rides(kafka, clock, 300)
        state.ingestion.run_until_caught_up()
        tracer = SpanCollector()
        broker = PinotBroker(controller, clock=clock, tracer=tracer)
        query = PinotQuery(
            "rides", aggregations=[Aggregation("COUNT")],
            filters=[Filter("ride_id", "=", "ride-000003")],
        )
        broker.execute(query)
        broker.execute(query)
        spans = tracer.spans("query", layer="pinot")
        assert len(spans) == 2
        miss, hit = spans
        assert miss.attrs["cache_hit"] is False
        assert miss.attrs["segments_pruned"] > 0
        assert miss.attrs["segments_scanned"] >= 1
        assert miss.attrs["servers"] >= 1
        assert hit.attrs["cache_hit"] is True
        assert hit.attrs["servers"] == 0
