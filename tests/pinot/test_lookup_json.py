"""Lookup joins and native JSON support (§4.3 current-work features)."""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import PinotError, QueryError
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.json_support import (
    build_flattener,
    execute_json_query,
    json_extract,
    parse_json_path,
)
from repro.pinot.lookupjoin import (
    DimensionTable,
    DimensionTableRegistry,
    LookupJoinSpec,
    execute_lookup_join,
)
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.segment import MutableSegment
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore


def fact_stack():
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("orders", TopicConfig(partitions=2))
    schema = Schema(
        "orders",
        (
            Field("restaurant_id", FieldType.STRING),
            Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(2)], PeerToPeerBackup(BlobStore())
    )
    state = controller.create_realtime_table(
        TableConfig("orders", schema, time_column="ts",
                    segment_rows_threshold=100),
        kafka, "orders",
    )
    producer = Producer(kafka, "svc", clock=clock)
    for i in range(200):
        clock.advance(1.0)
        producer.send(
            "orders",
            {"restaurant_id": f"rest-{i % 4}", "amount": float(i),
             "ts": clock.now()},
            key=f"rest-{i % 4}",
        )
    producer.flush()
    state.ingestion.run_until_caught_up()
    return PinotBroker(controller)


class TestDimensionTable:
    def test_upsert_and_lookup(self):
        table = DimensionTable("restaurants", "id")
        table.load([{"id": "rest-0", "name": "Rosa's", "city": "sf"}])
        table.upsert_row({"id": "rest-0", "name": "Rosa's Taqueria",
                          "city": "sf"})
        assert table.lookup("rest-0")["name"] == "Rosa's Taqueria"
        assert len(table) == 1

    def test_missing_key_column_rejected(self):
        with pytest.raises(PinotError):
            DimensionTable("d", "id").upsert_row({"name": "x"})

    def test_registry(self):
        registry = DimensionTableRegistry()
        registry.create("d", "id")
        with pytest.raises(PinotError):
            registry.create("d", "id")
        with pytest.raises(PinotError):
            registry.get("missing")


class TestLookupJoin:
    def _dim(self):
        dim = DimensionTable("restaurants", "id")
        dim.load(
            [
                {"id": f"rest-{i}", "name": f"Restaurant {i}",
                 "cuisine": "mexican" if i % 2 else "thai"}
                for i in range(3)  # rest-3 deliberately missing
            ]
        )
        return dim

    def test_enriches_group_by_results(self):
        broker = fact_stack()
        result = execute_lookup_join(
            broker,
            PinotQuery("orders",
                       aggregations=[Aggregation("SUM", "amount")],
                       group_by=["restaurant_id"], limit=10),
            LookupJoinSpec(self._dim(), join_column="restaurant_id"),
        )
        by_id = {r["restaurant_id"]: r for r in result.rows}
        assert by_id["rest-1"]["restaurants.name"] == "Restaurant 1"
        assert by_id["rest-1"]["restaurants.cuisine"] == "mexican"

    def test_left_join_semantics_on_miss(self):
        broker = fact_stack()
        result = execute_lookup_join(
            broker,
            PinotQuery("orders", aggregations=[Aggregation("COUNT")],
                       group_by=["restaurant_id"], limit=10),
            LookupJoinSpec(self._dim(), join_column="restaurant_id"),
        )
        missing = next(r for r in result.rows if r["restaurant_id"] == "rest-3")
        assert missing["restaurants.name"] is None
        assert missing["count(*)"] == 50  # fact rows preserved

    def test_column_selection_and_prefix(self):
        broker = fact_stack()
        result = execute_lookup_join(
            broker,
            PinotQuery("orders", aggregations=[Aggregation("COUNT")],
                       group_by=["restaurant_id"], limit=10),
            LookupJoinSpec(self._dim(), join_column="restaurant_id",
                           select=["name"], prefix="dim"),
        )
        row = result.rows[0]
        assert "dim.name" in row
        assert "dim.cuisine" not in row

    def test_missing_join_column_raises(self):
        broker = fact_stack()
        with pytest.raises(QueryError):
            execute_lookup_join(
                broker,
                PinotQuery("orders", aggregations=[Aggregation("COUNT")]),
                LookupJoinSpec(self._dim(), join_column="restaurant_id"),
            )


class TestJsonPath:
    def test_parse(self):
        assert parse_json_path("a.b[2].c") == ["a", "b", 2, "c"]

    @pytest.mark.parametrize("path", ["", "a..b", "a.[x]", "a.b!"])
    def test_malformed(self, path):
        with pytest.raises(QueryError):
            parse_json_path(path)

    def test_extract(self):
        payload = {"order": {"city": "sf", "items": [{"name": "taco"}]}}
        assert json_extract(payload, "order.city") == "sf"
        assert json_extract(payload, "order.items[0].name") == "taco"
        assert json_extract(payload, "order.missing") is None
        assert json_extract(payload, "order.items[5].name") is None
        assert json_extract("not-a-dict", "a.b") is None


class TestJsonQueries:
    def _segment(self):
        segment = MutableSegment("consuming")
        for i in range(100):
            segment.append(
                {
                    "payload": {
                        "order": {
                            "city": f"c{i % 3}",
                            "total": float(i),
                            "items": [{"name": "taco"}] * (i % 2 + 1),
                        }
                    }
                }
            )
        return segment

    def test_filter_and_group_on_nested_paths(self):
        partial = execute_json_query(
            self._segment(),
            "payload",
            PinotQuery(
                "t",
                aggregations=[Aggregation("COUNT"),
                              Aggregation("SUM", "order.total")],
                filters=[Filter("order.city", "=", "c1")],
                group_by=["order.city"],
            ),
        )
        states = partial.groups[("c1",)]
        assert states[0] == 33  # i % 3 == 1 for i in 0..99
        assert states[1] == sum(float(i) for i in range(100) if i % 3 == 1)

    def test_selection_with_paths(self):
        partial = execute_json_query(
            self._segment(),
            "payload",
            PinotQuery("t", select_columns=["order.city", "order.total"],
                       filters=[Filter("order.total", ">=", 98.0)]),
        )
        assert partial.page.to_rows() == [
            {"order.city": "c2", "order.total": 98.0},
            {"order.city": "c0", "order.total": 99.0},
        ]

    def test_json_query_is_a_scan(self):
        partial = execute_json_query(
            self._segment(), "payload",
            PinotQuery("t", aggregations=[Aggregation("COUNT")]),
        )
        assert partial.plan.docs_examined == 100
        assert partial.plan.access_paths == ["json-scan:payload"]


class TestFlattener:
    def test_flatten_matches_native_extraction(self):
        flatten = build_flattener(
            {"city": "order.city", "total": "order.total"}
        )
        payload = {"order": {"city": "sf", "total": 12.5}}
        assert flatten(payload) == {"city": "sf", "total": 12.5}

    def test_flattener_validates_paths_eagerly(self):
        with pytest.raises(QueryError):
            build_flattener({"x": "bad..path"})

    def test_flattened_rows_lose_unmapped_fields(self):
        """The rigidity: anything not in the mapping is gone downstream."""
        flatten = build_flattener({"city": "order.city"})
        out = flatten({"order": {"city": "sf", "tip": 3.0}})
        assert "tip" not in out and "order.tip" not in out
