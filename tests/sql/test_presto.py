import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import SqlPlanError
from repro.common.rng import seeded_rng
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.segment import IndexConfig
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.sql.presto.connector import (
    HiveConnector,
    MemoryConnector,
    PinotConnector,
)
from repro.sql.presto.engine import PrestoEngine
from repro.storage.blobstore import BlobStore
from repro.storage.hive import HiveMetastore

ROWS = [
    {"city": f"city-{i % 3}", "amount": float(i), "user": f"u{i % 7}"}
    for i in range(30)
]


@pytest.fixture
def memory_engine():
    return PrestoEngine({"t": MemoryConnector({"t": ROWS})})


class TestEngineBasics:
    def test_projection_and_filter(self, memory_engine):
        out = memory_engine.execute(
            "SELECT city, amount FROM t WHERE amount >= 28"
        )
        assert out.rows == [
            {"city": "city-1", "amount": 28.0},
            {"city": "city-2", "amount": 29.0},
        ]

    def test_star(self, memory_engine):
        out = memory_engine.execute("SELECT * FROM t LIMIT 2")
        assert len(out.rows) == 2
        assert set(out.rows[0]) == {"city", "amount", "user"}

    def test_aggregation_with_group_by(self, memory_engine):
        out = memory_engine.execute(
            "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM t GROUP BY city"
        )
        by_city = {r["city"]: r for r in out.rows}
        assert by_city["city-0"]["n"] == 10
        assert by_city["city-0"]["total"] == sum(
            r["amount"] for r in ROWS if r["city"] == "city-0"
        )

    def test_global_aggregation(self, memory_engine):
        out = memory_engine.execute("SELECT COUNT(*) AS n, AVG(amount) a FROM t")
        assert out.rows[0]["n"] == 30
        assert out.rows[0]["a"] == pytest.approx(14.5)

    def test_count_distinct(self, memory_engine):
        out = memory_engine.execute("SELECT COUNT(DISTINCT user) AS users FROM t")
        assert out.rows[0]["users"] == 7

    def test_having(self, memory_engine):
        out = memory_engine.execute(
            "SELECT user, COUNT(*) AS n FROM t GROUP BY user HAVING n > 4"
        )
        assert all(r["n"] > 4 for r in out.rows)
        assert len(out.rows) == 2  # u0, u1 appear 5 times

    def test_order_by_agg_alias(self, memory_engine):
        out = memory_engine.execute(
            "SELECT city, SUM(amount) AS total FROM t GROUP BY city "
            "ORDER BY total DESC LIMIT 1"
        )
        assert out.rows[0]["city"] == "city-2"

    def test_in_and_between(self, memory_engine):
        out = memory_engine.execute(
            "SELECT COUNT(*) AS n FROM t "
            "WHERE city IN ('city-0', 'city-1') AND amount BETWEEN 0 AND 9"
        )
        assert out.rows[0]["n"] == 7

    def test_subquery_in_from(self, memory_engine):
        out = memory_engine.execute(
            "SELECT COUNT(*) AS n FROM "
            "(SELECT city FROM t WHERE amount > 20) AS hot"
        )
        assert out.rows[0]["n"] == 9

    def test_unknown_table(self, memory_engine):
        with pytest.raises(SqlPlanError):
            memory_engine.execute("SELECT a FROM missing")

    def test_streaming_window_rejected(self, memory_engine):
        with pytest.raises(SqlPlanError):
            memory_engine.execute(
                "SELECT COUNT(*) FROM t GROUP BY TUMBLE(ts, 60)"
            )


class TestJoins:
    def _engine(self):
        users = [{"id": f"u{i}", "name": f"name-{i}"} for i in range(7)]
        return PrestoEngine(
            {
                "t": MemoryConnector({"t": ROWS}),
                "users": MemoryConnector({"users": users}),
            }
        )

    def test_hash_join_across_connectors(self):
        out = self._engine().execute(
            "SELECT u.name, COUNT(*) AS n FROM t o JOIN users u "
            "ON o.user = u.id GROUP BY u.name"
        )
        assert len(out.rows) == 7
        assert sum(r["n"] for r in out.rows) == 30
        assert out.stats.joined_rows == 30

    def test_join_with_qualified_filter(self):
        out = self._engine().execute(
            "SELECT o.amount FROM t o JOIN users u ON o.user = u.id "
            "WHERE o.city = 'city-0' ORDER BY o.amount LIMIT 3"
        )
        assert [r["amount"] for r in out.rows] == [0.0, 3.0, 6.0]


def build_pinot(rows_count=2000):
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("metrics", TopicConfig(partitions=4))
    producer = Producer(kafka, "svc", clock=clock)
    rng = seeded_rng(1)
    for i in range(rows_count):
        clock.advance(0.5)
        producer.send(
            "metrics",
            {"city": f"city-{rng.randrange(5)}",
             "amount": float(rng.randrange(100)), "ts": clock.now()},
            key=f"city-{i % 5}",
        )
    producer.flush()
    schema = Schema(
        "metrics",
        (
            Field("city", FieldType.STRING),
            Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)], PeerToPeerBackup(BlobStore())
    )
    state = controller.create_realtime_table(
        TableConfig("metrics", schema, time_column="ts",
                    index_config=IndexConfig(inverted=frozenset({"city"})),
                    segment_rows_threshold=500),
        kafka, "metrics",
    )
    state.ingestion.run_until_caught_up()
    return PinotBroker(controller)


class TestPinotPushdown:
    def test_full_pushdown_ships_only_results(self):
        broker = build_pinot()
        engine = PrestoEngine({"metrics": PinotConnector(broker, "full")})
        out = engine.execute(
            "SELECT city, SUM(amount) AS total FROM metrics "
            "WHERE city = 'city-1' GROUP BY city"
        )
        assert out.stats.pushed_aggregation
        assert out.stats.pushed_filters == 1
        assert out.stats.rows_transferred == 1

    def test_predicate_only_ships_matching_rows(self):
        broker = build_pinot()
        engine = PrestoEngine({"metrics": PinotConnector(broker, "predicate")})
        out = engine.execute(
            "SELECT city, SUM(amount) AS total FROM metrics "
            "WHERE city = 'city-1' GROUP BY city"
        )
        assert not out.stats.pushed_aggregation
        assert out.stats.pushed_filters == 1
        assert 1 < out.stats.rows_transferred < 2000

    def test_no_pushdown_ships_everything(self):
        broker = build_pinot()
        engine = PrestoEngine({"metrics": PinotConnector(broker, "none")})
        out = engine.execute(
            "SELECT city, SUM(amount) AS total FROM metrics "
            "WHERE city = 'city-1' GROUP BY city"
        )
        assert out.stats.rows_transferred == 2000

    def test_all_levels_agree_on_results(self):
        broker = build_pinot()
        results = []
        for level in ("none", "predicate", "full"):
            engine = PrestoEngine({"metrics": PinotConnector(broker, level)})
            out = engine.execute(
                "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM metrics "
                "GROUP BY city ORDER BY city LIMIT 10"
            )
            results.append(
                [(r["city"], r["n"], round(r["total"], 6)) for r in out.rows]
            )
        assert results[0] == results[1] == results[2]

    def test_invalid_pushdown_level(self):
        with pytest.raises(SqlPlanError):
            PinotConnector(build_pinot(10), "everything")


class TestHiveConnector:
    def _engine(self):
        metastore = HiveMetastore(BlobStore())
        schema = Schema(
            "h",
            (
                Field("city", FieldType.STRING),
                Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
            ),
        )
        table = metastore.create_table("h", schema)
        table.add_rows("p0", [{"city": "sf", "amount": float(i)} for i in range(10)])
        table.add_rows("p1", [{"city": "nyc", "amount": float(100 + i)} for i in range(10)])
        return PrestoEngine({"h": HiveConnector(metastore)})

    def test_scan_with_predicate(self):
        out = self._engine().execute(
            "SELECT COUNT(*) AS n FROM h WHERE amount >= 100"
        )
        assert out.rows[0]["n"] == 10

    def test_no_aggregation_pushdown(self):
        out = self._engine().execute(
            "SELECT city, COUNT(*) AS n FROM h GROUP BY city"
        )
        assert not out.stats.pushed_aggregation
        assert out.stats.rows_transferred == 20

    @pytest.mark.parametrize(
        "where", ["amount >= 100", "amount >= 100 AND city != 'sf'"]
    )
    def test_every_conjunct_prunes_files(self, where):
        # Parent commit: file stats pruned with exactly one filter and
        # never with two, and "rows examined" was a file count with one.
        out = self._engine().execute(f"SELECT city, amount FROM h WHERE {where}")
        assert [r["amount"] for r in out.rows] == [float(100 + i) for i in range(10)]
        assert {r["city"] for r in out.rows} == {"nyc"}
        assert (out.stats.files_scanned, out.stats.files_pruned) == (1, 1)
        assert out.stats.source_rows_examined == 10  # the rows of the file read
