"""The federated planner pipeline: typed capabilities, explain(),
pushdown correctness (including the projection-retention regressions),
join reordering, and the version-keyed stage artifact store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import hashring
from repro.common.clock import SimulatedClock
from repro.common.errors import SqlPlanError
from repro.common.rng import seeded_rng
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.platform import Platform
from repro.sql.planner.physical import Stage
from repro.sql.planner.scheduler import StageScheduler
from repro.sql.presto.connector import (
    CardinalityEstimate,
    ConnectorCapabilities,
    HiveConnector,
    MemoryConnector,
    PinotConnector,
    ScanRequest,
    resolve_capabilities,
)
from repro.sql.presto.engine import PrestoEngine
from repro.storage.blobstore import BlobStore
from repro.storage.hive import HiveMetastore
from tests.pinot.fixtures import ingested_rows
from tests.reference.query import execute

ROWS = [
    {"city": f"city-{i % 3}", "amount": float(i), "user": f"u{i % 7}"}
    for i in range(30)
]
USERS = [{"id": f"u{i}", "name": f"name-{i}"} for i in range(7)]
MEMORY = {"t": ROWS, "users": USERS}
HIVE = {
    "orders": [
        {
            "city": f"city-{i % 4}",
            "status": "ok" if i % 3 else "bad",
            "amount": float(i),
            "ts": float(100 - i),
        }
        for i in range(40)
    ],
    "cities": [
        {"city": f"city-{i}", "region": "west" if i < 2 else "east"} for i in range(4)
    ],
}


def memory_catalog():
    return {
        "t": MemoryConnector({"t": ROWS}),
        "users": MemoryConnector({"users": USERS}),
    }


def hive_catalog():
    metastore = HiveMetastore(BlobStore())
    orders_schema = Schema(
        "orders",
        (
            Field("city", FieldType.STRING),
            Field("status", FieldType.STRING),
            Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )
    metastore.create_table("orders", orders_schema).add_rows("p0", HIVE["orders"])
    cities_schema = Schema(
        "cities",
        (
            Field("city", FieldType.STRING),
            Field("region", FieldType.STRING),
        ),
    )
    metastore.create_table("cities", cities_schema).add_rows("p0", HIVE["cities"])
    connector = HiveConnector(metastore)
    return metastore, {"orders": connector, "cities": connector}


def build_pinot(rows_count=300, threshold=100):
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
                    segment_rows_threshold=threshold),
        kafka, "metrics",
    )
    state.ingestion.run_until_caught_up()
    return clock, kafka, state, PinotBroker(controller, clock=clock)


class TestTypedCapabilities:
    def test_contains_and_roundtrip(self):
        caps = ConnectorCapabilities(predicate=True, projection=True)
        assert "predicate" in caps and "projection" in caps
        assert "aggregation" not in caps and "nonsense" not in caps

        class Typed:
            name = "typed"

            def capabilities(self):
                return caps

        assert resolve_capabilities(Typed()) is caps

    def test_connector_without_estimate_plans_as_unknown(self):
        class NoEstimate:
            name = "bare"

            def capabilities(self):
                return ConnectorCapabilities()

            def version(self, table):
                return 1

            def scan(self, request):
                return MemoryConnector({"t": ROWS}).scan(
                    ScanRequest(table="t")
                )

        engine = PrestoEngine({"t": NoEstimate()})
        out = engine.execute("SELECT COUNT(*) AS n FROM t")
        assert out.rows == [{"n": 30}]

    def test_connector_estimates(self):
        memory = MemoryConnector({"t": ROWS})
        exact = memory.estimate(ScanRequest(table="t"))
        assert exact == CardinalityEstimate(30, True, "memory")
        filtered = memory.estimate(
            ScanRequest(table="t", filters=[_pf("city", "=", "city-0")])
        )
        assert not filtered.exact and 0 < filtered.rows < 30

    def test_memory_version_moves_and_missing_table_raises(self):
        memory = MemoryConnector({"t": ROWS})
        before = memory.version("t")
        memory.add_table("t", ROWS[:5])
        assert memory.version("t") == before + 1
        with pytest.raises(SqlPlanError):
            memory.version("missing")

    def test_resolve_rejects_garbage(self):
        class Bad:
            name = "bad"

            def capabilities(self):
                return ["predicate"]

        with pytest.raises(SqlPlanError):
            resolve_capabilities(Bad())

        class SetForm(Bad):
            def capabilities(self):
                return {"predicate"}  # the removed pre-typed form

        with pytest.raises(SqlPlanError, match="ConnectorCapabilities"):
            resolve_capabilities(SetForm())


def _pf(column, op, value):
    from repro.sql.presto.connector import PushedFilter

    return PushedFilter(column=column, op=op, value=value)


class TestExplain:
    def test_single_table_annotations(self):
        __, catalog = hive_catalog()
        engine = PrestoEngine(catalog)
        text = engine.explain(
            "SELECT city FROM orders WHERE amount >= 20 ORDER BY ts LIMIT 5"
        )
        assert "pushed-filters: amount >= 20" in text
        # Projection pushdown retains the ORDER BY column (ts) and the
        # selected column; the filter was pushed so amount is not needed.
        assert "pushed-columns: city, ts" in text
        assert "estimate: ~" in text
        assert "remote_scan" in text and "local_compute" in text

    def test_aggregation_pushdown_annotations(self):
        __, __, __, broker = build_pinot()
        engine = PrestoEngine({"metrics": PinotConnector(broker, "full")})
        text = engine.explain(
            "SELECT city, SUM(amount) AS total FROM metrics GROUP BY city"
        )
        assert "pushed-aggregation: [SUM(amount) AS total] group=[city]" in text
        assert "(pushed)" in text

    def test_byte_stable_across_identical_catalogs(self):
        sql = (
            "SELECT o.amount, c.region FROM orders o JOIN cities c "
            "ON o.city = c.city WHERE o.status = 'ok' ORDER BY o.ts LIMIT 7"
        )
        renderings = []
        for __ in range(2):
            __, catalog = hive_catalog()
            engine = PrestoEngine(catalog)
            renderings.append(engine.explain(sql))
        assert renderings[0] == renderings[1]
        # And stable when re-planned on the same engine.
        engine = PrestoEngine(hive_catalog()[1])
        assert engine.explain(sql) == engine.explain(sql)

    def test_query_output_carries_plan(self):
        engine = PrestoEngine(memory_catalog())
        out = engine.execute("SELECT city FROM t LIMIT 1")
        assert out.plan is not None
        assert out.plan.explain() == engine.explain("SELECT city FROM t LIMIT 1")

    def test_platform_explain(self):
        platform = Platform().with_presto()
        platform.presto.catalog["t"] = MemoryConnector({"t": ROWS})
        text = platform.explain("SELECT city FROM t WHERE amount > 5")
        assert "Logical plan:" in text and "Physical plan:" in text
        assert platform.sql("SELECT COUNT(*) AS n FROM t").rows == [{"n": 30}]


#: explain() text as it read before estimates were asked at render time
#: (taken from the commit before): sql -> (catalog builder, text).
GOLDEN_EXPLAINS = {
    "SELECT city, SUM(amount) AS total FROM metrics "
    "WHERE amount >= 20 GROUP BY city": (
        lambda: {"metrics": PinotConnector(build_pinot()[3], "full")},
        """\
Logical plan:
  Aggregate[group=[city] aggs=[SUM(amount) AS total]] (pushed)
    Scan[pinot:metrics AS metrics]
      pushed-filters: amount >= 20
      pushed-columns: amount, city
      pushed-aggregation: [SUM(amount) AS total] group=[city]
      estimate: ~150 rows (pinot-zonemaps)
Physical plan:
  s0 remote_scan scan[pinot:metrics AS metrics] key=d830450abc6d9d40
  s1 local_compute aggregate inputs=[s0] key=aa6f97375489d928
  root: s1""",
    ),
    "SELECT o.amount, c.region FROM orders o JOIN cities c ON o.city = c.city "
    "WHERE o.status = 'ok' ORDER BY o.ts LIMIT 7": (
        lambda: hive_catalog()[1],
        """\
Logical plan:
  Limit[7]
    Sort[ts ASC]
      Project[o.amount, c.region]
        Filter[o.status = 'ok']
          Join[base=o]
            Scan[hive:orders AS o]
              pushed-filters: status = 'ok'
              pushed-columns: amount, city, status, ts
              estimate: ~5 rows (hive-rowcount)
            On[o.city = c.city]
              Scan[hive:cities AS c]
                pushed-columns: city, region
                estimate: =4 rows (hive-rowcount)
Physical plan:
  s0 remote_scan scan[hive:orders AS o] key=c95d37d68e2d9090
  s1 remote_scan scan[hive:cities AS c] key=ee2cb00be2439f21
  s2 local_compute join[o * c] inputs=[s0, s1] key=2e00587467cde203
  s3 local_compute filter inputs=[s2] key=0660b21a991ddd68
  s4 local_compute project inputs=[s3] key=db61e4b23fdc8c0d
  s5 local_compute sort inputs=[s4] key=e9664902e5b87577
  s6 local_compute limit inputs=[s5] key=6d8caa4f34a76bcb
  root: s6""",
    ),
    "SELECT COUNT(*) AS n FROM (SELECT city FROM t WHERE amount > 20) AS hot": (
        memory_catalog,
        """\
Logical plan:
  Aggregate[group=[] aggs=[COUNT(*) AS n]]
    Subquery[AS hot]
      Project[city]
        Filter[amount > 20]
          Scan[memory:t AS t]
            estimate: =30 rows (memory)
Physical plan:
  s0 remote_scan scan[memory:t AS t] key=b917bf21065bfbe2
  s1 local_compute filter inputs=[s0] key=fe272c23aff29968
  s2 local_compute project inputs=[s1] key=c7d0abe71d8a5876 subquery-root
  s3 local_compute aggregate inputs=[s2] key=b5ef57cd5082efdd
  root: s3""",
    ),
}


def _count_calls(monkeypatch, owner, name) -> list:
    """Record the positional arguments of every call of ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestEstimatesAreAskedWhereRead:
    """Only the join reorderer compares cardinalities and only explain()
    prints them; for Pinot an estimate routes the whole scan."""

    @pytest.mark.parametrize("sql", list(GOLDEN_EXPLAINS))
    def test_explain_text_is_what_it_was(self, sql):
        catalog, text = GOLDEN_EXPLAINS[sql]
        platform = Platform().with_presto()
        platform.presto.catalog.update(catalog())
        assert platform.explain(sql) == text

    def test_single_table_plans_ask_nothing_joins_ask_once_per_side(self, monkeypatch):
        # "Per side" is per build side: the reorderer compares only the
        # joined tables, never the base table it starts from.
        asked = _count_calls(monkeypatch, MemoryConnector, "estimate")
        engine = PrestoEngine(memory_catalog())
        engine.execute("SELECT city FROM t WHERE amount > 5")
        assert asked == []
        join = "SELECT u.name FROM t o JOIN users u ON o.user = u.id"
        engine.execute(join)
        assert sorted(request.table for __, request in asked) == ["users"]
        del asked[:]
        # A join plan is never kept: the second execute asks again, since
        # the estimates may have moved since the first.
        engine.execute(join)
        assert sorted(request.table for __, request in asked) == ["users"]
        del asked[:]
        # explain() prints one per scan, asked when it renders.
        planned = engine.plan("SELECT city FROM t WHERE amount > 5")
        assert asked == []
        assert "estimate: =30 rows (memory)" in planned.explain()
        assert len(asked) == 1

    def test_kept_plan_explains_as_of_render_time(self):
        catalog = memory_catalog()
        out = PrestoEngine(catalog).execute("SELECT city FROM t LIMIT 1")
        assert "estimate: =30 rows" in out.plan.explain()
        catalog["t"].add_table("t", ROWS[:12])
        assert "estimate: =12 rows" in out.plan.explain()


class TestPlacementIsLookedUp:
    """Counts, not clocks: what a repeat query no longer re-derives."""

    def test_repeats_route_once_and_score_nothing(self, monkeypatch):
        # Every partition ends on a seal, so the 100 rows ingested below
        # leave room in each consuming segment.
        clock, kafka, state, broker = build_pinot(rows_count=600, threshold=60)
        producer = Producer(kafka, "svc", clock=clock)

        def sealed_count():
            return sum(
                len(p.sealed_segments) for p in state.ingestion.partitions.values()
            )

        sealed = sealed_count()
        assert sealed >= 8
        engine = PrestoEngine({"metrics": PinotConnector(broker, "full")})
        routed = _count_calls(monkeypatch, PinotBroker, "_route")
        scored = _count_calls(monkeypatch, hashring, "_score")
        sql = (
            "SELECT city, SUM(amount) AS total FROM metrics "
            "WHERE amount >= 20 GROUP BY city"
        )
        first = engine.execute(sql)
        # Every sealed segment has two live hosts: scored once, both of
        # them; plus each stage's two workers.
        assert len(routed) == 1 and len(scored) == 2 * sealed + 2 * 2
        del routed[:], scored[:]
        for repeat in range(100):
            # One ingested row the filter excludes, sealing nothing: the
            # table moved, so every repeat routes and scans again (through
            # the plan the first execute kept) and answers the same.
            clock.advance(0.5)
            producer.send(
                "metrics",
                {"city": "city-0", "amount": 0.0, "ts": clock.now()},
                key=f"city-{repeat % 5}",
            )
            producer.flush()
            assert state.ingestion.run_step() == 1
            out = engine.execute(sql)
            assert out.rows == first.rows and out.stats.stages_executed == 2
        assert sealed_count() == sealed
        assert len(routed) == 100  # 200 when planning asked for an estimate
        assert scored == []

    def test_join_asks_pinot_for_one_estimate(self, monkeypatch):
        __, __, __, broker = build_pinot()
        cities = [{"city": f"city-{i}", "region": f"r{i % 2}"} for i in range(5)]
        estimated = _count_calls(monkeypatch, PinotBroker, "estimate_rows")
        routed = _count_calls(monkeypatch, PinotBroker, "_route")

        def ask(sql):
            # A fresh broker each time, so no answer comes from its cache.
            engine = PrestoEngine(
                {
                    "metrics": PinotConnector(PinotBroker(broker.controller), "full"),
                    "cities": MemoryConnector({"cities": cities}),
                }
            )
            del estimated[:], routed[:]
            rows = engine.execute(sql).rows
            assert rows
            return sorted(rows, key=lambda row: (row["region"], row["amount"]))

        # Pinot as a build side: the estimate, the scan.
        built = ask(
            "SELECT c.region, m.amount FROM cities c JOIN metrics m "
            "ON c.city = m.city WHERE m.amount >= 90"
        )
        assert len(estimated) == 1 and len(routed) == 2
        # Pinot as the base side is never compared, so it only scans.
        based = ask(
            "SELECT c.region, m.amount FROM metrics m JOIN cities c "
            "ON m.city = c.city WHERE m.amount >= 90"
        )
        assert len(estimated) == 0 and len(routed) == 1
        assert based == built

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8),
        st.lists(st.text("0123456789abcdef", min_size=4, max_size=4), min_size=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stage_placement_is_fresh_however_the_pool_is_resized(
        self, pool_sizes, keys
    ):
        scheduler = StageScheduler({})
        stages = [
            Stage(i, "local_compute", "sort", (), None, key, ())
            for i, key in enumerate(keys)
        ]
        for size in pool_sizes:
            scheduler.workers = size
            for __probe_then_execute in range(2):
                for stage in stages:
                    assert scheduler._worker_for(stage) == hashring.pick(
                        stage.key, range(size)
                    )

    def test_resizing_the_pool_keeps_answers_and_refinds_artifacts(self):
        catalog = memory_catalog()
        engine = PrestoEngine(catalog, workers=2)
        sql = "SELECT city, SUM(amount) AS total FROM t GROUP BY city"
        expected = execute(sql, MEMORY)
        assert engine.execute(sql).rows == expected
        for size in (5, 1, 3):
            engine.scheduler.workers = size
            assert engine.execute(sql).rows == expected
        # Back at the size it was first computed under, the root's worker
        # is again the one that holds that artifact.
        engine.scheduler.workers = 2
        out = engine.execute(sql)
        assert out.rows == expected and out.stats.stages_executed == 0


class TestPlatformPushdown:
    """``with_presto(pushdown=...)`` governs every realtime table of the
    platform, whichever side of it the table was registered on."""

    SQL = "SELECT city, COUNT(*) AS n FROM metrics WHERE amount >= 50 GROUP BY city"

    def _platform(self, level: str, table_first: bool) -> Platform:
        platform = Platform(seed=3).with_kafka().with_pinot().topic("metrics")
        schema = Schema(
            "metrics",
            (
                Field("city", FieldType.STRING),
                Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
                Field("ts", FieldType.DOUBLE, FieldRole.TIME),
            ),
        )
        config = TableConfig("metrics", schema, time_column="ts")
        if table_first:
            platform.realtime_table(config, topic="metrics")
            platform.with_presto(pushdown=level)
        else:
            platform.with_presto(pushdown=level)
            platform.realtime_table(config, topic="metrics")
        producer = platform.producer("svc")
        for i in range(40):
            producer.send(
                "metrics",
                {"city": f"city-{i % 4}", "amount": float(i * 3), "ts": float(i)},
                key=f"city-{i % 4}",
            )
        producer.flush()
        platform.step(1.0)
        return platform

    @pytest.mark.parametrize("level", ["none", "predicate", "full"])
    def test_builder_order_does_not_matter(self, level):
        outputs = []
        for table_first in (True, False):
            platform = self._platform(level, table_first)
            assert platform.presto.catalog["metrics"].pushdown == level
            outputs.append(platform.sql(self.SQL))
        first, second = outputs
        assert first.rows == second.rows and len(first.rows) == 4
        assert first.plan.explain() == second.plan.explain()
        assert first.stats.pushed_filters == second.stats.pushed_filters
        assert first.stats.pushed_filters == (0 if level == "none" else 1)
        assert first.stats.pushed_aggregation is (level == "full")

    def test_unknown_level_is_rejected_for_registered_tables(self):
        platform = Platform().with_kafka().with_pinot().topic("metrics")
        schema = Schema("metrics", (Field("city", FieldType.STRING),))
        platform.realtime_table(TableConfig("metrics", schema), topic="metrics")
        with pytest.raises(SqlPlanError):
            platform.with_presto(pushdown="everything")


class TestProjectionRetention:
    """Regressions for the historical pushdown bug: pruning the scan must
    never drop join keys, ORDER BY columns or residual-filter columns."""

    def test_join_with_order_by_unselected_column(self):
        __, catalog = hive_catalog()
        engine = PrestoEngine(catalog)
        sql = (
            "SELECT c.region, o.amount FROM orders o JOIN cities c "
            "ON o.city = c.city WHERE o.status = 'ok' "
            "ORDER BY o.ts LIMIT 6"
        )
        out = engine.execute(sql)
        assert out.rows == execute(sql, HIVE)
        # The orders-side scan was pruned but kept the join key (city),
        # the ORDER BY column (ts) and the filter column (status).
        text = out.plan.explain()
        assert "pushed-columns: amount, city, status, ts" in text

    def test_single_table_order_by_selected_alias(self):
        __, catalog = hive_catalog()
        engine = PrestoEngine(catalog)
        sql = "SELECT city, amount FROM orders ORDER BY amount DESC LIMIT 3"
        out = engine.execute(sql)
        assert out.rows == execute(sql, HIVE)
        assert [r["amount"] for r in out.rows] == [39.0, 38.0, 37.0]

    def test_order_by_projected_away_column_matches_reference(self):
        # Engine semantics (inherited from the pre-planner engine): the
        # sort runs over *projected* rows, so ordering by a column the
        # SELECT list dropped is a stable no-op.  The planner must
        # reproduce that, not "fix" it — and the scan must still retain
        # the column so both paths see identical inputs.
        __, catalog = hive_catalog()
        engine = PrestoEngine(catalog)
        sql = "SELECT city FROM orders ORDER BY amount DESC LIMIT 3"
        out = engine.execute(sql)
        assert out.rows == execute(sql, HIVE)
        assert "pushed-columns: amount, city" in out.plan.explain()

    def test_order_by_an_aggregate_alias_asks_the_scan_for_no_such_column(self):
        # With a residual OR the aggregate stays engine-side; its ORDER BY
        # names the alias n, which no Pinot segment holds.
        __, kafka, state, broker = build_pinot()
        engine = PrestoEngine({"metrics": PinotConnector(broker, "full")})
        sql = (
            "SELECT city, COUNT(*) AS n FROM metrics WHERE city = 'city-2' "
            "OR amount < 5 GROUP BY city ORDER BY n DESC"
        )
        held = {"metrics": ingested_rows(kafka, "metrics", state)}
        assert engine.execute(sql).rows == execute(sql, held)
        assert "pushed-columns: amount, city" in engine.explain(sql)

    def test_join_with_residual_filter_column(self):
        __, catalog = hive_catalog()
        engine = PrestoEngine(catalog)
        # status appears only in the WHERE clause; amount only in ORDER BY.
        sql = (
            "SELECT c.region FROM orders o JOIN cities c ON o.city = c.city "
            "WHERE o.status = 'bad' ORDER BY o.amount LIMIT 4"
        )
        assert engine.execute(sql).rows == execute(sql, HIVE)


class TestJoinReordering:
    def test_smaller_build_side_goes_first_and_order_is_preserved(self):
        base = [{"k": i % 10, "j": i % 4, "v": float(i)} for i in range(50)]
        big = [{"k": i % 10, "b": f"b{i}"} for i in range(40)]
        small = [{"j": i, "s": f"s{i}"} for i in range(4)]
        tables = {"base": base, "big": big, "small": small}
        catalog = {name: MemoryConnector({name: rows}) for name, rows in tables.items()}
        engine = PrestoEngine(catalog)
        sql = (
            "SELECT b.v, x.b, s.s FROM base b "
            "JOIN big x ON b.k = x.k JOIN small s ON b.j = s.j "
            "ORDER BY b.v LIMIT 20"
        )
        text = engine.explain(sql)
        assert "exec-order=[s, x]" in text  # small build side first
        assert engine.execute(sql).rows == execute(sql, tables)

    def test_reordered_join_matches_reference_without_order_by(self):
        base = [{"k": i % 5, "j": i % 3, "v": float(i)} for i in range(30)]
        big = [{"k": i % 5, "b": f"b{i}"} for i in range(25)]
        small = [{"j": i, "s": f"s{i}"} for i in range(3)]
        tables = {"base": base, "big": big, "small": small}
        catalog = {name: MemoryConnector({name: rows}) for name, rows in tables.items()}
        engine = PrestoEngine(catalog)
        # No ORDER BY: row order itself must match syntactic nested-loop
        # execution even though the optimizer built `small` first.
        sql = (
            "SELECT b.v, x.b, s.s FROM base b "
            "JOIN big x ON b.k = x.k JOIN small s ON b.j = s.j"
        )
        assert "exec-order=[s, x]" in engine.explain(sql)
        assert engine.execute(sql).rows == execute(sql, tables)


    def test_a_null_join_key_joins_nothing(self):
        left = [{"k": None, "v": 1}, {"k": 1, "v": 2}]
        right = [{"k": None, "w": "x"}, {"k": 1.0, "w": "y"}]
        tables = {"a": left, "b": right}
        catalog = {name: MemoryConnector({name: rows}) for name, rows in tables.items()}
        sql = "SELECT x.v, y.w FROM a x JOIN b y ON x.k = y.k"
        expected = execute(sql, tables)
        assert expected == [{"v": 2, "w": "y"}]
        assert PrestoEngine(catalog).execute(sql).rows == expected


class TestStageArtifacts:
    def test_repeat_query_is_served_from_artifacts(self):
        engine = PrestoEngine(memory_catalog())
        sql = (
            "SELECT u.name, COUNT(*) AS n FROM t o JOIN users u "
            "ON o.user = u.id GROUP BY u.name ORDER BY n DESC LIMIT 3"
        )
        first = engine.execute(sql)
        assert first.stats.stage_artifact_hits == 0
        assert first.stats.stages_executed > 0
        second = engine.execute(sql)
        assert second.rows == first.rows
        assert second.stats.stages_executed == 0
        assert second.stats.stage_artifact_hits == 1  # served at the root
        # Evidence is carried by the artifact: stats still describe the work.
        assert second.stats.rows_transferred == first.stats.rows_transferred
        assert second.stats.joined_rows == first.stats.joined_rows

    def test_shared_subtree_across_different_queries(self):
        catalog = memory_catalog()
        engine = PrestoEngine(catalog)
        q1 = "SELECT city, SUM(amount) AS total FROM t GROUP BY city HAVING total > 10"
        q2 = "SELECT city, SUM(amount) AS total FROM t GROUP BY city HAVING total > 140"
        out1 = engine.execute(q1)
        out2 = engine.execute(q2)
        # q2 shares the scan+aggregate prefix with q1; only HAVING ran fresh.
        assert out2.stats.stage_artifact_hits >= 1
        assert out2.stats.stages_executed < out1.stats.stages_executed
        assert out1.rows == execute(q1, MEMORY)
        assert out2.rows == execute(q2, MEMORY)

    def test_memory_epoch_invalidates(self):
        catalog = memory_catalog()
        engine = PrestoEngine(catalog)
        sql = "SELECT COUNT(*) AS n FROM t"
        assert engine.execute(sql).rows == [{"n": 30}]
        catalog["t"].add_table("t", ROWS + [dict(ROWS[0])])
        out = engine.execute(sql)
        assert out.rows == [{"n": 31}]
        assert out.stats.stage_artifact_hits == 0

    def test_hive_version_invalidates(self):
        metastore, catalog = hive_catalog()
        engine = PrestoEngine(catalog)
        sql = "SELECT COUNT(*) AS n FROM orders"
        assert engine.execute(sql).rows == [{"n": 40}]
        metastore.table("orders").add_rows(
            "p1", [{"city": "city-0", "status": "ok", "amount": 1.0, "ts": 0.0}]
        )
        assert engine.execute(sql).rows == [{"n": 41}]

    def test_pinot_epoch_invalidates_on_ingest(self):
        clock, kafka, state, broker = build_pinot(rows_count=120)
        engine = PrestoEngine({"metrics": PinotConnector(broker, "full")})
        sql = "SELECT COUNT(*) AS n FROM metrics"
        n0 = engine.execute(sql).rows[0]["n"]
        producer = Producer(kafka, "svc", clock=clock)
        for i in range(10):
            clock.advance(0.5)
            producer.send(
                "metrics",
                {"city": "city-0", "amount": 1.0, "ts": clock.now()},
                key="city-0",
            )
        producer.flush()
        state.ingestion.run_until_caught_up()
        out = engine.execute(sql)
        assert out.rows[0]["n"] == n0 + 10
        assert out.stats.stage_artifact_hits == 0

    def test_served_rows_are_isolated_from_caller_mutation(self):
        engine = PrestoEngine(memory_catalog())
        sql = "SELECT city, amount FROM t ORDER BY amount LIMIT 2"
        first = engine.execute(sql)
        first.rows[0]["city"] = "vandalized"
        second = engine.execute(sql)
        assert second.rows[0]["city"] == "city-0"

    def test_subquery_stage_shared_with_standalone_query(self):
        catalog = memory_catalog()
        engine = PrestoEngine(catalog)
        inner = "SELECT city FROM t WHERE amount > 20"
        engine.execute(inner)
        out = engine.execute(f"SELECT COUNT(*) AS n FROM ({inner}) AS hot")
        assert out.rows == [{"n": 9}]
        # The inner block's stages were served from the standalone run.
        assert out.stats.stage_artifact_hits >= 1
