"""A text is planned once per catalog.

``PrestoEngine.execute`` keeps the plan of each text it plans, valid while
the catalog holds the same ``(table, connector)`` pairs, and keeps no plan
that read a cardinality estimate.  Counted here by the texts the engine
hands to ``plan``: what is planned once, what is planned again, and what
is never kept.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import SqlParseError, SqlPlanError
from repro.kafka.producer import Producer
from repro.platform import Platform
from repro.sql.presto.connector import MemoryConnector, PinotConnector
from repro.sql.presto.engine import PLAN_CAPACITY, PrestoEngine
from tests.reference.query import execute
from tests.sql.test_planner import MEMORY, ROWS, USERS, build_pinot, memory_catalog


def counted_plans(engine: PrestoEngine) -> list[str]:
    """The text of every plan ``engine`` makes from now on."""
    planned: list[str] = []
    plan = engine.plan

    def counting(sql: str):
        planned.append(sql)
        return plan(sql)

    engine.plan = counting
    return planned


def ingest(kafka, state, clock: SimulatedClock, n: int) -> None:
    producer = Producer(kafka, "svc", clock=clock)
    for __ in range(n):
        clock.advance(0.5)
        producer.send(
            "metrics",
            {"city": "city-0", "amount": 1.0, "ts": clock.now()},
            key="city-0",
        )
    producer.flush()
    state.ingestion.run_until_caught_up()


class TestSingleTable:
    def test_a_repeated_text_plans_once_and_stays_right_across_ingest(self):
        clock, kafka, state, broker = build_pinot(rows_count=120)
        engine = PrestoEngine({"metrics": PinotConnector(broker, "full")})
        planned = counted_plans(engine)
        sql = "SELECT COUNT(*) AS n FROM metrics WHERE amount >= 0"
        first = engine.execute(sql)
        n0 = first.rows[0]["n"]
        again = engine.execute(sql)
        assert again.rows == first.rows and again.plan is first.plan
        ingest(kafka, state, clock, 10)
        out = engine.execute(sql)
        # The kept plan, fresh answers: the ingest bumped the table epoch,
        # so the artifact and the broker entry were not served.
        assert out.rows == [{"n": n0 + 10}] and out.plan is first.plan
        assert out.stats.stage_artifact_hits == 0
        assert planned == [sql]

    def test_explain_and_plan_always_plan(self):
        engine = PrestoEngine(memory_catalog())
        planned = counted_plans(engine)
        sql = "SELECT city FROM t LIMIT 1"
        engine.execute(sql)
        text = engine.explain(sql)
        assert engine.execute(sql).plan.explain() == text
        assert planned == [sql, sql]


class TestCatalogIsTheEpoch:
    SQL = "SELECT COUNT(*) AS n FROM t"

    def test_repointing_a_table_replans(self):
        platform = Platform().with_presto()
        platform.presto.catalog["t"] = MemoryConnector({"t": ROWS})
        planned = counted_plans(platform.presto)
        assert platform.sql(self.SQL).rows == [{"n": 30}]
        assert platform.sql(self.SQL).rows == [{"n": 30}]
        assert planned == [self.SQL]
        platform.presto.catalog["t"] = MemoryConnector({"t": ROWS[:5]})
        # The new connector's table epoch equals the old one's first epoch:
        # the answer is right only because an epoch is one connector's.
        assert platform.sql(self.SQL).rows == [{"n": 5}]
        assert planned == [self.SQL] * 2

    def test_adding_a_table_replans_every_text(self):
        catalog = memory_catalog()
        engine = PrestoEngine(catalog)
        planned = counted_plans(engine)
        other = "SELECT city FROM t WHERE amount > 25"
        for sql in (self.SQL, other, self.SQL, other):
            engine.execute(sql)
        assert planned == [self.SQL, other]
        catalog["more"] = MemoryConnector({"more": USERS})
        for sql in (self.SQL, other, self.SQL, other):
            engine.execute(sql)
        assert planned == [self.SQL, other] * 2


class TestWhatIsNeverKept:
    @pytest.mark.parametrize(
        "sql, error",
        [
            ("SELECT city FROM nowhere", SqlPlanError),
            ("SELECT city FROM t WHERE", SqlParseError),
        ],
    )
    def test_a_text_that_fails_to_plan_raises_on_every_ask(self, sql, error):
        engine = PrestoEngine(memory_catalog())
        planned = counted_plans(engine)
        for __ in range(3):
            with pytest.raises(error):
                engine.execute(sql)
        assert planned == [sql] * 3
        assert len(engine._plans) == 0

    def test_an_unknown_table_plans_once_it_is_registered(self):
        catalog = memory_catalog()
        engine = PrestoEngine(catalog)
        sql = "SELECT COUNT(*) AS n FROM late"
        with pytest.raises(SqlPlanError):
            engine.execute(sql)
        catalog["late"] = MemoryConnector({"late": USERS})
        assert engine.execute(sql).rows == [{"n": len(USERS)}]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT u.name FROM t o JOIN users u ON o.user = u.id",
            "SELECT COUNT(*) AS n FROM (SELECT u.name AS name FROM t o "
            "JOIN users u ON o.user = u.id) AS named",
        ],
    )
    def test_a_join_plans_on_every_ask(self, sql):
        catalog = memory_catalog()
        engine = PrestoEngine(catalog)
        planned = counted_plans(engine)
        for __ in range(3):
            assert engine.execute(sql).rows == execute(sql, MEMORY)
        assert planned == [sql] * 3
        assert len(engine._plans) == 0


def test_the_memo_holds_capacity_texts_and_the_oldest_replans():
    engine = PrestoEngine(memory_catalog())
    planned = counted_plans(engine)
    texts = [
        f"SELECT city FROM t WHERE amount > {i}" for i in range(PLAN_CAPACITY + 1)
    ]
    for sql in texts:
        engine.execute(sql)
    assert len(engine._plans) == PLAN_CAPACITY
    assert engine._plans.evictions == 1
    del planned[:]
    engine.execute(texts[-1])
    assert planned == []
    engine.execute(texts[0])
    assert planned == [texts[0]]
