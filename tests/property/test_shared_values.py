"""The query path's one rule, checked: a value is never written to after
it is produced.

Artifact stores, the broker's result cache and the engine's plan memo
keep the object they are given and hand the same object to everyone they
serve, so the rule is what keeps an entry true.  Here every value is
snapshotted (``deepcopy``) at the moment a cache stores it, random
sequences of queries — every stage operator, the three pushdown levels,
the broker asked directly — run over a JSON-bearing table, every answer
is vandalized by its caller, and then every stored value must still
equal its snapshot and every answer must have been right.  A plan is
shared with every caller of its text through ``QueryOutput.plan``, so it
is a value by type: every write a caller tries on one must raise.

``test_an_operator_that_writes_to_its_input_is_caught`` and
``test_a_plan_that_takes_a_write_is_caught`` are the checks on the
check: a scheduler mutated to sort its input in place, and a ``Stage``
that accepts assignment, must each fail it.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import pages_to_rows
from repro.pinot.broker import PinotBroker, QueryResult
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.sql.planner.physical import Stage
from repro.sql.planner.reference import ReferenceExecutor
from repro.sql.planner.rowops import order_rows
from repro.sql.planner.scheduler import StageScheduler
from repro.sql.presto import MemoryConnector, PinotConnector, PrestoEngine
from repro.sql.presto.engine import PlannedQuery
from tests.pinot.fixtures import CITIES
from tests.pinot.reference import canonical, evaluate
from tests.pinot.test_selection_boundary import json_table, vandalize

LEVELS = ("none", "predicate", "full")
ZONES = [
    {"city": city, "region": "west" if i % 2 else "east"}
    for i, city in enumerate(CITIES)
]
HOT = [Filter("amount", ">=", 50.0)]
BY_RIDE = [("ride_id", False)]

# (SQL, the PinotQuery that says the same or None, how to compare).  With
# a PinotQuery the oracle is ``tests/pinot/reference.py`` and the broker
# can be asked directly; without, the naive executor over a memory catalog
# of the rows sent.  ``exact``: the order is defined; ``any order``: it is
# not; ``some``: a bare LIMIT — any of the full answer's rows will do.
QUERIES = [
    (
        "SELECT ride_id, payload FROM rides",
        PinotQuery("rides", select_columns=["ride_id", "payload"], limit=0),
        "any order",
    ),
    (
        "SELECT ride_id, payload FROM rides WHERE amount >= 50",
        PinotQuery(
            "rides", select_columns=["ride_id", "payload"], filters=HOT, limit=0
        ),
        "any order",
    ),
    (
        "SELECT ride_id, MAX(payload) AS payload FROM rides GROUP BY ride_id",
        PinotQuery(
            "rides",
            aggregations=[Aggregation("MAX", "payload", "payload")],
            group_by=["ride_id"],
            limit=0,
        ),
        "any order",
    ),
    (
        "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM rides "
        "GROUP BY city ORDER BY total DESC, city LIMIT 5",
        PinotQuery(
            "rides",
            aggregations=[
                Aggregation("COUNT", None, "n"),
                Aggregation("SUM", "amount", "total"),
            ],
            group_by=["city"],
            order_by=[("total", True), ("city", False)],
            limit=5,
        ),
        "exact",
    ),
    (
        "SELECT city, COUNT(*) AS n FROM rides GROUP BY city HAVING n > 9",
        None,
        "any order",
    ),
    (
        "SELECT ride_id, payload FROM rides ORDER BY ride_id LIMIT 20",
        PinotQuery(
            "rides",
            select_columns=["ride_id", "payload"],
            order_by=BY_RIDE,
            limit=20,
        ),
        "exact",
    ),
    (
        "SELECT payload, city, ride_id FROM rides ORDER BY ride_id DESC",
        PinotQuery(
            "rides",
            select_columns=["payload", "city", "ride_id"],
            order_by=[("ride_id", True)],
            limit=0,
        ),
        "exact",
    ),
    (
        "SELECT ride_id, payload FROM rides LIMIT 7",
        PinotQuery("rides", select_columns=["ride_id", "payload"], limit=7),
        "some",
    ),
    (
        "SELECT r.ride_id AS ride_id, r.payload AS payload, z.region AS region "
        "FROM rides AS r JOIN zones AS z ON r.city = z.city",
        None,
        "any order",
    ),
    (
        "SELECT r.ride_id AS ride_id, r.payload AS payload, z.region AS region "
        "FROM rides AS r JOIN zones AS z ON r.city = z.city "
        "WHERE r.amount >= 50 ORDER BY ride_id",
        None,
        "exact",
    ),
    (
        "SELECT city, COUNT(*) AS n FROM (SELECT city, ride_id, payload "
        "FROM rides WHERE amount >= 50) AS hot GROUP BY city",
        None,
        "any order",
    ),
    (
        "SELECT ride_id, payload FROM (SELECT ride_id, payload, amount "
        "FROM rides WHERE amount >= 50) AS hot ORDER BY ride_id LIMIT 5",
        None,
        "exact",
    ),
]
STAGE_OPS = {
    "scan",
    "filter",
    "having",
    "aggregate",
    "project",
    "sort",
    "limit",
    "join",
}

# One step: which query, asked of which engine (or of the broker itself).
STEPS = [
    (index, asked)
    for index, (__, pinot_query, __) in enumerate(QUERIES)
    for asked in (*LEVELS, *(["broker"] if pinot_query is not None else []))
]


def answer_of(value) -> tuple:
    """What a stored value says, in a form ``==`` compares by content."""
    if isinstance(value, QueryResult):
        if value.pages is not None:
            return (pages_to_rows(value.pages),)
        return (value.shared_rows,)
    if isinstance(value, PlannedQuery):
        return (value.sql, value.logical, value.physical)
    return (value.as_rows(), value.aggregated, dataclasses.asdict(value.evidence))


# What a caller of ``PrestoEngine.execute`` might try on ``output.plan``.
PLAN_WRITES = {
    "PlannedQuery.sql": lambda plan: setattr(plan, "sql", "SELECT 1"),
    "PhysicalPlan.root": lambda plan: setattr(plan.physical, "root", 0),
    "Stage.key": lambda plan: setattr(plan.physical.stages[0], "key", "0" * 16),
    "stages.append": lambda plan: plan.physical.stages.append(None),
    "stages[0]": lambda plan: plan.physical.stages.__setitem__(0, None),
}


def vandalize_plan(plan: PlannedQuery) -> None:
    """Try every write of ``PLAN_WRITES``; each must be refused."""
    for what, write in PLAN_WRITES.items():
        try:
            write(plan)
        except (AttributeError, TypeError):  # FrozenInstanceError included
            continue
        raise AssertionError(f"a shared plan took a write to {what}")


class World:
    """The ``json_table`` rows behind one broker and one engine per
    pushdown level, every cache recording what it is given."""

    def __init__(self) -> None:
        self.table = json_table()
        self.broker = PinotBroker(self.table.controller)
        zones = MemoryConnector({"zones": ZONES})
        self.engines = {
            level: PrestoEngine(
                {"rides": PinotConnector(self.broker, level), "zones": zones}
            )
            for level in LEVELS
        }
        # Rows no cache has seen: the oracles' own.
        self.sent = copy.deepcopy(self.table.sent)
        self.reference = ReferenceExecutor(
            {
                "rides": MemoryConnector({"rides": self.sent}),
                "zones": MemoryConnector({"zones": copy.deepcopy(ZONES)}),
            }
        )
        self.stored: list[tuple] = []
        self.ops_run: set[str] = set()
        self.passed_through = False
        caches = [self.broker.cache]
        for engine in self.engines.values():
            caches += [*engine.scheduler._stores, engine._plans]
        for cache in caches:
            cache.put = self._recording(cache)

    def _recording(self, cache):
        put = cache.put

        def recording_put(key, epoch, value):
            put(key, epoch, value)
            snapshot = copy.deepcopy(answer_of(value))
            self.stored.append((cache, key, epoch, value, snapshot))

        return recording_put

    def expected(self, index: int) -> list[dict]:
        sql, pinot_query, __ = QUERIES[index]
        if pinot_query is not None:
            return evaluate(pinot_query, self.sent)
        return self.reference.execute(sql)

    def ask(self, index: int, asked: str) -> list[dict]:
        sql, pinot_query, __ = QUERIES[index]
        if asked == "broker":
            return self.broker.execute(pinot_query).rows
        output = self.engines[asked].execute(sql)
        stages = output.plan.physical.stages
        self.ops_run.update(stage.op for stage in stages)
        self.passed_through |= output.stats.pushed_aggregation
        vandalize_plan(output.plan)
        return output.rows

    def run(self, steps) -> None:
        for index, asked in steps:
            got = self.ask(index, asked)
            self.assert_right(index, got)
            vandalize(got)
        for cache, key, epoch, value, snapshot in self.stored:
            assert answer_of(value) == snapshot, f"{key!r} was written to"
            held = cache.get(key, epoch)
            assert held is None or answer_of(held) == snapshot, key

    def assert_right(self, index: int, got: list[dict]) -> None:
        sql, pinot_query, compare = QUERIES[index]
        expected = self.expected(index)
        if compare == "exact":
            assert got == expected, sql
        elif compare == "any order":
            assert canonical(got) == canonical(expected), sql
        else:
            full = canonical(
                evaluate(dataclasses.replace(pinot_query, limit=0), self.sent)
            )
            assert len(got) == min(pinot_query.limit, len(full)), sql
            assert all(row in full for row in canonical(got)), sql


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(STEPS), min_size=1, max_size=16))
def test_no_stored_value_is_written_to(steps):
    World().run(steps)


def test_every_operator_and_level_is_covered():
    world = World()
    world.run(STEPS + STEPS)  # the second pass is served: hits, vandalized too
    assert world.ops_run == STAGE_OPS
    assert world.passed_through  # the pass-through aggregate, at "full"
    assert world.broker.cache.stats()["hits"] > 0
    hits = [e.scheduler.artifact_stats()["hits"] for e in world.engines.values()]
    assert all(hits)
    assert all(e._plans.stats()["hits"] for e in world.engines.values())
    shapes = {type(value).__name__ for __, __, __, value, __ in world.stored}
    assert shapes == {"QueryResult", "StagePayload", "PlannedQuery"}


def test_an_operator_that_writes_to_its_input_is_caught(monkeypatch):
    execute = StageScheduler._execute

    def sorting_in_place(self, stage, input_stages, payloads):
        if stage.op == "sort" and payloads[0].pages is None:
            order_rows(list(stage.node.keys), payloads[0].rows)
        return execute(self, stage, input_stages, payloads)

    monkeypatch.setattr(StageScheduler, "_execute", sorting_in_place)
    with pytest.raises(AssertionError, match="was written to"):
        World().run(STEPS)


def test_a_plan_that_takes_a_write_is_caught(monkeypatch):
    # A Stage that accepts assignment, as it would if it were not frozen.
    monkeypatch.setattr(Stage, "__setattr__", object.__setattr__)
    with pytest.raises(AssertionError, match="took a write to Stage.key"):
        World().run(STEPS)
