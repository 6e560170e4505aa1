"""Rows are copied where they leave the query path, and nowhere before.

Below the two exits — ``PrestoEngine.execute`` and ``QueryResult.rows`` —
an answer shares its cells with the artifact stores, the broker's cache
and the sealed segments' dictionaries.  So the exits are what stands
between a caller and the table: whatever a caller does to rows it was
handed, a later query *of a different text* (no cache tier can answer it
from a clean copy) must still read what was ingested, and a repeat *of
the same text*, served whole from the stage artifact its first answer was
copied from, must answer what that artifact held.
"""

from __future__ import annotations

import copy

import pytest

from repro.common.perf import measured
from repro.pinot.broker import PinotBroker
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.table import TableConfig
from repro.platform import Platform
from repro.sql.presto.connector import MemoryConnector
from repro.sql.presto.engine import PrestoEngine
from tests.pinot.fixtures import SCHEMA, ingested_rows, ride
from tests.reference.query import canonical, evaluate, execute
from tests.pinot.test_selection_boundary import json_table, vandalize


def json_platform():
    """The ``json_table`` fixture's rows behind the facade: sealed and
    consuming segments, a JSON cell on most rows."""
    platform = Platform(seed=7).with_kafka().with_pinot().with_presto().topic("rides")
    platform.realtime_table(
        TableConfig("rides", SCHEMA, time_column="ts", segment_rows_threshold=20),
        topic="rides",
    )
    producer = platform.producer("svc")
    sent = [ride(i, float(i), with_json=True) for i in range(150)]
    for row in sent:
        producer.send("rides", copy.deepcopy(row), key=row["city"])
    producer.flush()
    for __ in range(3):
        platform.step(1.0)
    assert platform.pinot.table("rides").ingestion.lag() == 0
    return platform, sent


COLUMNS = ["ride_id", "payload"]
BY_RIDE = [("ride_id", False)]
MAX_PAYLOAD = Aggregation("MAX", "payload", "payload")

# (what the caller runs and vandalizes; a later query that shares no
#  row-shaped stage with it, so no artifact stored before the vandalism
#  can answer for the segments; that later query as the oracle reads it)
SQL_SHAPES = {
    "bare projection": (
        "SELECT ride_id, payload FROM rides",
        "SELECT ride_id, payload FROM rides WHERE amount >= 0",
        PinotQuery(
            "rides",
            select_columns=COLUMNS,
            filters=[Filter("amount", ">=", 0.0)],
            limit=0,
        ),
    ),
    "order by limit": (
        "SELECT ride_id, payload FROM rides ORDER BY ride_id LIMIT 20",
        "SELECT payload, ride_id FROM rides ORDER BY ride_id LIMIT 25",
        PinotQuery(
            "rides", select_columns=COLUMNS[::-1], order_by=BY_RIDE, limit=25
        ),
    ),
    "pushed-down aggregate": (
        "SELECT ride_id, MAX(payload) AS payload FROM rides GROUP BY ride_id",
        "SELECT ride_id, MAX(payload) AS payload, COUNT(*) AS n FROM rides "
        "GROUP BY ride_id ORDER BY ride_id",
        PinotQuery(
            "rides",
            aggregations=[MAX_PAYLOAD, Aggregation("COUNT", None, "n")],
            group_by=["ride_id"],
            order_by=BY_RIDE,
            limit=0,
        ),
    ),
}


def assert_answers(query: PinotQuery, got: list[dict], sent: list[dict]) -> None:
    expected = evaluate(query, sent)
    if query.order_by:
        assert got == expected
    else:
        assert canonical(got) == canonical(expected)


@pytest.mark.parametrize("shape", SQL_SHAPES)
def test_vandalized_sql_output_cannot_change_a_differently_worded_query(shape):
    first, later, later_query = SQL_SHAPES[shape]
    platform, sent = json_platform()
    vandalize(platform.sql(first).rows)  # a miss in every tier
    vandalize(platform.sql(first).rows)  # the root artifact, served
    assert_answers(later_query, platform.sql(later).rows, sent)


BROKER_SHAPES = {
    "pages": (
        dict(select_columns=COLUMNS, limit=0),
        dict(select_columns=COLUMNS[::-1], limit=0),
    ),
    "ordered rows": (
        dict(select_columns=COLUMNS, order_by=BY_RIDE, limit=20),
        dict(select_columns=COLUMNS, order_by=BY_RIDE, limit=25),
    ),
    "aggregate": (
        dict(aggregations=[MAX_PAYLOAD], group_by=["ride_id"], limit=0),
        dict(
            aggregations=[MAX_PAYLOAD],
            group_by=["ride_id"],
            order_by=BY_RIDE,
            limit=0,
        ),
    ),
}


@pytest.mark.parametrize("shape", BROKER_SHAPES)
def test_vandalized_broker_rows_cannot_change_a_different_query(shape):
    first, later = (PinotQuery("rides", **kw) for kw in BROKER_SHAPES[shape])
    table = json_table()
    broker = PinotBroker(table.controller)
    for expect_hit in (False, True):
        result = broker.execute(first)
        assert result.cache_hit is expect_hit
        vandalize(result.rows)
    # ``later`` was never asked: it is scanned from the segments now.
    answer = broker.execute(later)
    assert not answer.cache_hit
    assert_answers(later, answer.rows, table.sent)
    # And the entry the vandalized hit was served from is still right.
    again = broker.execute(first)
    assert again.cache_hit
    assert_answers(first, again.rows, table.sent)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM rides",
        "SELECT ride_id, payload FROM rides WHERE amount >= 0",
        "SELECT ride_id, payload FROM rides ORDER BY ride_id LIMIT 20",
    ],
)
def test_vandalized_output_cannot_reach_a_memory_connectors_table(sql):
    # The connector hands the engine its own rows; the engine's exit is
    # the only copy between them and the caller.
    held = [ride(i, float(i), with_json=True) for i in range(60)]
    pristine = copy.deepcopy(held)
    engine = PrestoEngine({"rides": MemoryConnector({"rides": held})})
    vandalize(engine.execute(sql).rows)
    vandalize(engine.execute(sql).rows)  # served from the stage artifacts
    assert held == pristine
    assert canonical(engine.execute("SELECT * FROM rides").rows) == canonical(
        pristine
    )


# Root shapes a repeat is served as: a row root of scalar cells, row roots
# with a JSON cell, and selections whose scan answers in column pages that
# the root stage turns into rows.
REPEAT_SHAPES = {
    "scalar rows": (
        "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM rides GROUP BY city"
    ),
    "rows with a JSON cell": (
        "SELECT ride_id, payload FROM rides ORDER BY ride_id LIMIT 20"
    ),
    "scalar selection over pages": "SELECT ride_id, city, amount FROM rides",
    "JSON selection over pages": (
        "SELECT ride_id, payload FROM rides WHERE amount >= 10"
    ),
}


@pytest.mark.parametrize("shape", REPEAT_SHAPES)
def test_a_same_text_repeat_is_isolated_from_what_the_caller_did(shape):
    sql = REPEAT_SHAPES[shape]
    platform, __ = json_platform()
    # The log's rows may share JSON cells with the segments: the model
    # reads a copy taken before any answer is handed out.
    held = copy.deepcopy(
        ingested_rows(platform.kafka, "rides", platform.pinot.table("rides"))
    )
    expected = execute(sql, {"rides": held})

    def agrees(rows: list[dict]) -> bool:
        if "ORDER BY" in sql:
            return rows == expected
        return canonical(rows) == canonical(expected)

    with measured() as perf:
        first = platform.sql(sql)
        adapted = perf.snapshot().get("columnar.rows_adapted", 0)
    assert first.stats.stage_artifact_hits == 0
    if "over pages" in shape:
        assert adapted == len(first.rows)
    assert agrees(first.rows)
    vandalize(first.rows)
    # The first repeat is served from the artifact the vandalized answer
    # was copied from; the second from the same artifact after its own
    # answer was vandalized too.
    for __ in range(2):
        again = platform.sql(sql)
        assert again.stats.stage_artifact_hits == 1
        assert again.stats.stages_executed == 0
        assert agrees(again.rows)
        vandalize(again.rows)
