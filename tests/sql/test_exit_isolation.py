"""Rows are copied where they leave the query path, and nowhere before.

Below the two exits — ``PrestoEngine.execute`` and ``QueryResult.rows`` —
an answer shares its cells with the artifact stores, the broker's cache
and the sealed segments' dictionaries.  So the exits are what stands
between a caller and the table: whatever a caller does to rows it was
handed, a later query *of a different text* (no cache tier can answer it
from a clean copy) must still read what was ingested.
"""

from __future__ import annotations

import copy

import pytest

from repro.pinot.broker import PinotBroker
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.table import TableConfig
from repro.platform import Platform
from tests.pinot.fixtures import SCHEMA, ride
from tests.pinot.reference import canonical, evaluate
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
