"""A selection is pages from the segment scan to the result boundary and
row dicts exactly once, there.  For every kind of table and every
selection shape, ``QueryResult.rows``, the pages where a result exposes
them and a plain-Python evaluation must agree — on a fresh scan, on a
cache hit, and after the caller vandalized an earlier answer."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.columnar import pages_to_rows
from repro.pinot.broker import PinotBroker
from repro.pinot.query import Filter, PinotQuery
from repro.pinot.table import TableConfig
from repro.platform import Platform
from tests.pinot.fixtures import SCHEMA, Table, ride
from tests.reference.query import canonical, evaluate, latest_per_key

COLUMNS = ["ride_id", "city", "amount", "payload"]
ORDER = [("amount", True), ("ride_id", False)]  # total: ride ids are unique
SHAPES = {
    "plain": dict(limit=0),
    "ordered": dict(order_by=ORDER, limit=0),
    "limited": dict(limit=7),
    "ordered and limited": dict(order_by=ORDER, limit=7),
    "filtered to nothing": dict(filters=[Filter("amount", "<", -1.0)], limit=0),
}


def sealed_table():
    table = Table(threshold=20)
    table.send(table.full_segments(per_partition=40))
    assert table.sealed_segments() == 8 and table.consuming_docs() == 0
    return table


def consuming_table():
    table = Table(threshold=10_000)
    table.send(table.rides(90))
    assert table.sealed_segments() == 0 and table.consuming_docs() == 90
    return table


def mixed_table():
    table = Table(threshold=20)
    table.send(table.rides(150))
    assert table.sealed_segments() > 0 and table.consuming_docs() > 0
    return table


def upsert_table():
    table = Table(threshold=20, upsert=True)
    rows = table.rides(60)
    for version in (1, 2):  # every ride is re-sent twice with a new amount
        rows += [
            dict(row, amount=row["amount"] + 100.0 * version, ts=row["ts"] + version)
            for row in rows[:60]
        ]
    table.send(rows)
    assert table.sealed_segments() > 0 and table.consuming_docs() > 0
    return table


def json_table():
    # Past the threshold: on the parent commit the first seal died with
    # "TypeError: unhashable type: 'dict'" inside run_step.
    table = Table(threshold=20)
    table.send(table.rides(150, with_json=True))
    assert table.sealed_segments() > 0 and table.consuming_docs() > 0
    assert sum(1 for row in table.sent if row["payload"] is not None) > 100
    return table


TABLES = {
    "sealed": sealed_table,
    "consuming": consuming_table,
    "mixed": mixed_table,
    "upsert": upsert_table,
    "json": json_table,
}


def visible(table) -> list[dict]:
    return latest_per_key(table.sent, "ride_id") if table.upsert else table.sent


def assert_answers(query, result, rows) -> None:
    """``result`` is a right answer to ``query`` over ``rows``."""
    expected = evaluate(query, rows)
    got = result.rows
    assert result.rows is got  # one list, however often it is read
    assert result.num_rows() == len(got)
    if query.order_by:
        assert got == expected
    elif not query.limit:
        assert canonical(got) == canonical(expected)
    else:
        # Which rows a bare LIMIT keeps is the segments' business; they
        # must be rows of the full answer, and as many as it allows.
        full = canonical(evaluate(dataclasses.replace(query, limit=0), rows))
        assert len(got) == min(query.limit, len(full))
        assert all(row in full for row in canonical(got))
    if result.pages is not None:
        assert pages_to_rows(result.pages) == got
    else:
        assert query.order_by or query.limit  # only these need rows early


def vandalize(rows: list[dict]) -> None:
    for row in rows:
        if isinstance(row.get("payload"), dict):
            row["payload"]["tags"].append("poison")
            row["payload"]["meta"]["tier"] = "poison"
        row["city"] = "vandalized"
        row["extra"] = 1
    if rows:
        rows.pop()
    rows.append({"ride_id": "forged"})


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", TABLES)
def test_rows_pages_and_plain_python_agree(kind, shape):
    table = TABLES[kind]()
    broker = PinotBroker(table.controller)
    query = PinotQuery("rides", select_columns=COLUMNS, **SHAPES[shape])
    fresh = broker.execute(query)
    assert not fresh.cache_hit
    assert_answers(query, fresh, visible(table))
    # The table moves on: the next answer is scanned again and sees it.
    table.send(table.rides(30, with_json=kind == "json"))
    moved = broker.execute(query)
    assert not moved.cache_hit
    assert_answers(query, moved, visible(table))
    # A caller doing its worst to one answer cannot change the next one,
    # which is a cache hit: same rows, in the same order.
    first = broker.execute(query)
    untouched = copy.deepcopy(first.rows)
    vandalize(first.rows)
    if first.pages is not None:
        first.pages.clear()
    hit = broker.execute(query)
    assert hit.cache_hit
    assert hit.rows == untouched
    assert_answers(query, hit, visible(table))


@pytest.mark.parametrize("kind", TABLES)
def test_select_star_reads_every_column(kind):
    table = TABLES[kind]()
    query = PinotQuery("rides", limit=0)
    result = PinotBroker(table.controller).execute(query)
    assert result.pages is not None
    assert_answers(query, result, visible(table))
    assert set(result.rows[0]) == set(SCHEMA.field_names())


def test_json_column_survives_seal_through_the_facade():
    platform = (
        Platform(seed=7).with_kafka().with_pinot().with_presto().topic("rides")
    )
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
        platform.step(1.0)  # seals mid-step: must not raise
    state = platform.pinot.table("rides")
    assert state.ingestion.lag() == 0
    sealed = sum(len(p.sealed_segments) for p in state.ingestion.partitions.values())
    consuming = sum(p.consuming.num_docs for p in state.ingestion.partitions.values())
    assert sealed > 0 and consuming > 0
    expected = [{"ride_id": r["ride_id"], "payload": r["payload"]} for r in sent]
    output = platform.sql("SELECT ride_id, payload FROM rides")
    assert canonical(output.rows) == canonical(expected)
    again = platform.sql("SELECT ride_id, payload FROM rides ORDER BY ride_id LIMIT 20")
    assert again.rows == sorted(expected, key=lambda r: r["ride_id"])[:20]
    direct = platform.broker.execute(
        PinotQuery("rides", select_columns=["ride_id", "payload"], limit=0)
    )
    assert canonical(direct.rows) == canonical(expected)
    # A sealed segment keeps one stored value per distinct JSON cell and
    # survives its archival round trip.
    server = next(s for s in platform.pinot.servers if s.hosted_disk_bytes())
    segment = next(
        s for s in server.segments.values() if hasattr(s, "to_bytes")
    )
    assert segment.forward["payload"].cardinality() < segment.num_docs
    restored = type(segment).from_bytes(segment.to_bytes())
    assert [restored.row(d) for d in range(restored.num_docs)] == [
        segment.row(d) for d in range(segment.num_docs)
    ]
