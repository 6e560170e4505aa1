"""Pushdown is a pure optimization.

The same SQL over the same Pinot table must answer the same rows whether
Presto pushes nothing, the predicates, or everything down — and those
rows must be what ``PinotBroker.execute`` answers for the equivalent
``PinotQuery`` and what a plain-Python evaluation of it says.  The
fixtures carry what SQL semantics are about: NULL metric cells, a city
whose metric is NULL throughout, a NULL dimension cell, a NaN.

One more axis, "one dialect, two engines": the same ``GROUP BY TUMBLE``
aggregate compiled by FlinkSQL over a Hive slice of the rows (Kappa+)
agrees, window by window, with Presto over the landed table.
"""

from __future__ import annotations

import pytest

from repro.common.errors import IncomparableError, ReproError
from repro.common.rng import seeded_rng
from repro.flink.runtime import JobRuntime
from repro.metadata.schema import Field, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.sql.flinksql import FlinkSqlCompiler, HiveTableDef
from repro.sql.presto import (
    HiveConnector,
    MemoryConnector,
    PinotConnector,
    PrestoEngine,
)
from repro.storage.blobstore import BlobStore
from repro.storage.hive import HiveMetastore
from tests.pinot.fixtures import ALL_NULL_CITY, SCHEMA, Table
from tests.reference.query import evaluate, latest_per_key

SEED = 20
LEVELS = ("none", "predicate", "full")

# (SQL select item, the Pinot aggregation it pushes down as).
AGGREGATES = [
    ("COUNT(*)", Aggregation("COUNT")),
    ("COUNT(amount)", Aggregation("COUNT", "amount")),
    ("COUNT(DISTINCT amount)", Aggregation("DISTINCTCOUNT", "amount")),
    ("SUM(amount)", Aggregation("SUM", "amount")),
    ("AVG(amount)", Aggregation("AVG", "amount")),
    ("MIN(amount)", Aggregation("MIN", "amount")),
    ("MAX(amount)", Aggregation("MAX", "amount")),
    ("MIN(city)", Aggregation("MIN", "city")),
    ("MAX(ride_id)", Aggregation("MAX", "ride_id")),
]
# ORDER BY a key full of ties: the tie order is the canonical group order.
SHAPES = {
    "plain": ("", dict(limit=0)),
    "ordered": (
        " ORDER BY COUNT(amount) DESC",
        dict(order_by=[("count(amount)", True)], limit=0),
    ),
    "limited": (" LIMIT 3", dict(limit=3)),
}


def _sealed():
    table = Table(threshold=20)
    table.send(table.full_segments(per_partition=40, with_nulls=True))
    assert table.sealed_segments() == 8 and table.consuming_docs() == 0
    return table, table.sent


def _consuming():
    table = Table(threshold=10_000)
    table.send(table.rides(90, with_nulls=True))
    assert table.sealed_segments() == 0
    return table, table.sent


def _mixed():
    table = Table(threshold=20)
    table.send(table.rides(150, with_nulls=True))
    assert table.sealed_segments() > 0 and table.consuming_docs() > 0
    return table, table.sent


def _upsert():
    table = Table(threshold=20, upsert=True)
    rows = table.rides(60, with_nulls=True)
    for version in (1, 2):  # every ride is re-sent twice; NULLs come and go
        rows += [
            dict(
                row,
                amount=None if (i + version) % 4 == 0 else 100.0 * version + i / 4,
                ts=row["ts"] + version,
            )
            for i, row in enumerate(rows[:60])
        ]
    table.send(rows)
    assert table.sealed_segments() > 0 and table.consuming_docs() > 0
    return table, latest_per_key(table.sent, "ride_id")


TABLES = {
    "sealed": _sealed,
    "consuming": _consuming,
    "mixed": _mixed,
    "upsert": _upsert,
}


class World:
    """One table, one broker, one Presto engine per pushdown level."""

    def __init__(self, kind: str) -> None:
        self.table, self.rows = TABLES[kind]()
        self.broker = PinotBroker(self.table.controller)
        self.engines = {
            level: PrestoEngine({"rides": PinotConnector(self.broker, level)})
            for level in LEVELS
        }


@pytest.fixture(scope="module", params=list(TABLES))
def world(request):
    return World(request.param)


def _sql_literal(value) -> str:
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else repr(value)


def _where(filters: list[Filter]) -> str:
    parts = []
    for f in filters:
        if f.op == "IN":
            parts.append(f"{f.column} IN ({', '.join(map(_sql_literal, f.values))})")
        elif f.op == "BETWEEN":
            parts.append(
                f"{f.column} BETWEEN {_sql_literal(f.low)} AND {_sql_literal(f.high)}"
            )
        else:
            parts.append(f"{f.column} {f.op} {_sql_literal(f.value)}")
    return " WHERE " + " AND ".join(parts) if parts else ""


def predicate_cases(rows: list[dict]) -> dict[str, list[Filter]]:
    """All 8 operators as hits, misses and NULL literals, over literals a
    seeded draw takes from the table's own cells."""
    rng = seeded_rng(SEED)
    amounts = sorted({r["amount"] for r in rows if r["amount"] == r["amount"]} - {None})
    cities = sorted({r["city"] for r in rows} - {None, ALL_NULL_CITY})
    some, other = rng.sample(amounts, 2)
    low, high = sorted(rng.sample(amounts, 2))
    city, city2 = rng.sample(cities, 2)
    beyond = amounts[-1] + 1.0
    cases = {"no filter": []}
    for op in ("=", "!=", ">", ">=", "<", "<="):
        cases[f"amount {op} hit"] = [Filter("amount", op, some)]
        cases[f"amount {op} NULL"] = [Filter("amount", op, None)]
        cases[f"city {op} hit"] = [Filter("city", op, city)]
    cases.update(
        {
            "= miss": [Filter("amount", "=", beyond)],
            "> miss": [Filter("amount", ">", beyond)],
            ">= miss": [Filter("amount", ">=", beyond)],
            "< miss": [Filter("amount", "<", 0.0)],
            "<= miss": [Filter("city", "<=", "a")],
            "!= miss": [Filter("city", "=", "nope"), Filter("amount", "!=", some)],
            "IN hit": [Filter("city", "IN", values=(city, city2, "nope"))],
            "IN numbers": [Filter("amount", "IN", values=(some, other, beyond))],
            "IN miss": [Filter("city", "IN", values=("nope", "nada"))],
            "IN NULL": [Filter("amount", "IN", values=(None,))],
            "BETWEEN hit": [Filter("amount", "BETWEEN", low=low, high=high)],
            "BETWEEN miss": [Filter("amount", "BETWEEN", low=beyond, high=beyond + 9)],
            "BETWEEN NULL": [Filter("amount", "BETWEEN", low=None, high=high)],
            "all-NULL city": [Filter("city", "=", ALL_NULL_CITY)],
            "conjunction": [Filter("city", "=", city), Filter("amount", ">=", low)],
        }
    )
    return cases


def _as_engine_names(rows: list[dict]) -> list[dict]:
    """Pinot names COUNT(DISTINCT x) ``distinctcount(x)``, the engine
    ``count_distinct(x)``; nothing else differs."""
    return [
        {k.replace("distinctcount(", "count_distinct("): v for k, v in row.items()}
        for row in rows
    ]


def _same(got: list[dict], want: list[dict], what: str) -> None:
    # repr, not ==: NaN must equal NaN, and 0 must not equal 0.0.
    assert repr(got) == repr(want), what


@pytest.mark.parametrize("grouped", [False, True], ids=["global", "grouped"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_every_level_the_broker_and_the_oracle_agree(world, grouped, shape):
    suffix, pinot_shape = SHAPES[shape]
    select = ", ".join(sql for sql, __ in AGGREGATES)
    some_matched = none_matched = 0
    for name, filters in predicate_cases(world.rows).items():
        query = PinotQuery(
            "rides",
            aggregations=[agg for __, agg in AGGREGATES],
            filters=filters,
            group_by=["city"] if grouped else [],
            **pinot_shape,
        )
        want = _as_engine_names(evaluate(query, world.rows))
        if want and want[0]["count(*)"]:
            some_matched += 1
        else:
            none_matched += 1
        if not grouped:
            assert len(want) == 1  # empty input is still one row
        what = f"{name} / {shape}"
        _same(_as_engine_names(world.broker.execute(query).rows), want, what)
        sql = (
            f"SELECT {'city, ' if grouped else ''}{select} FROM rides"
            f"{_where(filters)}{' GROUP BY city' if grouped else ''}{suffix}"
        )
        for level, engine in world.engines.items():
            out = engine.execute(sql)
            _same(out.rows, want, f"{what} / pushdown={level}")
            assert out.stats.pushed_aggregation == (level == "full")
            assert out.stats.pushed_filters == (len(filters) if level != "none" else 0)
    assert some_matched >= 15 and none_matched >= 15


def test_empty_in_matches_nothing(world):
    query = PinotQuery(
        "rides",
        aggregations=[Aggregation("COUNT"), Aggregation("MAX", "amount")],
        filters=[Filter("city", "IN", values=())],
        limit=0,
    )
    want = [{"count(*)": 0, "max(amount)": None}]
    assert evaluate(query, world.rows) == want
    assert world.broker.execute(query).rows == want


# --- the five answers that changed under pushdown="full" (each fails on
# --- the parent commit, where Pinot and the engine carried their own copy)


@pytest.mark.parametrize("level", LEVELS)
class TestTheRule:
    def run(self, world, level, sql):
        return world.engines[level].execute(sql).rows

    def test_count_of_a_column_skips_nulls(self, world, level):
        nulls = sum(1 for r in world.rows if r["amount"] is None)
        assert nulls > 0
        rows = self.run(
            world, level, "SELECT COUNT(*) AS n, COUNT(amount) AS m FROM rides"
        )
        assert rows == [{"n": len(world.rows), "m": len(world.rows) - nulls}]

    def test_avg_min_max_of_nothing_are_null(self, world, level):
        rows = self.run(
            world,
            level,
            "SELECT city, COUNT(amount) AS n, SUM(amount) AS s, AVG(amount) AS a, "
            f"MIN(amount) AS lo, MAX(amount) AS hi FROM rides "
            f"WHERE city = '{ALL_NULL_CITY}' GROUP BY city",
        )
        assert rows == [
            {"city": ALL_NULL_CITY, "n": 0, "s": 0.0, "a": None, "lo": None, "hi": None}
        ]

    def test_global_aggregate_over_no_row_is_one_row(self, world, level):
        rows = self.run(
            world,
            level,
            "SELECT AVG(amount) AS a, COUNT(*) AS n FROM rides WHERE city = 'nope'",
        )
        assert rows == [{"a": None, "n": 0}]
        direct = world.broker.execute(
            PinotQuery(
                "rides",
                aggregations=[Aggregation("AVG", "amount"), Aggregation("COUNT")],
                filters=[Filter("city", "=", "nope")],
            )
        )
        assert direct.rows == [{"avg(amount)": None, "count(*)": 0}]

    def test_min_max_order_strings(self, world, level):
        cities = [r["city"] for r in world.rows if r["city"] is not None]
        rows = self.run(
            world, level, "SELECT MIN(city) AS lo, MAX(city) AS hi FROM rides"
        )
        assert rows == [{"lo": min(cities), "hi": max(cities)}]

    @pytest.mark.parametrize(
        "condition, named",
        [
            ("city > 5", ("'city'", ">", "str", "int")),
            ("amount <= 'x'", ("'amount'", "<=", "float", "str")),
            ("amount BETWEEN 'a' AND 'b'", ("'amount'", "BETWEEN", "float", "str")),
        ],
    )
    def test_incomparable_operands_raise_the_typed_error(
        self, world, level, condition, named
    ):
        with pytest.raises(IncomparableError) as caught:
            self.run(world, level, f"SELECT COUNT(*) AS n FROM rides WHERE {condition}")
        assert isinstance(caught.value, ReproError)
        for part in named:  # column, operator, both operand types
            assert part in str(caught.value)

    @pytest.mark.parametrize("func", ["SUM", "AVG"])
    @pytest.mark.parametrize("group", ["", " GROUP BY city"])
    def test_sum_and_avg_of_strings_raise_the_typed_error(
        self, world, level, func, group
    ):
        with pytest.raises(IncomparableError, match=f"{func} cannot add a str cell"):
            self.run(world, level, f"SELECT {func}(ride_id) AS x FROM rides{group}")
        # Nothing to add, nothing to object to: the error is the fold's.
        rows = self.run(
            world, level, f"SELECT {func}(ride_id) AS x FROM rides WHERE city = 'nope'"
        )
        assert rows == [{"x": 0.0 if func == "SUM" else None}]


MIXED_ROWS = [
    {"k": "a", "v": 1.0},
    {"k": "b", "v": "two"},  # a mixed-type column
    {"k": "c", "v": None},
    {"k": "d", "v": 4.0},
]


def _hive_engine():
    metastore = HiveMetastore(BlobStore())
    schema = Schema("t", (Field("k", FieldType.STRING), Field("v", FieldType.JSON)))
    table = metastore.create_table("t", schema)
    table.add_rows("p1", MIXED_ROWS[:2])
    table.add_rows("p2", MIXED_ROWS[2:])
    return PrestoEngine({"t": HiveConnector(metastore)})


@pytest.mark.parametrize(
    "engine",
    [lambda: PrestoEngine({"t": MemoryConnector({"t": MIXED_ROWS})}), _hive_engine],
    ids=["memory", "hive"],
)
def test_mixed_type_column_raises_the_typed_error_in_every_connector(engine):
    engine = engine()
    assert engine.execute("SELECT k FROM t WHERE v = 4.0").rows == [{"k": "d"}]
    with pytest.raises(IncomparableError, match="'v' > float: a str cell"):
        engine.execute("SELECT k FROM t WHERE v > 0.5")


# --- one dialect, two engines ------------------------------------------------

WINDOW = 25.0
WINDOW_AGGS = (
    "COUNT(*) AS n, COUNT(amount) AS m, SUM(amount) AS s, AVG(amount) AS a, "
    "MIN(amount) AS lo, MAX(amount) AS hi"
)


def test_flinksql_windows_agree_with_presto_over_the_landed_table(world):
    if world.table.upsert:
        pytest.skip("an upsert table lands the last version, a replay sees all")
    hive = HiveMetastore(BlobStore()).create_table("rides", SCHEMA)
    hive.add_rows("all", [r for r in world.rows if r["city"] is not None])
    compiler = FlinkSqlCompiler({"rides": HiveTableDef(hive, "ts", 0.0, float("inf"))})
    out: list[dict] = []
    graph = compiler.compile_streaming(
        f"SELECT city, {WINDOW_AGGS} FROM rides GROUP BY TUMBLE(ts, {WINDOW}), city",
        sink_collector=out,
    )
    JobRuntime(graph).run_until_quiescent()
    windows = sorted({(r["window_start"], r["window_end"]) for r in out})
    assert len(windows) >= 3
    for start, end in windows:
        flink = sorted(
            (
                {k: v for k, v in r.items() if not k.startswith("window_")}
                for r in out
                if r["window_start"] == start
            ),
            key=lambda r: r["city"],
        )
        for level, engine in world.engines.items():
            presto = engine.execute(
                f"SELECT city, {WINDOW_AGGS} FROM rides "
                f"WHERE ts >= {start} AND ts < {end} AND city != 'nope' GROUP BY city"
            ).rows
            _same(presto, flink, f"window [{start}, {end}) / pushdown={level}")
