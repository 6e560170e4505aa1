"""Property-based equivalence: every fast path must agree with the model.

The OLAP layer's correctness story is that indexes, star-trees and SQL
plans are *pure optimizations* — on any input, any supported query must
return exactly what the query model (``tests/reference/query.py``, a
plain scan sharing no code with the engines) returns.  Hypothesis hunts
for inputs where they diverge.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pinot.json_support import json_extract
from repro.pinot.query import (
    Aggregation,
    Filter,
    PinotQuery,
    execute_on_segment,
)
from repro.pinot.segment import ImmutableSegment, IndexConfig
from repro.pinot.startree import StarTree, StarTreeConfig
from repro.sql.presto.connector import MemoryConnector
from repro.sql.presto.engine import PrestoEngine
from tests.reference.query import evaluate

rows_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "city": st.sampled_from(["sf", "nyc", "la", "chi"]),
            "status": st.sampled_from(["ok", "bad"]),
            "amount": st.integers(min_value=0, max_value=50).map(float),
        }
    ),
    min_size=1,
    max_size=80,
)

filter_strategy = st.one_of(
    st.tuples(st.just("city"), st.just("="),
              st.sampled_from(["sf", "nyc", "la", "chi", "ghost"])),
    st.tuples(st.just("amount"), st.sampled_from([">", ">=", "<", "<="]),
              st.integers(min_value=-5, max_value=55).map(float)),
)


def brute_force(rows, filters, group_col):
    """The model's ``{group: (count, sum)}`` for every group holding a row."""
    query = PinotQuery(
        "t",
        aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
        filters=filters,
        group_by=[group_col] if group_col else [],
        limit=0,
    )
    return {
        row.get(group_col): (row["count(*)"], row["sum(amount)"])
        for row in evaluate(query, rows)
        if row["count(*)"]
    }


class TestSegmentEquivalence:
    @given(rows_strategy, filter_strategy, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_indexed_segment_matches_brute_force(self, rows, flt_spec, grouped):
        column, op, value = flt_spec
        filters = [Filter(column, op, value)]
        group_by = ["status"] if grouped else []
        segment = ImmutableSegment(
            "s",
            {k: [r[k] for r in rows] for k in rows[0]},
            IndexConfig(inverted=frozenset({"city", "status"}),
                        range_indexed=frozenset({"amount"})),
        )
        partial = execute_on_segment(
            segment,
            PinotQuery("t",
                       aggregations=[Aggregation("COUNT"),
                                     Aggregation("SUM", "amount")],
                       filters=filters, group_by=group_by),
        )
        expected = brute_force(rows, filters, "status" if grouped else None)
        measured = {
            (key[0] if grouped else None): (states[0], states[1])
            for key, states in partial.groups.items()
        }
        assert measured == expected

    @given(rows_strategy, filter_strategy)
    @settings(max_examples=100, deadline=None)
    def test_unindexed_segment_agrees_with_indexed(self, rows, flt_spec):
        column, op, value = flt_spec
        filters = [Filter(column, op, value)]
        query = PinotQuery("t", aggregations=[Aggregation("COUNT")],
                           filters=filters)
        columns = {k: [r[k] for r in rows] for k in rows[0]}
        plain = execute_on_segment(ImmutableSegment("p", columns), query)
        indexed = execute_on_segment(
            ImmutableSegment(
                "i", columns,
                IndexConfig(inverted=frozenset({"city", "status"}),
                            range_indexed=frozenset({"amount"})),
            ),
            query,
        )
        assert plain.groups == indexed.groups


class TestStarTreeEquivalence:
    @given(rows_strategy,
           st.sampled_from(["sf", "nyc", "la", "chi", "ghost"]),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_startree_matches_brute_force(self, rows, city, grouped):
        tree = StarTree(
            rows,
            StarTreeConfig(dimensions=["city", "status"], metrics=["amount"],
                           max_leaf_records=4),
        )
        result, __ = tree.query(
            filters={"city": city},
            group_by=["status"] if grouped else [],
            sum_metric="amount",
        )
        expected = brute_force(rows, [Filter("city", "=", city)],
                               "status" if grouped else None)
        measured = {
            (key[0] if grouped else None): (entry["count"], entry["sum"])
            for key, entry in result.items()
        }
        assert measured == expected


class TestPrestoEquivalence:
    @given(rows_strategy, filter_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sql_group_by_matches_brute_force(self, rows, flt_spec):
        column, op, value = flt_spec
        engine = PrestoEngine({"t": MemoryConnector({"t": rows})})
        literal = f"'{value}'" if isinstance(value, str) else str(value)
        out = engine.execute(
            f"SELECT status, COUNT(*) AS n, SUM(amount) AS total FROM t "
            f"WHERE {column} {op} {literal} GROUP BY status"
        )
        expected = brute_force(rows, [Filter(column, op, value)], "status")
        measured = {r["status"]: (r["n"], r["total"]) for r in out.rows}
        assert measured == expected


class TestJsonExtractProperties:
    keys = st.sampled_from(["a", "b", "c"])

    @given(st.lists(keys, min_size=1, max_size=4),
           st.integers(min_value=-100, max_value=100))
    def test_extract_inverts_nesting(self, path_keys, value):
        payload = value
        for key in reversed(path_keys):
            payload = {key: payload}
        assert json_extract(payload, ".".join(path_keys)) == value

    @given(st.lists(keys, min_size=1, max_size=3),
           st.lists(keys, min_size=1, max_size=3))
    def test_extract_never_raises_on_mismatched_shapes(self, build, probe):
        payload = "leaf"
        for key in reversed(build):
            payload = {key: payload}
        # Probing any path over any shape returns a value or None, never
        # an exception.
        json_extract(payload, ".".join(probe))
