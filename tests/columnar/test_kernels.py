"""Vectorized kernels are semantically pinned to the row operators.

Every kernel result is compared against the ``rowops`` reference on the
same logical input — including nulls, absent columns, empty pages and
the canonical group order — because the scheduler runs a kernel whenever
a scan returned pages, with no row run beside it to compare against.
"""

from __future__ import annotations

import pytest

from repro.columnar import ColumnBatch, rows_to_pages
from repro.sql.parser import BoolOp, Column, Comparison, FuncCall, Literal, Star
from repro.sql.planner.kernels import (
    KernelUnsupported,
    aggregate_pages,
    eval_condition_mask,
    filter_batch,
)
from repro.sql.planner.rowops import aggregate_rows, eval_condition

ROWS = [
    {"city": "sf", "status": "ok", "amount": 10.0},
    {"city": "la", "status": "late", "amount": 5.0},
    {"city": "sf", "status": "ok", "amount": None},
    {"city": "ny", "status": None, "amount": 7.0},
    {"city": "la", "status": "ok", "amount": 2.0},
]

CONDITIONS = [
    Comparison("=", Column("status"), Literal("ok")),
    Comparison("!=", Column("city"), Literal("sf")),
    Comparison(">=", Column("amount"), Literal(5.0)),
    Comparison("IN", Column("city"), values=("sf", "ny")),
    Comparison("BETWEEN", Column("amount"), low=3.0, high=9.0),
    BoolOp(
        "AND",
        (
            Comparison("=", Column("status"), Literal("ok")),
            Comparison(">", Column("amount"), Literal(1.0)),
        ),
    ),
    BoolOp(
        "OR",
        (
            Comparison("=", Column("city"), Literal("ny")),
            Comparison("<", Column("amount"), Literal(6.0)),
        ),
    ),
    # Absent column: reads as null, predicate false everywhere.
    Comparison("=", Column("ghost"), Literal(1)),
    # A NULL literal or bound matches nothing, != and IN included.
    Comparison("!=", Column("status"), Literal(None)),
    Comparison("IN", Column("status"), values=(None, "ok")),
    Comparison("BETWEEN", Column("amount"), low=None, high=9.0),
]


class TestFilterEquivalence:
    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_mask_matches_row_reference(self, condition):
        batch = ColumnBatch.from_rows(ROWS)
        mask = eval_condition_mask(batch, condition, qualified=False)
        expected = [eval_condition(condition, row, False) for row in ROWS]
        assert mask == expected

    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_filter_batch_matches_row_reference(self, condition):
        batch = ColumnBatch.from_rows(ROWS)
        filtered = filter_batch(batch, condition, qualified=False)
        expected = [r for r in ROWS if eval_condition(condition, r, False)]
        assert filtered.to_rows() == expected

    def test_all_pass_returns_same_batch(self):
        batch = ColumnBatch.from_rows(ROWS)
        condition = Comparison("!=", Column("city"), Literal("nowhere"))
        assert filter_batch(batch, condition, qualified=False) is batch

    def test_raw_column_filter(self):
        # High-cardinality column overflows the dictionary; the kernel
        # must fall back to per-row evaluation, not per-code.
        rows = [{"uid": f"u{i}", "n": i} for i in range(64)]
        batch = ColumnBatch.from_rows(rows)
        condition = Comparison("=", Column("uid"), Literal("u7"))
        assert filter_batch(batch, condition, False).to_rows() == [rows[7]]

    def test_empty_batch(self):
        batch = ColumnBatch.from_rows([])
        condition = Comparison("=", Column("city"), Literal("sf"))
        assert eval_condition_mask(batch, condition, False) == []

    def test_qualified_lookup(self):
        rows = [{"f.city": "sf", "d.region": "west"}]
        batch = ColumnBatch.from_rows(rows)
        condition = Comparison("=", Column("city", table="f"), Literal("sf"))
        assert eval_condition_mask(batch, condition, qualified=True) == [True]

    def test_unsupported_shapes_raise(self):
        batch = ColumnBatch.from_rows(ROWS)
        exotic = Comparison(
            "=", FuncCall("LOWER", (Column("city"),)), Literal("sf")
        )
        with pytest.raises(KernelUnsupported):
            eval_condition_mask(batch, exotic, False)


AGG_CASES = [
    ([Column("city")], [(FuncCall("COUNT", (Star(),)), None)]),
    ([Column("city")], [(FuncCall("SUM", (Column("amount"),)), "total")]),
    (
        [Column("city"), Column("status")],
        [
            (FuncCall("COUNT", (Star(),)), "n"),
            (FuncCall("AVG", (Column("amount"),)), None),
        ],
    ),
    ([], [(FuncCall("MIN", (Column("amount"),)), None)]),
    ([], [(FuncCall("MAX", (Column("amount"),)), None)]),
    # COUNT(col) skips nulls; COUNT(DISTINCT col) counts distinct.
    ([Column("city")], [(FuncCall("COUNT", (Column("amount"),)), None)]),
    (
        [],
        [(FuncCall("COUNT", (Column("city"),), distinct=True), "cities")],
    ),
    # Aggregating an absent column yields null-only input.
    ([Column("city")], [(FuncCall("SUM", (Column("ghost"),)), None)]),
    (
        [],
        [
            (FuncCall(name, (Column("ghost"),)), None)
            for name in ("COUNT", "AVG", "MIN", "MAX")
        ],
    ),
    # MIN / MAX order strings; "ny" has no status at all.
    (
        [Column("city")],
        [
            (FuncCall("MIN", (Column("status"),)), None),
            (FuncCall("MAX", (Column("status"),)), None),
            (FuncCall("COUNT", (Column("status"),)), None),
        ],
    ),
    ([], [(FuncCall("MIN", (Column("city"),)), "first")]),
]


class TestAggregateEquivalence:
    @pytest.mark.parametrize("group_cols,aggs", AGG_CASES)
    def test_matches_row_reference(self, group_cols, aggs):
        pages = rows_to_pages(ROWS, page_size=2)
        got = aggregate_pages(group_cols, aggs, pages, qualified=False)
        expected = aggregate_rows(list(group_cols), list(aggs), ROWS, False)
        assert got == expected

    def test_empty_pages_match_empty_rows(self):
        aggs = [(FuncCall("COUNT", (Star(),)), None)]
        got = aggregate_pages([], aggs, [], qualified=False)
        assert got == aggregate_rows([], aggs, [], False)

    def test_empty_page_in_stream_is_skipped(self):
        pages = [ColumnBatch.from_rows([]), *rows_to_pages(ROWS)]
        aggs = [(FuncCall("SUM", (Column("amount"),)), None)]
        got = aggregate_pages([Column("city")], aggs, pages, False)
        assert got == aggregate_rows([Column("city")], aggs, ROWS, False)

    def test_unsupported_aggregate_raises(self):
        aggs = [(FuncCall("MEDIAN", (Column("amount"),)), None)]
        with pytest.raises(KernelUnsupported):
            aggregate_pages([], aggs, rows_to_pages(ROWS), False)
