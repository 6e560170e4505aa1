"""Column batches and the page↔row adapters."""

from __future__ import annotations

import pytest

from repro.columnar import (
    ColumnBatch,
    ColumnarError,
    ColumnVector,
    pages_to_rows,
    rows_to_pages,
)

ROWS = [
    {"city": "sf", "amount": 1.0, "note": None},
    {"city": "la", "amount": 2.0, "note": "x"},
    {"city": "sf", "amount": None, "note": None},
    {"city": "ny", "amount": 4.0, "note": "y"},
]


class TestBatch:
    def test_from_rows_round_trip(self):
        batch = ColumnBatch.from_rows(ROWS)
        assert batch.num_rows == 4
        assert batch.column_names == ["city", "amount", "note"]
        assert batch.to_rows() == ROWS

    def test_empty_batch(self):
        batch = ColumnBatch.from_rows([])
        assert batch.num_rows == 0
        assert batch.to_rows() == []
        assert rows_to_pages([]) == []
        assert pages_to_rows([batch]) == []

    def test_all_null_column(self):
        batch = ColumnBatch.from_columns({"k": ["a", "b"], "v": [None, None]})
        assert batch.column("v").null_count() == 2
        assert batch.to_rows() == [
            {"k": "a", "v": None},
            {"k": "b", "v": None},
        ]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ColumnarError):
            ColumnBatch(
                {
                    "a": ColumnVector.from_values([1, 2, 3]),
                    "b": ColumnVector.from_values([1]),
                }
            )

    def test_unknown_column_rejected(self):
        batch = ColumnBatch.from_rows(ROWS)
        with pytest.raises(ColumnarError):
            batch.column("nope")

    def test_slice_aliases_every_column(self):
        batch = ColumnBatch.from_rows(ROWS)
        view = batch.slice(1, 2)
        assert view.to_rows() == ROWS[1:3]
        for name in batch.column_names:
            assert view.column(name).codes is batch.column(name).codes
            assert view.column(name).values is batch.column(name).values

    def test_take_and_select(self):
        batch = ColumnBatch.from_rows(ROWS)
        assert batch.take([3, 0]).to_rows() == [ROWS[3], ROWS[0]]
        projected = batch.select(["city"])
        assert projected.column_names == ["city"]
        assert projected.num_rows == 4


class TestAdapter:
    def test_pages_round_trip_across_page_boundaries(self):
        rows = [{"i": i, "k": f"k{i % 3}"} for i in range(10)]
        pages = rows_to_pages(rows, page_size=4)
        assert [len(p) for p in pages] == [4, 4, 2]
        assert pages_to_rows(pages) == rows

    def test_missing_keys_normalize_to_null(self):
        # Row dicts with uneven keys land as null cells: the round trip
        # is key-complete, matching a schema'd columnar layout.
        rows = [{"a": 1}, {"b": 2}]
        assert pages_to_rows(rows_to_pages(rows)) == [
            {"a": 1, "b": None},
            {"a": None, "b": 2},
        ]

    def test_explicit_column_names_pin_layout(self):
        pages = rows_to_pages([{"a": 1, "b": 2}], column_names=["b"])
        assert pages_to_rows(pages) == [{"b": 2}]

