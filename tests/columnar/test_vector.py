"""Column vector layout: encoding choices, nulls, zero-copy views."""

from __future__ import annotations

import pytest

from repro.columnar import Bitmap, ColumnarError, ColumnVector


class TestEncoding:
    def test_low_cardinality_dictionary_encodes(self):
        vector = ColumnVector.from_values(["a", "b", "a", "c", "b", "a"])
        assert vector.is_dict
        assert vector.dictionary == ("a", "b", "c")
        assert vector.values_list() == ["a", "b", "a", "c", "b", "a"]

    def test_high_cardinality_overflows_to_raw(self):
        # 100 distinct values over 100 rows: past max(16, n // 2).
        values = [f"v{i}" for i in range(100)]
        vector = ColumnVector.from_values(values)
        assert not vector.is_dict
        assert vector.values_list() == values

    def test_cardinality_under_half_stays_dictionary(self):
        values = [f"v{i % 40}" for i in range(100)]
        vector = ColumnVector.from_values(values)
        assert vector.is_dict
        assert len(vector.dictionary) == 40

    def test_unhashable_values_take_raw_path(self):
        values = [["x"], ["y"], ["x"]]
        vector = ColumnVector.from_values(values)
        assert not vector.is_dict
        assert vector.values_list() == values

    def test_overflow_keeps_every_row(self):
        # The overflow happens mid-scan; the raw fallback must restart
        # from the full input, not the prefix that fit in the dictionary.
        values = [f"v{i}" for i in range(50)] + ["v0"] * 50
        vector = ColumnVector.from_values(values)
        assert vector.values_list() == values


class TestNulls:
    def test_nulls_live_in_validity_not_values(self):
        vector = ColumnVector.from_values(["a", None, "a", None])
        assert vector.is_dict
        assert vector.null_count() == 2
        assert vector.get(1) is None
        assert vector.values_list() == ["a", None, "a", None]

    def test_all_null_column(self):
        vector = ColumnVector.from_values([None] * 5)
        assert len(vector) == 5
        assert vector.null_count() == 5
        assert vector.values_list() == [None] * 5

    def test_raw_vector_nulls(self):
        values = [f"v{i}" if i % 3 else None for i in range(60)]
        vector = ColumnVector.from_values(values)
        assert not vector.is_dict
        assert vector.values_list() == values

    def test_empty_vector(self):
        vector = ColumnVector.from_values([])
        assert len(vector) == 0
        assert vector.values_list() == []
        assert vector.null_count() == 0


class TestViews:
    def test_slice_is_zero_copy_alias(self):
        vector = ColumnVector.from_values(["a", "b", "c", "a", "b"])
        view = vector.slice(1, 3)
        assert view.values_list() == ["b", "c", "a"]
        # Shared buffers: the view aliases the parent's code array and
        # dictionary objects, it does not copy cells.
        assert view.codes is vector.codes
        assert view.dictionary is vector.dictionary

    def test_slice_of_slice_composes_offsets(self):
        vector = ColumnVector.from_values(list("abcdefgh"))
        inner = vector.slice(2, 5).slice(1, 3)
        assert inner.values_list() == ["d", "e", "f"]
        assert inner.codes is vector.codes

    def test_slice_bounds_checked(self):
        vector = ColumnVector.from_values(["a", "b"])
        with pytest.raises(ColumnarError):
            vector.slice(1, 5)
        with pytest.raises(ColumnarError):
            vector.slice(-1, 1)

    def test_slice_sees_only_its_window_of_nulls(self):
        vector = ColumnVector.from_values([None, "a", "b", None])
        view = vector.slice(1, 2)
        assert view.null_count() == 0
        assert view.values_list() == ["a", "b"]

    def test_get_out_of_range(self):
        view = ColumnVector.from_values(["a", "b", "c"]).slice(0, 2)
        with pytest.raises(ColumnarError):
            view.get(2)

    def test_take_shares_dictionary(self):
        vector = ColumnVector.from_values(["a", "b", "a", "c"])
        gathered = vector.take([3, 0, 0])
        assert gathered.values_list() == ["c", "a", "a"]
        assert gathered.dictionary is vector.dictionary

    def test_take_from_slice_uses_view_relative_indices(self):
        vector = ColumnVector.from_values(["a", "b", "c", "d"])
        gathered = vector.slice(2, 2).take([1, 0])
        assert gathered.values_list() == ["d", "c"]

    def test_take_preserves_nulls(self):
        vector = ColumnVector.from_values(["a", None, "b"])
        assert vector.take([1, 2, 1]).values_list() == [None, "b", None]


class TestBitmap:
    def test_round_trip(self):
        flags = [True, False, True, True, False, False, True, False, True]
        bitmap = Bitmap.from_bools(flags)
        assert bitmap.to_bools() == flags
        assert bitmap.count_set() == 5
        assert bitmap.count_set(2, 4) == 2

    def test_all_set(self):
        bitmap = Bitmap.all_set(10)
        assert bitmap.to_bools() == [True] * 10
