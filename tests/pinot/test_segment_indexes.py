import pytest

from repro.common.errors import QueryError, SegmentError
from repro.common.relational import Predicate
from repro.pinot.indexes import (
    InvertedIndex,
    RangeIndex,
    SortedIndex,
    intersect_sorted,
    union_sorted,
)
from repro.pinot.segment import (
    BitPackedArray,
    ForwardIndex,
    ImmutableSegment,
    IndexConfig,
    MutableSegment,
)


class TestSortedHelpers:
    def test_intersect(self):
        assert intersect_sorted([1, 3, 5, 7], [3, 4, 5]) == [3, 5]
        assert intersect_sorted([3, 4, 5], [1, 3, 5, 7]) == [3, 5]
        assert intersect_sorted([], [1]) == []

    def test_union(self):
        assert union_sorted([[3, 1], [2, 3]]) == [1, 2, 3]


class TestInvertedIndex:
    def test_point_lookup(self):
        index = InvertedIndex(["a", "b", "a", "c", "a"])
        assert index.lookup("a") == [0, 2, 4]
        assert index.lookup("missing") == []

    def test_in_lookup(self):
        index = InvertedIndex(["a", "b", "c"])
        assert index.lookup_in(["a", "c"]) == [0, 2]

    def test_cardinality(self):
        index = InvertedIndex(["a", "b", "a"])
        assert index.cardinality() == 2
        assert index.posting_entries() == 3


class TestSortedIndex:
    def test_requires_sorted(self):
        with pytest.raises(QueryError):
            SortedIndex([3, 1, 2])

    def test_equals_run(self):
        index = SortedIndex([1, 2, 2, 2, 5])
        assert list(index.equals(2)) == [1, 2, 3]
        assert list(index.equals(4)) == []

    def test_between(self):
        index = SortedIndex([1, 2, 3, 4, 5])
        values = [1, 2, 3, 4, 5]
        assert Predicate("c", "BETWEEN", low=2, high=4).code_range(values) == (1, 4)
        assert list(index.span(Predicate("c", "BETWEEN", low=2, high=4))) == [1, 2, 3]
        # An exclusive bound is its own operator, not a flag.
        assert Predicate("c", "<", 4).code_range(values) == (0, 3)
        assert list(index.span(Predicate("c", ">=", 2))) == [1, 2, 3, 4]


class TestRangeIndex:
    def test_candidates_cover_range(self):
        values = [float(i) for i in range(100)]
        index = RangeIndex(values, num_buckets=10)
        certain, boundary = index.candidates(25.0, 74.0)
        covered = set(certain) | set(boundary)
        assert all(i in covered for i in range(25, 75))
        # Interior docs should mostly be certain, not boundary.
        assert len(certain) > len(boundary)

    def test_none_bounds(self):
        index = RangeIndex([1.0, 2.0, 3.0], num_buckets=4)
        certain, boundary = index.candidates(None, None)
        assert set(certain) | set(boundary) == {0, 1, 2}

    def test_nulls_skipped(self):
        index = RangeIndex([1.0, None, 3.0], num_buckets=2)
        certain, boundary = index.candidates(0.0, 10.0)
        assert 1 not in set(certain) | set(boundary)


class TestBitPacking:
    def test_round_trip(self):
        values = [0, 1, 5, 7, 3, 2]
        packed = BitPackedArray(values, bit_width=3)
        assert [packed.get(i) for i in range(len(values))] == values

    def test_rejects_overflow(self):
        with pytest.raises(SegmentError):
            BitPackedArray([8], bit_width=3)

    def test_packing_is_compact(self):
        packed = BitPackedArray([1] * 1000, bit_width=2)
        assert packed.packed_bytes() == 250

    def test_index_error(self):
        packed = BitPackedArray([1], bit_width=1)
        with pytest.raises(IndexError):
            packed.get(5)


class TestForwardIndex:
    def test_dictionary_round_trip(self):
        values = ["sf", "nyc", "sf", None, "la"]
        fwd = ForwardIndex(values)
        assert fwd.materialize() == values
        assert fwd.cardinality() == 3

    def test_disk_bytes_smaller_for_low_cardinality(self):
        low = ForwardIndex(["a", "b"] * 500)
        high = ForwardIndex([f"val-{i}" for i in range(1000)])
        assert low.disk_bytes() < high.disk_bytes() / 3


class TestSegments:
    def _columns(self, n=100):
        return {
            "city": [f"city-{i % 4}" for i in range(n)],
            "amount": [float(i) for i in range(n)],
            "ts": [float(i * 10) for i in range(n)],
        }

    def test_seal_builds_configured_indexes(self):
        mutable = MutableSegment("seg-0")
        for i in range(50):
            mutable.append({"city": f"c{i % 3}", "amount": float(i), "ts": float(i)})
        sealed = mutable.seal(
            IndexConfig(inverted=frozenset({"city"}),
                        range_indexed=frozenset({"amount"}),
                        sort_column="ts"),
            time_column="ts",
        )
        assert "city" in sealed.inverted
        assert "amount" in sealed.ranges
        assert sealed.sorted_index is not None
        assert sealed.min_time == 0.0
        assert sealed.max_time == 49.0

    def test_sort_column_reorders_docs(self):
        segment = ImmutableSegment(
            "s",
            {"v": [3, 1, 2], "o": ["c", "a", "b"]},
            IndexConfig(sort_column="v"),
        )
        assert [segment.value("v", i) for i in range(3)] == [1, 2, 3]
        assert [segment.value("o", i) for i in range(3)] == ["a", "b", "c"]

    def test_serialization_round_trip(self):
        segment = ImmutableSegment(
            "s", self._columns(), IndexConfig(inverted=frozenset({"city"})),
            time_column="ts", partition_id=2,
        )
        restored = ImmutableSegment.from_bytes(segment.to_bytes())
        assert restored.num_docs == segment.num_docs
        assert restored.partition_id == 2
        assert restored.row(10) == segment.row(10)
        assert "city" in restored.inverted  # indexes rebuilt

    def test_mismatched_columns_rejected(self):
        with pytest.raises(SegmentError):
            ImmutableSegment("s", {"a": [1], "b": [1, 2]})

    def test_empty_seal_rejected(self):
        with pytest.raises(SegmentError):
            MutableSegment("s").seal()

    def test_disk_bytes_positive_and_memory_measured(self):
        segment = ImmutableSegment("s", self._columns())
        assert segment.disk_bytes() > 0
        assert segment.memory_bytes() > 0

    def test_unknown_column(self):
        segment = ImmutableSegment("s", self._columns())
        with pytest.raises(SegmentError):
            segment.value("missing", 0)
