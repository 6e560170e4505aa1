import pytest

from repro.common.errors import StorageError, TableNotFoundError
from repro.common.relational import Predicate
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.storage.blobstore import BlobStore
from repro.storage.columnar import ColumnarFile
from repro.storage.hive import HiveMetastore

SCHEMA = Schema(
    "orders",
    (
        Field("city", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


def rows(n: int, city: str = "sf", base_ts: float = 0.0):
    return [
        {"city": city, "amount": float(i), "ts": base_ts + i} for i in range(n)
    ]


class TestColumnarFile:
    def test_round_trip(self):
        cfile = ColumnarFile.from_rows(rows(10), ["city", "amount", "ts"])
        again = ColumnarFile.from_bytes(cfile.to_bytes())
        assert list(again.rows()) == list(cfile.rows())

    def test_stats(self):
        cfile = ColumnarFile.from_rows(rows(10), ["city", "amount", "ts"])
        stats = cfile.stats["amount"]
        assert stats.min_value == 0.0
        assert stats.max_value == 9.0
        assert stats.null_count == 0
        assert stats.distinct_count == 10

    def test_null_handling(self):
        cfile = ColumnarFile({"a": [1, None, 3]})
        assert cfile.stats["a"].null_count == 1
        again = ColumnarFile.from_bytes(cfile.to_bytes())
        assert again.column("a") == [1, None, 3]

    def test_dictionary_encoding_compresses_repeats(self):
        repetitive = ColumnarFile({"c": ["same-city"] * 1000})
        distinct = ColumnarFile({"c": [f"city-{i}" for i in range(1000)]})
        assert len(repetitive.to_bytes()) < len(distinct.to_bytes()) / 5

    def test_mismatched_lengths(self):
        with pytest.raises(StorageError):
            ColumnarFile({"a": [1], "b": [1, 2]})

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            ColumnarFile.from_rows([], ["a"])

    def test_stats_pruning_check(self):
        cfile = ColumnarFile({"v": [10.0, 20.0, 30.0]})
        stats = cfile.stats["v"]
        assert stats.might_contain(Predicate("v", "=", 20.0))
        assert not stats.might_contain(Predicate("v", "=", 99.0))
        assert not stats.might_contain(Predicate("v", ">", 30.0))
        assert stats.might_contain(Predicate("v", ">=", 30.0))
        assert not stats.might_contain(Predicate("v", "<", 10.0))


class TestHive:
    def _table(self):
        metastore = HiveMetastore(BlobStore())
        return metastore, metastore.create_table("orders", SCHEMA)

    def test_create_and_lookup(self):
        metastore, table = self._table()
        assert metastore.table("orders") is table
        with pytest.raises(TableNotFoundError):
            metastore.table("nope")
        with pytest.raises(StorageError):
            metastore.create_table("orders", SCHEMA)

    def test_partitioned_writes_and_scan(self):
        __, table = self._table()
        table.add_rows("day=0", rows(5))
        table.add_rows("day=1", rows(3, city="nyc", base_ts=100))
        assert table.partitions() == ["day=0", "day=1"]
        assert table.row_count() == 8
        nyc = list(table.scan(partition_keys=["day=1"]))
        assert len(nyc) == 3
        assert all(r["city"] == "nyc" for r in nyc)

    def test_scan_with_projection_and_predicate(self):
        __, table = self._table()
        table.add_rows("p", rows(10))
        out, __, __, __ = table.scan_with_pruning(
            [Predicate("amount", ">", 7.0)], columns=["amount"]
        )
        assert out == [{"amount": 8.0}, {"amount": 9.0}]

    def test_schema_validation_on_write(self):
        __, table = self._table()
        with pytest.raises(Exception):
            table.add_rows("p", [{"city": 5, "amount": "x", "ts": 0.0}])

    def test_stats_pruning_skips_files(self):
        __, table = self._table()
        table.add_rows("p1", rows(100, base_ts=0))
        table.add_rows("p2", rows(100, base_ts=1000))
        out, scanned, pruned, examined = table.scan_with_pruning(
            [Predicate("ts", ">=", 1000.0)]
        )
        assert len(out) == 100
        assert pruned == 1
        assert scanned == 1
        assert examined == 100  # rows of the one file read

    def test_a_conjunction_prunes_on_every_conjunct(self):
        __, table = self._table()
        table.add_rows("p1", rows(100, city="sf", base_ts=0))
        table.add_rows("p2", rows(100, city="sf", base_ts=1000))
        table.add_rows("p3", rows(100, city="nyc", base_ts=1000))
        both = [Predicate("ts", ">=", 1000.0), Predicate("city", "=", "nyc")]
        out, scanned, pruned, examined = table.scan_with_pruning(both, columns=["ts"])
        assert (scanned, pruned, examined) == (1, 2, 100)
        unpruned = [
            {"ts": r["ts"]}
            for r in table.scan()
            if r["ts"] >= 1000.0 and r["city"] == "nyc"
        ]
        assert out == unpruned and len(out) == 100

    def test_empty_write_rejected(self):
        __, table = self._table()
        with pytest.raises(StorageError):
            table.add_rows("p", [])

    def test_total_bytes_positive(self):
        __, table = self._table()
        table.add_rows("p", rows(50))
        assert table.total_bytes() > 0
