from repro.common.records import Record
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.storage.blobstore import BlobStore
from repro.storage.hive import HiveMetastore
from repro.storage.rawlogs import RawLogArchiver, compact_to_hive

SCHEMA = Schema(
    "events",
    (
        Field("k", FieldType.STRING),
        Field("v", FieldType.LONG, FieldRole.METRIC),
        Field("event_time", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


def record(i: int, t: float, headers: dict | None = None) -> Record:
    value = {"k": f"k{i % 3}", "v": i, "event_time": t}
    return Record(f"k{i % 3}", value, t, headers or {})


class TestArchiver:
    def test_batches_into_files(self):
        archiver = RawLogArchiver(BlobStore(), "events", batch_size=10)
        archiver.extend(record(i, float(i)) for i in range(25))
        assert len(archiver.files()) == 2  # 5 still buffered
        archiver.flush()
        assert len(archiver.files()) == 3
        assert sum(f.record_count for f in archiver.files()) == 25

    def test_file_round_trip_preserves_headers(self):
        archiver = RawLogArchiver(BlobStore(), "events", batch_size=5)
        sent = [record(i, float(i), {"trace_id": f"rides-0@{i}"}) for i in range(5)]
        archiver.extend(sent)
        restored = archiver.read_file(archiver.files()[0].key)
        assert restored == sent

    def test_read_range_filters_by_event_time(self):
        archiver = RawLogArchiver(BlobStore(), "events", batch_size=10)
        archiver.extend(record(i, float(i)) for i in range(30))
        archiver.flush()
        selected = archiver.read_range(5.0, 15.0)
        assert len(selected) == 10
        assert all(5.0 <= r.event_time < 15.0 for r in selected)

    def test_read_range_skips_irrelevant_files(self):
        archiver = RawLogArchiver(BlobStore(), "events", batch_size=10)
        archiver.extend(record(i, float(i)) for i in range(30))
        archiver.flush()
        assert archiver.read_range(100.0, 200.0) == []

    def test_flush_empty_returns_none(self):
        assert RawLogArchiver(BlobStore(), "t").flush() is None


class TestCompaction:
    def test_compacts_into_partitions(self):
        store = BlobStore()
        archiver = RawLogArchiver(store, "events", batch_size=10)
        archiver.extend(record(i, float(i * 10)) for i in range(20))
        archiver.flush()
        table = HiveMetastore(store).create_table("events", SCHEMA)
        written = compact_to_hive(
            archiver, table, partition_of=lambda r: f"h={int(r.event_time // 100)}"
        )
        assert written == 20
        assert table.partitions() == ["h=0", "h=1"]
        assert table.row_count() == 20

    def test_custom_row_mapping(self):
        store = BlobStore()
        archiver = RawLogArchiver(store, "events", batch_size=5)
        archiver.extend(record(i, float(i)) for i in range(5))
        archiver.flush()
        schema = Schema("keys_only", (Field("k", FieldType.STRING),))
        table = HiveMetastore(store).create_table("keys_only", schema)
        compact_to_hive(
            archiver,
            table,
            partition_of=lambda r: "all",
            row_of=lambda r: {"k": r.value["k"]},
        )
        assert all(set(row) == {"k"} for row in table.scan())
