"""Hive-style table catalog over the blob store (Sections 4.4, 4.5, 7).

A Hive table is a set of partitions; each partition is a list of columnar
files in the blob store.  This is the "source of truth for all analytical
data": the Presto Hive connector scans it, and the Kappa+ backfill reads
bounded slices of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.common.errors import StorageError, TableNotFoundError
from repro.metadata.schema import Schema
from repro.storage.blobstore import BlobStore
from repro.storage.columnar import ColumnarFile


@dataclass
class HivePartition:
    """One partition (e.g. one day) of a Hive table."""

    table: str
    key: str  # e.g. "2020-10-05"
    file_keys: list[str] = field(default_factory=list)
    row_count: int = 0


class HiveTable:
    """Partitioned columnar table backed by a :class:`BlobStore`."""

    def __init__(self, name: str, schema: Schema, store: BlobStore) -> None:
        self.name = name
        self.schema = schema
        self._store = store
        self._partitions: dict[str, HivePartition] = {}
        self._file_counter = 0
        # Data version: bumped on every append.  The Presto planner keys
        # stage artifacts on it (the Hive analogue of Pinot's TableEpoch).
        self.version = 0

    def add_rows(self, partition_key: str, rows: Iterable[dict[str, Any]]) -> str:
        """Append rows into a partition as a new columnar file.

        Returns the blob key of the created file.
        """
        rows = list(rows)
        if not rows:
            raise StorageError("refusing to write an empty file")
        for row in rows:
            self.schema.validate(row)
        column_names = self.schema.field_names()
        cfile = ColumnarFile.from_rows(rows, column_names)
        blob_key = f"hive/{self.name}/{partition_key}/part-{self._file_counter:05d}.col"
        self._file_counter += 1
        self._store.put(blob_key, cfile.to_bytes())
        part = self._partitions.setdefault(
            partition_key, HivePartition(self.name, partition_key)
        )
        part.file_keys.append(blob_key)
        part.row_count += len(rows)
        self.version += 1
        return blob_key

    def partitions(self) -> list[str]:
        return sorted(self._partitions)

    def partition(self, key: str) -> HivePartition:
        if key not in self._partitions:
            raise StorageError(f"table {self.name!r} has no partition {key!r}")
        return self._partitions[key]

    def scan(
        self,
        partition_keys: list[str] | None = None,
        columns: list[str] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Stream rows, optionally restricted to partitions and columns.

        Filtered reads go through :meth:`scan_with_pruning`, which also
        skips files by their column stats.
        """
        keys = partition_keys if partition_keys is not None else self.partitions()
        for pkey in keys:
            part = self.partition(pkey)
            for file_key in part.file_keys:
                cfile = ColumnarFile.from_bytes(self._store.get(file_key))
                for row in cfile.rows():
                    if columns is not None:
                        yield {c: row.get(c) for c in columns}
                    else:
                        yield row

    def scan_with_pruning(
        self, predicates, columns: list[str] | None = None
    ) -> tuple[list[dict[str, Any]], int, int, int]:
        """Scan the rows satisfying every predicate
        (:class:`repro.common.relational.Predicate`, a conjunction),
        skipping each file whose column stats prove some conjunct cannot
        match in it.  Returns (rows, files_scanned, files_pruned,
        rows_examined) — rows examined are those of the files read."""
        scanned = pruned = examined = 0
        out: list[dict[str, Any]] = []
        tests = [(p.column, p.matches) for p in predicates]
        for pkey in self.partitions():
            for file_key in self.partition(pkey).file_keys:
                cfile = ColumnarFile.from_bytes(self._store.get(file_key))
                if not all(
                    cfile.stats[p.column].might_contain(p)
                    for p in predicates
                    if p.column in cfile.stats
                ):
                    pruned += 1
                    continue
                scanned += 1
                examined += cfile.num_rows
                for row in cfile.rows():
                    if all(matches(row.get(column)) for column, matches in tests):
                        if columns is not None:
                            out.append({c: row.get(c) for c in columns})
                        else:
                            out.append(row)
        return out, scanned, pruned, examined

    def row_count(self) -> int:
        return sum(p.row_count for p in self._partitions.values())

    def total_bytes(self) -> int:
        return sum(
            self._store.stat(fk).size
            for p in self._partitions.values()
            for fk in p.file_keys
        )


class HiveMetastore:
    """Catalog of Hive tables."""

    def __init__(self, store: BlobStore) -> None:
        self._store = store
        self._tables: dict[str, HiveTable] = {}

    def create_table(self, name: str, schema: Schema) -> HiveTable:
        if name in self._tables:
            raise StorageError(f"Hive table {name!r} already exists")
        table = HiveTable(name, schema, self._store)
        self._tables[name] = table
        return table

    def table(self, name: str) -> HiveTable:
        if name not in self._tables:
            raise TableNotFoundError(f"Hive table {name!r} does not exist")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> list[str]:
        return sorted(self._tables)
