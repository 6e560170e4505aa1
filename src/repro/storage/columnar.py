"""Parquet-like columnar file format with column statistics.

Section 4.4: raw Kafka logs are merged into "the long term Parquet data
format using a compaction process" and served by Hive/Presto/Spark.  The
format here stores each column contiguously, dictionary-encodes strings
and keeps min/max/null-count stats per column so the Hive connector can
prune files (predicate pushdown on storage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.common import serde
from repro.common.errors import StorageError


@dataclass(frozen=True)
class ColumnStats:
    """Min/max/null statistics for one column of one file."""

    name: str
    min_value: Any
    max_value: Any
    null_count: int
    distinct_count: int

    def might_contain(self, predicate) -> bool:
        """Conservative pruning check: can any row of this column satisfy
        the predicate (:class:`repro.common.relational.Predicate`, whose
        ``may_match`` is the range rule)?  True when unsure."""
        if self.distinct_count == 0:
            return False  # every cell is NULL, and NULL matches nothing
        if self.min_value is None:
            return True  # no usable bounds
        return predicate.may_match(self.min_value, self.max_value)


class ColumnarFile:
    """An immutable columnar file: named columns of equal length."""

    def __init__(self, columns: dict[str, list[Any]]) -> None:
        if not columns:
            raise StorageError("columnar file needs at least one column")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise StorageError(f"column lengths differ: { {k: len(v) for k, v in columns.items()} }")
        self._columns = {name: list(values) for name, values in columns.items()}
        self.num_rows = lengths.pop()
        self.stats = {name: _compute_stats(name, values) for name, values in self._columns.items()}

    @classmethod
    def from_rows(cls, rows: Iterable[dict[str, Any]], column_names: list[str]) -> "ColumnarFile":
        columns: dict[str, list[Any]] = {name: [] for name in column_names}
        count = 0
        for row in rows:
            for name in column_names:
                columns[name].append(row.get(name))
            count += 1
        if count == 0:
            raise StorageError("cannot build a columnar file from zero rows")
        return cls(columns)

    def column_names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> list[Any]:
        if name not in self._columns:
            raise StorageError(f"no column {name!r} in file")
        return self._columns[name]

    def rows(self) -> Iterable[dict[str, Any]]:
        names = list(self._columns)
        for i in range(self.num_rows):
            yield {name: self._columns[name][i] for name in names}

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize with per-column dictionary encoding for strings."""
        payload: dict[str, Any] = {"n": self.num_rows, "cols": {}}
        for name, values in self._columns.items():
            if values and all(isinstance(v, str) or v is None for v in values):
                # Dictionary-encode: unique values + int codes.
                dictionary: list[str | None] = sorted(
                    {v for v in values if v is not None}
                )
                index = {v: i for i, v in enumerate(dictionary)}
                codes = [-1 if v is None else index[v] for v in values]
                payload["cols"][name] = {"enc": "dict", "dict": dictionary, "codes": codes}
            else:
                payload["cols"][name] = {"enc": "plain", "values": values}
        return serde.encode(payload)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarFile":
        payload = serde.decode(data)
        columns: dict[str, list[Any]] = {}
        for name, col in payload["cols"].items():
            if col["enc"] == "dict":
                dictionary = col["dict"]
                columns[name] = [
                    None if code == -1 else dictionary[code] for code in col["codes"]
                ]
            else:
                columns[name] = col["values"]
        return cls(columns)


def _compute_stats(name: str, values: list[Any]) -> ColumnStats:
    non_null = [v for v in values if v is not None]
    min_value = max_value = None
    # Bounds must cover every non-NULL cell or they prove nothing: a bool,
    # a nested value or a NaN (which orders with nothing) means no stats.
    if non_null and all(
        isinstance(v, (int, float, str)) and not isinstance(v, bool) and v == v
        for v in non_null
    ):
        try:
            min_value = min(non_null)
            max_value = max(non_null)
        except TypeError:
            # Mixed types (e.g. str + int) — skip stats, stay conservative.
            min_value = max_value = None
    distinct = 0
    try:
        distinct = len(set(non_null))
    except TypeError:
        distinct = len(non_null)
    return ColumnStats(
        name=name,
        min_value=min_value,
        max_value=max_value,
        null_count=len(values) - len(non_null),
        distinct_count=distinct,
    )
