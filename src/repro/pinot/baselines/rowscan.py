"""Druid-style columnar store without Pinot's specialized indexes (C4).

Section 4.3: "Pinot is similar in architecture to Apache Druid but has
incorporated optimized data structures such as bit compressed forward
indices ... It also uses specialized indices for faster query execution
such as Startree, sorted and range indices, which could result in order of
magnitude difference of query latency."

This baseline is a fair Druid stand-in: columnar like Pinot (so the C4
comparison isolates the *index* contribution, not the storage layout), but
every filter is a full column scan and every aggregation touches all
matching rows — no star-tree, no sorted or range index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.memory import deep_sizeof
from repro.common.relational import order_rows
from repro.pinot.query import PinotQuery, fold_row, group_fold


@dataclass
class ScanStore:
    """Plain columnar store queried by full scans."""

    name: str = "scanstore"
    _columns: dict[str, list[Any]] = field(default_factory=dict)
    _num_rows: int = 0
    docs_scanned: int = 0  # cumulative work counter for benches

    def load_rows(self, rows: list[dict[str, Any]], column_names: list[str]) -> None:
        for cname in column_names:
            self._columns.setdefault(cname, [])
        for row in rows:
            for cname in column_names:
                self._columns[cname].append(row.get(cname))
        self._num_rows += len(rows)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def memory_bytes(self) -> int:
        return deep_sizeof(self._columns)

    def execute(self, query: PinotQuery) -> list[dict[str, Any]]:
        self.docs_scanned += self._num_rows
        matching = [
            row_id
            for row_id in range(self._num_rows)
            if all(f.matches(self._columns[f.column][row_id]) for f in query.filters)
        ]
        if not query.is_aggregation():
            columns = query.select_columns or sorted(self._columns)
            rows = [
                {c: self._columns[c][r] for c in columns} for r in matching
            ]
            return rows[: query.limit] if query.limit else rows
        fold = group_fold(query)
        for row_id in matching:
            fold_row(fold, query, lambda column: self._columns[column][row_id])
        return order_rows(query.order_by, fold.rows(), query.limit)
