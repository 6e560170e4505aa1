"""Column batches: named vectors of equal length, exchanged zero-copy.

A :class:`ColumnBatch` is a query page — what moves from a segment scan
through the broker, its cache and the engine's stages — a mapping of column name to
:class:`ColumnVector` plus a row count.  Batches are immutable views;
``slice`` windows every column in O(columns), not O(cells), and
``take`` gathers shared-dictionary codes.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.common.perf import PERF
from repro.columnar.vector import ColumnarError, ColumnVector


class ColumnBatch:
    """Equal-length named column vectors; the unit of vectorized exchange."""

    __slots__ = ("columns", "num_rows")

    def __init__(self, columns: Mapping[str, ColumnVector], num_rows: int | None = None):
        self.columns = dict(columns)
        if num_rows is None:
            num_rows = len(next(iter(self.columns.values()))) if self.columns else 0
        for name, vector in self.columns.items():
            if len(vector) != num_rows:
                raise ColumnarError(
                    f"column {name!r} has {len(vector)} rows, batch has {num_rows}"
                )
        self.num_rows = num_rows
        if PERF.enabled:
            PERF.inc("columnar.batch_allocs")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Sequence[Mapping[str, Any]], column_names: Sequence[str] | None = None
    ) -> "ColumnBatch":
        """Adapt row dicts into a batch (the row→batch boundary)."""
        if PERF.enabled:
            PERF.inc("columnar.rows_adapted", len(rows))
        if column_names is None:
            seen: dict[str, None] = {}
            for row in rows:
                for name in row:
                    seen.setdefault(name)
            column_names = list(seen)
        columns = {
            name: ColumnVector.from_values([row.get(name) for row in rows])
            for name in column_names
        }
        return cls(columns, num_rows=len(rows))

    @classmethod
    def from_columns(cls, data: Mapping[str, Iterable[Any]]) -> "ColumnBatch":
        """Build a batch straight from column value lists."""
        return cls(
            {name: ColumnVector.from_values(values) for name, values in data.items()}
        )

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_rows

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> ColumnVector:
        try:
            return self.columns[name]
        except KeyError:
            raise ColumnarError(f"no column {name!r} in batch") from None

    def row(self, i: int) -> dict[str, Any]:
        """Materialize one row dict (boundary use only, not the hot path)."""
        return {name: vector.get(i) for name, vector in self.columns.items()}

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialize all rows (the batch→row boundary)."""
        if PERF.enabled:
            PERF.inc("columnar.rows_adapted", self.num_rows)
        lists = {name: vector.values_list() for name, vector in self.columns.items()}
        names = list(lists)
        return [
            {name: lists[name][i] for name in names} for i in range(self.num_rows)
        ]

    # -- transforms --------------------------------------------------------

    def slice(self, start: int, length: int) -> "ColumnBatch":
        """Zero-copy row window across every column."""
        if PERF.enabled:
            PERF.inc("columnar.batch_slices")
        batch = ColumnBatch.__new__(ColumnBatch)
        batch.columns = {
            name: vector.slice(start, length)
            for name, vector in self.columns.items()
        }
        batch.num_rows = length
        return batch

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather rows by index across every column."""
        batch = ColumnBatch.__new__(ColumnBatch)
        batch.columns = {
            name: vector.take(indices) for name, vector in self.columns.items()
        }
        batch.num_rows = len(indices)
        if PERF.enabled:
            PERF.inc("columnar.batch_allocs")
        return batch

    def select(self, names: Sequence[str]) -> "ColumnBatch":
        """Project to a subset of columns (zero-copy)."""
        batch = ColumnBatch.__new__(ColumnBatch)
        batch.columns = {name: self.column(name) for name in names}
        batch.num_rows = self.num_rows
        return batch
