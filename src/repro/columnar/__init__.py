"""Vectorized columnar data plane shared by Flink, Pinot and Presto.

Typed column vectors (validity bitmap + dictionary-coded or raw value
arrays, zero-copy slicing), equal-length column batches, and the
batch↔row adapters that keep row-only consumers working.  The SQL
engine's filter/aggregate kernels over these batches live beside the
row operators they are pinned to (:mod:`repro.sql.planner.kernels`).
See DESIGN.md §2.18.
"""

from repro.columnar.adapter import pages_to_rows, rows_to_pages
from repro.columnar.batch import ColumnBatch, ColumnChunk
from repro.columnar.vector import Bitmap, ColumnarError, ColumnVector

__all__ = [
    "Bitmap",
    "ColumnBatch",
    "ColumnChunk",
    "ColumnVector",
    "ColumnarError",
    "pages_to_rows",
    "rows_to_pages",
]
