"""Vectorized filter and aggregate kernels over column batches.

The kernels answer exactly what the row-at-a-time operators in
:mod:`repro.sql.planner.rowops` answer because both call the same rules
(:mod:`repro.common.relational`: the cell rule, the aggregate states, the
finisher) and feed them the same values in the same order — row order
across pages, so float sums are bit-identical.  ``tests/columnar``
byte-checks that the *feeding* agrees.

The speed comes from working in code space: a predicate over a
dictionary-coded column is evaluated once per *distinct* value
(``columnar.dict_evals``), then applied to rows as an integer-indexed
lookup sweep (``columnar.kernel_rows``), instead of one Python
predicate call per row.  Aggregation materializes each needed column
once per page and hands the lists to ``GroupFold.add_columns``
(``columnar.agg_rows``) — the batch feed Pinot's segment kernel uses —
instead of per-row dict lookups.

Kernels raise :class:`KernelUnsupported` for shapes they cannot
vectorize (expressions, qualified-join lookups they cannot resolve,
exotic aggregates); callers catch it and fall back to the row adapter.
"""

from __future__ import annotations

from typing import Sequence

from repro.columnar import ColumnBatch, ColumnVector
from repro.common.errors import ReproError, SqlPlanError
from repro.common.perf import PERF
from repro.sql.parser import BoolOp, Column, Comparison, FuncCall, Star
from repro.sql.planner.rowops import group_fold, is_column_vs_literal, to_pushed


class KernelUnsupported(ReproError):
    """The batch/plan shape cannot be vectorized; fall back to rows."""


# --- column resolution (mirrors rowops.lookup against batch columns) ----------


def _resolve(batch: ColumnBatch, column: Column, qualified: bool) -> ColumnVector | None:
    """The vector backing ``column``, or ``None`` for an absent column.

    Mirrors :func:`repro.sql.planner.rowops.lookup`: absent columns read
    as null, qualified lookups match on ``table.column`` keys with the
    unique-suffix rule for unqualified names in joins.
    """
    names = batch.columns
    if qualified:
        if column.table is not None:
            return names.get(f"{column.table}.{column.name}")
        matches = [k for k in names if k.endswith(f".{column.name}")]
        if len(matches) > 1:
            raise KernelUnsupported(f"ambiguous column {column.name!r} in join")
        if matches:
            return names[matches[0]]
        return names.get(column.name)
    return names.get(column.name)


# --- filter ------------------------------------------------------------------


def _comparison_mask(
    batch: ColumnBatch, comparison: Comparison, qualified: bool
) -> list[bool]:
    if not is_column_vs_literal(comparison):
        raise KernelUnsupported("not a column-against-literal comparison")
    vector = _resolve(batch, comparison.left, qualified)
    n = batch.num_rows
    if vector is None:
        # Absent column reads as null: the predicate is False everywhere.
        return [False] * n
    if PERF.enabled:
        PERF.inc("columnar.kernel_rows", n)
    matches = to_pushed(comparison).matches
    if vector.is_dict:
        # Evaluate once per distinct value, then sweep codes as a lookup.
        if PERF.enabled:
            PERF.inc("columnar.dict_evals", len(vector.dictionary))
        lut = [matches(value) for value in vector.dictionary]
        j0 = vector.offset
        codes = vector.codes
        if vector.validity is None:
            return [lut[codes[j0 + i]] for i in range(n)]
        validity = vector.validity
        return [
            lut[codes[j0 + i]] if validity.get(j0 + i) else False
            for i in range(n)
        ]
    return [matches(vector.get(i)) for i in range(n)]


def eval_condition_mask(batch: ColumnBatch, node, qualified: bool) -> list[bool]:
    """Boolean mask for a filter condition over a batch.

    Matches ``rowops.eval_condition`` row-for-row; raises
    :class:`KernelUnsupported` for condition shapes the vectorized path
    does not cover.
    """
    if isinstance(node, BoolOp):
        masks = [
            eval_condition_mask(batch, operand, qualified)
            for operand in node.operands
        ]
        if node.op == "AND":
            return [all(bits) for bits in zip(*masks)]
        return [any(bits) for bits in zip(*masks)]
    if isinstance(node, Comparison):
        return _comparison_mask(batch, node, qualified)
    raise KernelUnsupported(f"cannot vectorize condition {node!r}")


def filter_batch(batch: ColumnBatch, node, qualified: bool) -> ColumnBatch:
    """Rows of ``batch`` passing the condition, as a gathered batch."""
    mask = eval_condition_mask(batch, node, qualified)
    selection = [i for i, bit in enumerate(mask) if bit]
    if len(selection) == batch.num_rows:
        return batch
    return batch.take(selection)


# --- aggregation -------------------------------------------------------------


def _cells(page: ColumnBatch, column, qualified: bool) -> list | None:
    """A column's cells: NULLs for an absent column, none for COUNT(*)'s ``*``."""
    if not isinstance(column, Column):
        return None
    vector = _resolve(page, column, qualified)
    return vector.values_list() if vector else [None] * page.num_rows


def aggregate_pages(
    group_cols: Sequence[Column],
    aggs: Sequence[tuple[FuncCall, str | None]],
    pages: Sequence[ColumnBatch],
    qualified: bool,
) -> list[dict]:
    """Grouped aggregation over pages: what ``rowops.aggregate_rows``
    answers over the same rows, fed column-wise in row order."""
    if any(f.args and not isinstance(f.args[0], (Column, Star)) for f, __ in aggs):
        raise KernelUnsupported("non-column aggregate argument")
    try:
        fold, __ = group_fold(group_cols, aggs)
    except SqlPlanError as exc:  # the row path reports it
        raise KernelUnsupported(str(exc)) from None
    for page in pages:
        n = page.num_rows
        if n == 0:
            continue
        if PERF.enabled:
            PERF.inc("columnar.agg_rows", n)
        fold.add_columns(
            [_cells(page, col, qualified) for col in group_cols],
            [_cells(page, f.args[0] if f.args else None, qualified) for f, __ in aggs],
            n,
        )
    return fold.rows()
