"""Vectorized filter and aggregate kernels over column batches.

The kernels are *semantically pinned* to the row-at-a-time operators in
:mod:`repro.sql.planner.rowops`: given the same logical input they
produce byte-identical output (same values, same float accumulation
order, same canonical group order).  That equivalence is what lets the
scheduler pick a kernel whenever a scan returned pages — and what
``tests/columnar`` byte-checks against row-fed fixtures.

The speed comes from working in code space: a predicate over a
dictionary-coded column is evaluated once per *distinct* value
(``columnar.dict_evals``), then applied to rows as an integer-indexed
lookup sweep (``columnar.kernel_rows``), instead of one Python
predicate call per row.  Aggregation pre-materializes each needed
column once per page and updates accumulators from local lists
(``columnar.agg_rows``), instead of per-row dict lookups.

Kernels raise :class:`KernelUnsupported` for shapes they cannot
vectorize (expressions, qualified-join lookups they cannot resolve,
exotic aggregates); callers catch it and fall back to the row adapter,
so coverage grows without ever risking a semantic fork.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.columnar import ColumnBatch, ColumnVector
from repro.common.errors import ReproError
from repro.common.perf import PERF
from repro.sql.parser import BoolOp, Column, Comparison, FuncCall, Star
from repro.sql.planner.rowops import agg_alias, agg_final, agg_init


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


def _compare(op: str, left: Any, comparison: Comparison) -> bool:
    """One predicate evaluation, pinned to ``rowops.eval_condition``."""
    if op == "IN":
        return left in comparison.values
    if op == "BETWEEN":
        return left is not None and comparison.low <= left <= comparison.high
    right = comparison.right.value
    if left is None or right is None:
        return False
    return {
        "=": left == right,
        "!=": left != right,
        ">": left > right,
        ">=": left >= right,
        "<": left < right,
        "<=": left <= right,
    }[op]


def _comparison_mask(
    batch: ColumnBatch, comparison: Comparison, qualified: bool
) -> list[bool]:
    from repro.sql.parser import Literal

    if not isinstance(comparison.left, Column):
        raise KernelUnsupported("non-column comparison left side")
    if comparison.op not in ("IN", "BETWEEN") and not isinstance(
        comparison.right, Literal
    ):
        raise KernelUnsupported("non-literal comparison right side")
    vector = _resolve(batch, comparison.left, qualified)
    n = batch.num_rows
    if vector is None:
        # Absent column reads as null: the predicate is False everywhere.
        return [False] * n
    if PERF.enabled:
        PERF.inc("columnar.kernel_rows", n)
    if vector.is_dict:
        # Evaluate once per distinct value, then sweep codes as a lookup.
        if PERF.enabled:
            PERF.inc("columnar.dict_evals", len(vector.dictionary))
        lut = [
            _compare(comparison.op, value, comparison)
            for value in vector.dictionary
        ]
        j0 = vector.offset
        codes = vector.codes
        if vector.validity is None:
            return [lut[codes[j0 + i]] for i in range(n)]
        validity = vector.validity
        return [
            lut[codes[j0 + i]] if validity.get(j0 + i) else False
            for i in range(n)
        ]
    return [_compare(comparison.op, vector.get(i), comparison) for i in range(n)]


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


def _check_aggs_supported(aggs: Sequence[tuple[FuncCall, str | None]]) -> None:
    for func, __ in aggs:
        if func.name == "COUNT" and (not func.args or isinstance(func.args[0], Star)):
            if func.distinct:
                raise KernelUnsupported("COUNT(DISTINCT *) is not valid")
            continue
        if func.name not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            raise KernelUnsupported(f"aggregate {func.name!r} not vectorized")
        if not func.args or not isinstance(func.args[0], Column):
            raise KernelUnsupported("non-column aggregate argument")


def aggregate_pages(
    group_cols: Sequence[Column],
    aggs: Sequence[tuple[FuncCall, str | None]],
    pages: Sequence[ColumnBatch],
    qualified: bool,
) -> list[dict]:
    """Grouped aggregation over pages, byte-equal to ``aggregate_rows``.

    Accumulators update in row order across pages (same float
    accumulation order as the row path), groups materialize in first-
    seen order, and output sorts by the stringified group key — the
    canonical order shared with pushed-down Pinot aggregation.
    """
    _check_aggs_supported(aggs)
    groups: dict[tuple, list[Any]] = {}
    for page in pages:
        n = page.num_rows
        if n == 0:
            continue
        if PERF.enabled:
            PERF.inc("columnar.agg_rows", n)
        key_lists = []
        for col in group_cols:
            vector = _resolve(page, col, qualified)
            key_lists.append(vector.values_list() if vector else [None] * n)
        value_lists: list[list | None] = []
        for func, __ in aggs:
            if func.name == "COUNT" and (
                not func.args or isinstance(func.args[0], Star)
            ):
                value_lists.append(None)  # COUNT(*): no column read
                continue
            vector = _resolve(page, func.args[0], qualified)
            value_lists.append(vector.values_list() if vector else [None] * n)
        for i in range(n):
            key = tuple(keys[i] for keys in key_lists)
            states = groups.get(key)
            if states is None:
                states = [agg_init(f) for f, __ in aggs]
                groups[key] = states
            for slot, (func, __) in enumerate(aggs):
                values = value_lists[slot]
                if values is None:  # COUNT(*)
                    states[slot] = states[slot] + 1
                    continue
                value = values[i]
                if value is None:
                    continue
                state = states[slot]
                if func.distinct:
                    state.add(value)
                elif func.name == "COUNT":
                    states[slot] = state + 1
                elif func.name == "SUM":
                    states[slot] = state + value
                elif func.name == "AVG":
                    state[0] += value
                    state[1] += 1
                elif func.name == "MIN":
                    states[slot] = min(state, value)
                else:  # MAX
                    states[slot] = max(state, value)
    out = []
    for key, states in groups.items():
        result_row: dict[str, Any] = {}
        for col, value in zip(group_cols, key):
            result_row[col.name] = value
        for (func, alias), stateval in zip(aggs, states):
            result_row[agg_alias(func, alias)] = agg_final(func, stateval)
        out.append(result_row)
    if not group_cols and not out:
        result_row = {}
        for func, alias in aggs:
            result_row[agg_alias(func, alias)] = agg_final(func, agg_init(func))
        out.append(result_row)
    if group_cols:
        out.sort(key=lambda r: tuple(str(r.get(c.name)) for c in group_cols))
    return out
