"""Row-level relational algebra shared by the planner, the stage
scheduler, the reference executor and the FlinkSQL compiler.

These used to live inline in ``repro.sql.presto.engine``; the planner
split them out so that every execution path (stage DAG, naive reference,
streaming) evaluates expressions and aggregates with byte-identical
semantics.

One deliberate semantic choice lives here: :func:`aggregate_rows` returns
grouped output in *canonical order* — sorted by the stringified group key,
exactly the default order :class:`repro.pinot.broker.PinotBroker` uses for
un-ordered GROUP BY results.  That makes engine-side aggregation and
pushed-down aggregation agree row-for-row, which is what lets the planner
treat aggregation pushdown as a pure optimization.
"""

from __future__ import annotations

import math
from typing import Any

from repro.common.errors import SqlPlanError
from repro.sql.parser import (
    BoolOp,
    Column,
    Comparison,
    FuncCall,
    Literal,
    Select,
    SelectItem,
    Star,
)

# NOTE: this module must not import repro.sql.presto at module level —
# repro.sql.presto.__init__ imports the engine, which imports the planner,
# and a module-level cycle would leave one side partially initialized.
# Connector types are imported lazily where needed.

# --- expression evaluation -----------------------------------------------------


def columns_of(node) -> list[Column]:
    if isinstance(node, Column):
        return [node]
    if isinstance(node, FuncCall):
        return [c for arg in node.args for c in columns_of(arg)]
    if isinstance(node, Comparison):
        return columns_of(node.left) + (
            columns_of(node.right) if node.right is not None else []
        )
    if isinstance(node, BoolOp):
        return [c for operand in node.operands for c in columns_of(operand)]
    return []


def lookup(row: dict, column: Column, qualified: bool) -> Any:
    if qualified:
        if column.table is not None:
            return row.get(f"{column.table}.{column.name}")
        # Unqualified in a join: unique suffix match.
        matches = [v for k, v in row.items() if k.endswith(f".{column.name}")]
        if len(matches) > 1:
            raise SqlPlanError(f"ambiguous column {column.name!r} in join")
        return matches[0] if matches else row.get(column.name)
    return row.get(column.name)


def eval_expr(node, row: dict, qualified: bool = False) -> Any:
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Column):
        return lookup(row, node, qualified)
    raise SqlPlanError(f"cannot evaluate expression {node!r} per-row")


def eval_condition(node, row: dict, qualified: bool = False) -> bool:
    if isinstance(node, BoolOp):
        results = (eval_condition(op, row, qualified) for op in node.operands)
        return all(results) if node.op == "AND" else any(results)
    if isinstance(node, Comparison):
        left = eval_expr(node.left, row, qualified)
        if node.op == "IN":
            return left in node.values
        if node.op == "BETWEEN":
            return left is not None and node.low <= left <= node.high
        right = eval_expr(node.right, row, qualified)
        if left is None or right is None:
            return False
        return {
            "=": left == right,
            "!=": left != right,
            ">": left > right,
            ">=": left >= right,
            "<": left < right,
            "<=": left <= right,
        }[node.op]
    raise SqlPlanError(f"cannot evaluate condition {node!r}")


# --- aggregation --------------------------------------------------------------------


def agg_alias(func: FuncCall, alias: str | None) -> str:
    if alias:
        return alias
    arg = "*"
    if func.args and isinstance(func.args[0], Column):
        arg = func.args[0].name
    name = func.name.lower()
    if func.distinct:
        name = f"{name}_distinct"
    return f"{name}({arg})"


def aggregate_rows(
    group_cols: list[Column],
    aggs: list[tuple[FuncCall, str | None]],
    rows: list[dict],
    qualified: bool,
) -> list[dict]:
    groups: dict[tuple, list[Any]] = {}
    for row in rows:
        key = tuple(lookup(row, c, qualified) for c in group_cols)
        states = groups.get(key)
        if states is None:
            states = [agg_init(f) for f, __ in aggs]
            groups[key] = states
        for i, (func, __) in enumerate(aggs):
            states[i] = agg_update(func, states[i], row, qualified)
    out = []
    for key, states in groups.items():
        result_row: dict[str, Any] = {}
        for col, value in zip(group_cols, key):
            result_row[col.name] = value
        for (func, alias), stateval in zip(aggs, states):
            result_row[agg_alias(func, alias)] = agg_final(func, stateval)
        out.append(result_row)
    if not group_cols and not out:
        # Global aggregation over empty input still yields one row.
        result_row = {}
        for func, alias in aggs:
            result_row[agg_alias(func, alias)] = agg_final(func, agg_init(func))
        out.append(result_row)
    if group_cols:
        # Canonical group order: the PinotBroker default for un-ordered
        # GROUP BY output, so pushed and engine-side aggregation agree.
        out.sort(
            key=lambda r: tuple(str(r.get(c.name)) for c in group_cols)
        )
    return out


def agg_init(func: FuncCall) -> Any:
    if func.distinct:
        return set()
    return {
        "COUNT": 0,
        "SUM": 0.0,
        "AVG": [0.0, 0],
        "MIN": math.inf,
        "MAX": -math.inf,
    }.get(func.name, 0)


def agg_update(func: FuncCall, state: Any, row: dict, qualified: bool) -> Any:
    if func.name == "COUNT" and (not func.args or isinstance(func.args[0], Star)):
        if func.distinct:
            raise SqlPlanError("COUNT(DISTINCT *) is not valid")
        return state + 1
    value = eval_expr(func.args[0], row, qualified) if func.args else None
    if value is None:
        return state
    if func.distinct:
        state.add(value)
        return state
    if func.name == "COUNT":
        return state + 1
    if func.name == "SUM":
        return state + value
    if func.name == "AVG":
        state[0] += value
        state[1] += 1
        return state
    if func.name == "MIN":
        return min(state, value)
    if func.name == "MAX":
        return max(state, value)
    raise SqlPlanError(f"unknown aggregate function {func.name!r}")


def agg_final(func: FuncCall, state: Any) -> Any:
    if func.distinct:
        return len(state)
    if func.name == "AVG":
        return state[0] / state[1] if state[1] else None
    if func.name in ("MIN", "MAX") and state in (math.inf, -math.inf):
        return None
    return state


# --- projection / ordering -----------------------------------------------------------


def project_row(items: list[SelectItem], row: dict, qualified: bool) -> dict:
    out: dict[str, Any] = {}
    for item in items:
        if isinstance(item.expr, Star):
            out.update(row)
        elif isinstance(item.expr, Column):
            name = item.alias or item.expr.name
            out[name] = lookup(row, item.expr, qualified)
        elif isinstance(item.expr, Literal):
            out[item.alias or str(item.expr.value)] = item.expr.value
        else:
            raise SqlPlanError(f"unsupported select expression {item.expr!r}")
    return out


def sort_keys_for(select: Select) -> list[tuple[str, bool]]:
    """Resolve ORDER BY expressions to output column names at plan time."""
    keys: list[tuple[str, bool]] = []
    for expr, descending in select.order_by:
        if isinstance(expr, Column):
            name = expr.name
        elif isinstance(expr, FuncCall):
            name = agg_alias(expr, None)
            # An aliased aggregate may be ordered by its alias instead.
            for item in select.items:
                if item.expr == expr and item.alias:
                    name = item.alias
        else:
            raise SqlPlanError(f"cannot ORDER BY {expr!r}")
        keys.append((name, descending))
    return keys


def order_rows(keys: list[tuple[str, bool]], rows: list[dict]) -> list[dict]:
    for name, descending in reversed(keys):
        rows.sort(key=lambda r: (r.get(name) is None, r.get(name)), reverse=descending)
    return rows


# --- conjunct splitting for pushdown ---------------------------------------------------


def split_conjuncts(condition) -> tuple[list[Comparison], Any]:
    """(pushable simple conjuncts, residual condition)."""
    if condition is None:
        return [], None
    conjuncts: list[Any] = []
    if isinstance(condition, BoolOp) and condition.op == "AND":
        conjuncts = list(condition.operands)
    else:
        conjuncts = [condition]
    pushable: list[Comparison] = []
    residual: list[Any] = []
    for conjunct in conjuncts:
        if (
            isinstance(conjunct, Comparison)
            and isinstance(conjunct.left, Column)
            and (conjunct.right is None or isinstance(conjunct.right, Literal))
        ):
            pushable.append(conjunct)
        else:
            residual.append(conjunct)
    residual_node = None
    if len(residual) == 1:
        residual_node = residual[0]
    elif residual:
        residual_node = BoolOp("AND", tuple(residual))
    return pushable, residual_node


def conjoin(comparisons: list[Comparison], residual) -> Any:
    nodes: list[Any] = list(comparisons)
    if residual is not None:
        nodes.append(residual)
    if not nodes:
        return None
    if len(nodes) == 1:
        return nodes[0]
    return BoolOp("AND", tuple(nodes))


def to_pushed(comparison: Comparison):
    from repro.sql.presto.connector import PushedFilter

    column = comparison.left
    assert isinstance(column, Column)
    return PushedFilter(
        column=column.name,
        op=comparison.op,
        value=comparison.right.value if isinstance(comparison.right, Literal) else None,
        values=comparison.values,
        low=comparison.low,
        high=comparison.high,
    )


def strip_qualifier(comparison: Comparison) -> Comparison:
    column = comparison.left
    assert isinstance(column, Column)
    return Comparison(
        comparison.op,
        Column(column.name),
        comparison.right,
        comparison.values,
        comparison.low,
        comparison.high,
    )


def pushable_agg(func: FuncCall) -> bool:
    if func.distinct:
        return func.name == "COUNT" and bool(func.args)
    return func.name in ("COUNT", "SUM", "AVG", "MIN", "MAX")


def select_is_groups_and_aggs(select: Select) -> bool:
    group_names = {c.name for c in select.group_columns()}
    for item in select.items:
        if isinstance(item.expr, FuncCall):
            continue
        if isinstance(item.expr, Column) and item.expr.name in group_names:
            continue
        return False
    return True


def to_pushed_agg(func: FuncCall, alias: str | None):
    from repro.sql.presto.connector import PushedAggregation

    column = None
    if func.args and isinstance(func.args[0], Column):
        column = func.args[0].name
    name = func.name
    if func.distinct and name == "COUNT":
        name = "DISTINCTCOUNT"
    return PushedAggregation(name, column, agg_alias(func, alias))
