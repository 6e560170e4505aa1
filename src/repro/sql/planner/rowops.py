"""Row-level relational algebra shared by the planner, the stage
scheduler and the FlinkSQL compiler.

This module maps parsed SQL (``Comparison``, ``FuncCall``, ``Column``
nodes over row dicts) onto :mod:`repro.common.relational`, which owns
what a comparison, an aggregate, a group order and an ORDER BY *mean*.
Pinot executes pushed-down operators with the same rules, so the planner
can treat every pushdown as a pure optimization.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.errors import SqlPlanError
from repro.common.relational import (
    AggregateRule,
    GroupFold,
    Predicate,
    aggregate_rule,
    order_rows,  # noqa: F401  (the engine's ORDER BY is the shared rule)
)
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


def is_column_vs_literal(node) -> bool:
    """The shape a :class:`Predicate` states: pushable, vectorizable."""
    return (
        isinstance(node, Comparison)
        and isinstance(node.left, Column)
        and (node.right is None or isinstance(node.right, Literal))  # IN / BETWEEN
    )


def compile_condition(node, qualified: bool = False) -> Callable[[dict], bool]:
    """``row -> bool`` for a WHERE / HAVING tree.  ``column <op> literal``
    leaves bind the shared cell rule once, here, not once per row."""
    if isinstance(node, BoolOp):
        tests = [compile_condition(op, qualified) for op in node.operands]
        combine = all if node.op == "AND" else any
        return lambda row: combine(test(row) for test in tests)
    if not isinstance(node, Comparison):
        raise SqlPlanError(f"cannot evaluate condition {node!r}")
    left, right = node.left, node.right
    if is_column_vs_literal(node):
        matches = to_pushed(node).matches
        if qualified:
            return lambda row: matches(lookup(row, left, True))
        name = left.name
        return lambda row: matches(row.get(name))
    # Any other operand shape (column against column, literal on the left):
    # the same rule, with the right-hand side read per row.
    name = getattr(left, "name", repr(left))
    return lambda row: Predicate(
        name,
        node.op,
        right and eval_expr(right, row, qualified),  # IN / BETWEEN have none
        node.values,
        node.low,
        node.high,
    ).matches(eval_expr(left, row, qualified))


def eval_condition(node, row: dict, qualified: bool = False) -> bool:
    """One-shot :func:`compile_condition`; per-row callers compile once."""
    return compile_condition(node, qualified)(row)


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


def bind_aggs(
    aggs, qualified: bool = False
) -> tuple[list[str], list[Callable[[dict], Any]], list[AggregateRule]]:
    """Per aggregate of a SELECT list: its output name, ``row -> the
    cell it reads`` and its state rule."""
    aliases, reads, rules = [], [], []
    for func, alias in aggs:
        star = not func.args or isinstance(func.args[0], Star)
        if func.name not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            raise SqlPlanError(f"unknown aggregate function {func.name!r}")
        if (star or func.distinct) and (func.name != "COUNT" or star and func.distinct):
            shape = ("DISTINCT " if func.distinct else "") + ("*" if star else "...")
            raise SqlPlanError(f"{func.name}({shape}) is not valid")
        if star:
            reads.append(lambda row: None)  # COUNT(*) counts rows, not cells
        elif isinstance(func.args[0], Column) and not qualified:
            reads.append(lambda row, name=func.args[0].name: row.get(name))
        else:
            reads.append(lambda row, arg=func.args[0]: eval_expr(arg, row, qualified))
        aliases.append(agg_alias(func, alias))
        rules.append(
            aggregate_rule(
                "DISTINCTCOUNT" if func.distinct else func.name,
                None if star else func.args[0],
            )
        )
    return aliases, reads, rules


def group_fold(group_cols, aggs, qualified: bool = False) -> tuple[GroupFold, list]:
    """The fold a GROUP BY feeds, and each aggregate's cell reader."""
    aliases, reads, rules = bind_aggs(aggs, qualified)
    return GroupFold([c.name for c in group_cols], aliases, rules), reads


def aggregate_rows(
    group_cols: list[Column],
    aggs: list[tuple[FuncCall, str | None]],
    rows: list[dict],
    qualified: bool,
) -> list[dict]:
    fold, reads = group_fold(group_cols, aggs, qualified)
    for row in rows:
        fold.add(
            tuple(lookup(row, c, qualified) for c in group_cols),
            [read(row) for read in reads],
        )
    return fold.rows()


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
        if is_column_vs_literal(conjunct):
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


def to_pushed(comparison: Comparison) -> Predicate:
    column = comparison.left
    assert isinstance(column, Column)
    return Predicate(
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
