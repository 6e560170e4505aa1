"""Logical plan IR for the federated planner (Section 4.5).

``build_logical`` lowers a parsed :class:`repro.sql.parser.Select` into a
small tree of relational operators:

    Scan / Subquery  ->  [Join]  ->  [Filter]  ->  Aggregate | Project
                     ->  [Filter(having)]  ->  [Sort]  ->  [Limit]

The tree is deliberately shaped like the query (one operator chain per
SELECT block) rather than a fully general algebra — the rule optimizer in
``repro.sql.planner.rules`` rewrites it in place-for-place fashion by
rebuilding nodes, and the physical planner maps each node to a stage.

Two renderings are provided:

* :func:`render` — an indented, human-diffable tree used by
  ``PrestoEngine.explain``.  Byte-stable across runs for the same catalog.
* :func:`canonical` — a compact single-line s-expression used as the
  content-hash key for stage artifacts.  It covers everything that affects
  a subtree's *output rows* (and excludes cost annotations and join
  execution order, which affect only how the rows are computed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

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
    SubqueryRef,
)
from repro.sql.planner.rowops import (
    columns_of,
    select_is_groups_and_aggs,
    sort_keys_for,
)

# --- nodes ---------------------------------------------------------------------


@dataclass(frozen=True)
class ScanNode:
    """Leaf: one connector scan, annotated with everything pushed into it."""

    table: str
    alias: str
    connector: str
    filters: tuple = ()  # tuple[Comparison] the connector will apply
    columns: tuple | None = None  # projection pushdown (None = all)
    aggregations: tuple | None = None  # tuple[(FuncCall, alias)] when agg pushed
    group_by: tuple | None = None
    limit: int | None = None


@dataclass(frozen=True)
class SubqueryNode:
    """A materialized FROM-subquery; ``plan`` is the inner root."""

    plan: Any
    alias: str


@dataclass(frozen=True)
class JoinStep:
    right: Any  # ScanNode | SubqueryNode
    alias: str
    probe_key: Column  # key on the already-joined side (qualified)
    build_key: Column  # key on the incoming side


@dataclass(frozen=True)
class JoinNode:
    base: Any  # ScanNode | SubqueryNode
    base_alias: str
    steps: tuple  # tuple[JoinStep] in syntactic order
    exec_order: tuple = ()  # optimizer-chosen execution order (cost only)


@dataclass(frozen=True)
class FilterNode:
    input: Any
    condition: Any
    qualified: bool
    kind: str = "where"  # 'where' | 'having'


@dataclass(frozen=True)
class AggregateNode:
    input: Any
    group_cols: tuple  # tuple[Column]
    aggs: tuple  # tuple[(FuncCall, alias)]
    qualified: bool
    pushed: bool = False  # satisfied by the connector; stage just passes through
    # True when every select item is an aggregate or a group column —
    # the only shape whose output a connector can produce verbatim.
    simple: bool = True


@dataclass(frozen=True)
class ProjectNode:
    input: Any
    items: tuple  # tuple[SelectItem]
    qualified: bool


@dataclass(frozen=True)
class SortNode:
    input: Any
    keys: tuple  # tuple[(output column name, descending)]
    # Source columns the ORDER BY expressions reference — retained by
    # projection pushdown so sorting never loses its inputs (cost-only
    # annotation; the keys above define the output).
    columns: tuple = ()


@dataclass(frozen=True)
class LimitNode:
    input: Any
    n: int


# --- builder -------------------------------------------------------------------


def build_logical(select: Select, connector_of: Callable[[str], str]):
    """Lower a parsed SELECT into the logical IR (no optimization yet).

    ``connector_of`` maps a table name to its connector's name and raises
    ``SqlPlanError`` for tables missing from the catalog — so unknown
    tables fail at plan time, exactly like the pre-planner engine.
    """
    if select.window() is not None:
        raise SqlPlanError(
            "TUMBLE/HOP windows are streaming SQL; use FlinkSqlCompiler"
        )

    def source_node(table_source):
        if isinstance(table_source, SubqueryRef):
            return SubqueryNode(
                build_logical(table_source.select, connector_of),
                table_source.alias,
            )
        return ScanNode(
            table=table_source.name,
            alias=table_source.alias or table_source.name,
            connector=connector_of(table_source.name),
        )

    qualified = bool(select.joins)
    base = source_node(select.source)
    if select.joins:
        base_alias = base.alias
        steps = []
        for clause in select.joins:
            right = source_node(clause.table)
            left_key, right_key = clause.left_key, clause.right_key
            # Allow the ON clause in either order.
            if right_key.table == base_alias or left_key.table == right.alias:
                left_key, right_key = right_key, left_key
            steps.append(
                JoinStep(right, right.alias, probe_key=left_key, build_key=right_key)
            )
        node: Any = JoinNode(
            base, base_alias, tuple(steps), tuple(range(len(steps)))
        )
    else:
        node = base
    if select.where is not None:
        node = FilterNode(node, select.where, qualified, "where")
    aggs = select.aggregations()
    if aggs:
        node = AggregateNode(
            node,
            tuple(select.group_columns()),
            tuple(aggs),
            qualified,
            simple=select_is_groups_and_aggs(select),
        )
        if select.having is not None:
            node = FilterNode(node, select.having, False, "having")
    else:
        node = ProjectNode(node, tuple(select.items), qualified)
    keys = sort_keys_for(select)
    if keys:
        order_columns = tuple(
            col for expr, __ in select.order_by for col in columns_of(expr)
        )
        node = SortNode(node, tuple(keys), order_columns)
    if select.limit:
        node = LimitNode(node, select.limit)
    return node


# --- traversal helpers ---------------------------------------------------------


def children(node) -> tuple:
    if isinstance(node, (FilterNode, AggregateNode, ProjectNode, SortNode, LimitNode)):
        return (node.input,)
    if isinstance(node, JoinNode):
        return (node.base,) + tuple(step.right for step in node.steps)
    if isinstance(node, SubqueryNode):
        return (node.plan,)
    return ()


def scan_nodes(node) -> Iterator[ScanNode]:
    """All ScanNodes in syntactic (depth-first) order, subqueries included."""
    if isinstance(node, ScanNode):
        yield node
    for child in children(node):
        yield from scan_nodes(child)


def direct_scan_nodes(node) -> Iterator[ScanNode]:
    """ScanNodes of the outermost SELECT block only (not inside subqueries)."""
    if isinstance(node, ScanNode):
        yield node
    elif not isinstance(node, SubqueryNode):
        for child in children(node):
            yield from direct_scan_nodes(child)


def tables_of(node) -> tuple[str, ...]:
    """Distinct tables under a subtree, sorted — the artifact epoch scope."""
    return tuple(sorted({scan.table for scan in scan_nodes(node)}))


# --- expression rendering ------------------------------------------------------


def render_literal(value) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def render_expr(node) -> str:
    if isinstance(node, Star):
        return "*"
    if isinstance(node, Column):
        return node.qualified()
    if isinstance(node, Literal):
        return render_literal(node.value)
    if isinstance(node, FuncCall):
        args = ", ".join(render_expr(a) for a in node.args)
        prefix = "DISTINCT " if node.distinct else ""
        return f"{node.name}({prefix}{args})"
    if isinstance(node, Comparison):
        left = render_expr(node.left)
        if node.op == "IN":
            vals = ", ".join(render_literal(v) for v in node.values)
            return f"{left} IN ({vals})"
        if node.op == "BETWEEN":
            return (
                f"{left} BETWEEN {render_literal(node.low)}"
                f" AND {render_literal(node.high)}"
            )
        return f"{left} {node.op} {render_expr(node.right)}"
    if isinstance(node, BoolOp):
        inner = f" {node.op} ".join(render_expr(op) for op in node.operands)
        return f"({inner})"
    if isinstance(node, SelectItem):
        rendered = render_expr(node.expr)
        return f"{rendered} AS {node.alias}" if node.alias else rendered
    raise SqlPlanError(f"cannot render expression {node!r}")


def _render_agg(func: FuncCall, alias: str | None) -> str:
    rendered = render_expr(func)
    return f"{rendered} AS {alias}" if alias else rendered


# --- canonical rendering (artifact content keys) --------------------------------


def canonical(node) -> str:
    """Single-line, output-defining rendering of a plan subtree.

    Excludes join ``exec_order`` (a cost-only annotation): two plans that
    return the same rows hash identically even if the optimizer chose
    different execution strategies.
    """
    if isinstance(node, ScanNode):
        parts = [f"scan {node.connector}:{node.table} as {node.alias}"]
        if node.filters:
            parts.append(
                "filters=[" + ", ".join(render_expr(f) for f in node.filters) + "]"
            )
        if node.columns is not None:
            parts.append("columns=[" + ", ".join(node.columns) + "]")
        if node.aggregations is not None:
            parts.append(
                "aggs=["
                + ", ".join(_render_agg(f, a) for f, a in node.aggregations)
                + "]"
            )
        if node.group_by is not None:
            parts.append("group=[" + ", ".join(node.group_by) + "]")
        if node.limit is not None:
            parts.append(f"limit={node.limit}")
        return "(" + " ".join(parts) + ")"
    if isinstance(node, SubqueryNode):
        return f"(subquery {node.alias} {canonical(node.plan)})"
    if isinstance(node, JoinNode):
        steps = " ".join(
            f"(join-step {s.alias} probe={s.probe_key.qualified()}"
            f" build={s.build_key.qualified()} {canonical(s.right)})"
            for s in node.steps
        )
        return f"(join base={node.base_alias} {canonical(node.base)} {steps})"
    if isinstance(node, FilterNode):
        return (
            f"(filter:{node.kind} {render_expr(node.condition)}"
            f" q={int(node.qualified)} {canonical(node.input)})"
        )
    if isinstance(node, AggregateNode):
        group = ", ".join(c.qualified() for c in node.group_cols)
        aggs = ", ".join(_render_agg(f, a) for f, a in node.aggs)
        return (
            f"(aggregate group=[{group}] aggs=[{aggs}]"
            f" pushed={int(node.pushed)} q={int(node.qualified)}"
            f" {canonical(node.input)})"
        )
    if isinstance(node, ProjectNode):
        items = ", ".join(render_expr(i) for i in node.items)
        return f"(project [{items}] q={int(node.qualified)} {canonical(node.input)})"
    if isinstance(node, SortNode):
        keys = ", ".join(
            f"{name} {'DESC' if desc else 'ASC'}" for name, desc in node.keys
        )
        return f"(sort [{keys}] {canonical(node.input)})"
    if isinstance(node, LimitNode):
        return f"(limit {node.n} {canonical(node.input)})"
    raise SqlPlanError(f"cannot render plan node {node!r}")


# --- explain rendering ---------------------------------------------------------


def render(node, estimate_of: Callable[[ScanNode], Any], indent: int = 0) -> str:
    """Indented top-down tree with pushdown and cost annotations.

    ``estimate_of`` answers a scan's CardinalityEstimate; it is asked here,
    once per scan printed, so the ``estimate:`` lines are as of rendering.
    """
    pad = "  " * indent
    if isinstance(node, ScanNode):
        parts = [f"{pad}Scan[{node.connector}:{node.table} AS {node.alias}]"]
        if node.filters:
            parts.append(
                pad
                + "  pushed-filters: "
                + ", ".join(render_expr(f) for f in node.filters)
            )
        if node.columns is not None:
            parts.append(pad + "  pushed-columns: " + ", ".join(node.columns))
        if node.aggregations is not None:
            group = ", ".join(node.group_by or ())
            aggs = ", ".join(_render_agg(f, a) for f, a in node.aggregations)
            parts.append(pad + f"  pushed-aggregation: [{aggs}] group=[{group}]")
        if node.limit is not None:
            parts.append(pad + f"  pushed-limit: {node.limit}")
        est = estimate_of(node)
        marker = "=" if est.exact else "~"
        parts.append(pad + f"  estimate: {marker}{est.rows} rows ({est.source})")
        return "\n".join(parts)
    if isinstance(node, SubqueryNode):
        return f"{pad}Subquery[AS {node.alias}]\n" + render(
            node.plan, estimate_of, indent + 1
        )
    if isinstance(node, JoinNode):
        order = (
            " exec-order=["
            + ", ".join(node.steps[i].alias for i in node.exec_order)
            + "]"
            if tuple(node.exec_order) != tuple(range(len(node.steps)))
            else ""
        )
        lines = [f"{pad}Join[base={node.base_alias}{order}]"]
        lines.append(render(node.base, estimate_of, indent + 1))
        for step in node.steps:
            lines.append(
                f"{pad}  On[{step.probe_key.qualified()} ="
                f" {step.build_key.qualified()}]"
            )
            lines.append(render(step.right, estimate_of, indent + 2))
        return "\n".join(lines)
    if isinstance(node, FilterNode):
        label = "Having" if node.kind == "having" else "Filter"
        return (
            f"{pad}{label}[{render_expr(node.condition)}]\n"
            + render(node.input, estimate_of, indent + 1)
        )
    if isinstance(node, AggregateNode):
        group = ", ".join(c.qualified() for c in node.group_cols)
        aggs = ", ".join(_render_agg(f, a) for f, a in node.aggs)
        pushed = " (pushed)" if node.pushed else ""
        return (
            f"{pad}Aggregate[group=[{group}] aggs=[{aggs}]]{pushed}\n"
            + render(node.input, estimate_of, indent + 1)
        )
    if isinstance(node, ProjectNode):
        items = ", ".join(render_expr(i) for i in node.items)
        return f"{pad}Project[{items}]\n" + render(
            node.input, estimate_of, indent + 1
        )
    if isinstance(node, SortNode):
        keys = ", ".join(
            f"{name} {'DESC' if desc else 'ASC'}" for name, desc in node.keys
        )
        return f"{pad}Sort[{keys}]\n" + render(node.input, estimate_of, indent + 1)
    if isinstance(node, LimitNode):
        return f"{pad}Limit[{node.n}]\n" + render(node.input, estimate_of, indent + 1)
    raise SqlPlanError(f"cannot render plan node {node!r}")
