"""Rule optimizer: pushdown + join reordering over the logical IR.

Rewrites a :mod:`repro.sql.planner.logical` tree against the typed
connector contract (:class:`ConnectorCapabilities` +
``estimate(ScanRequest) -> CardinalityEstimate``):

* **Predicate pushdown** — simple ``column op literal`` conjuncts move
  into the Scan of a predicate-capable connector; the residual condition
  stays as an engine-side Filter.  In joins, the *full* WHERE is kept
  engine-side (alias-scoped conjuncts are additionally pushed into the
  matching scan, so the source ships fewer rows but semantics never
  depend on the connector honoring the filter).
* **Projection pushdown** — the scan ships only columns the rest of the
  plan can reference.  Join keys, ORDER BY columns and residual-filter
  columns are always retained; join-side pruning engages only when every
  column reference is alias-qualified (otherwise ambiguity detection
  would change meaning) and never through subqueries.
* **Aggregation pushdown** — whole GROUP BY blocks move into a connector
  that advertises every aggregate function involved, when no residual
  filter remains.  Output order is canonical (stringified group key) on
  both paths, so pushdown is row-for-row invisible.
* **Limit pushdown** — only when truncating at the source provably
  commutes with the rest of the plan: no residual filter, no sort.  (For
  pushed aggregations the source truncates in canonical group order,
  which matches the engine's.)
* **Join reordering** — hash-join build sides execute smallest-first by
  connector cardinality estimates (Pinot: ZoneMap-surviving docs).  The
  scheduler restores the syntactic nested-loop row order afterwards, so
  reordering is invisible in the output.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.sql.parser import Column, Star
from repro.sql.planner.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    SortNode,
    SubqueryNode,
)
from repro.sql.planner.rowops import (
    columns_of,
    conjoin,
    pushable_agg,
    split_conjuncts,
    strip_qualifier,
    to_pushed,
    to_pushed_agg,
)


def optimize(root, catalog: dict[str, Any]):
    """Return an optimized copy of ``root`` (the input tree is not mutated)."""
    return _optimize_block(root, catalog)


# --- one SELECT block ----------------------------------------------------------


def _optimize_block(node, catalog):
    # Unwrap the operator chain of this block down to its source.
    limit_node = sort_node = having_node = where_node = None
    if isinstance(node, LimitNode):
        limit_node, node = node, node.input
    if isinstance(node, SortNode):
        sort_node, node = node, node.input
    if isinstance(node, FilterNode) and node.kind == "having":
        having_node, node = node, node.input
    shaper = node  # AggregateNode | ProjectNode
    node = shaper.input
    if isinstance(node, FilterNode):
        where_node, node = node, node.input
    source = node

    if isinstance(source, (SubqueryNode, JoinNode)):
        if isinstance(source, SubqueryNode):
            source = SubqueryNode(
                _optimize_block(source.plan, catalog), source.alias
            )
        else:
            source = _optimize_join(source, shaper, where_node, sort_node, catalog)
        if where_node is not None:
            source = FilterNode(
                source, where_node.condition, where_node.qualified, "where"
            )
        shaper = _reattach(shaper, source)
    else:
        shaper = _optimize_single_scan(
            source, shaper, where_node, sort_node, limit_node, catalog
        )

    # Reassemble the chain around the rewritten source.
    chain = shaper
    if having_node is not None:
        chain = FilterNode(chain, having_node.condition, False, "having")
    if sort_node is not None:
        chain = replace(sort_node, input=chain)
    if limit_node is not None:
        chain = LimitNode(chain, limit_node.n)
    return chain


def _reattach(shaper, source):
    """Rebuild the Aggregate/Project shaper over a rewritten input."""
    return replace(shaper, input=source)


# --- single-table scan ---------------------------------------------------------


def _optimize_single_scan(scan, shaper, where_node, sort_node, limit_node, catalog):
    from repro.sql.presto.connector import resolve_capabilities

    caps = resolve_capabilities(catalog[scan.table])
    where_cond = where_node.condition if where_node else None
    pushable, residual = split_conjuncts(where_cond)
    if "predicate" in caps and pushable:
        scan = replace(scan, filters=tuple(pushable))
        where_cond = residual
    else:
        where_cond = conjoin(pushable, residual)

    # Aggregation pushdown: the whole GROUP BY block moves to the source.
    can_push_agg = (
        isinstance(shaper, AggregateNode)
        and "aggregation" in caps
        and shaper.aggs
        and where_cond is None
        and shaper.simple
        and all(pushable_agg(f) for f, __ in shaper.aggs)
        and all(
            to_pushed_agg(f, a).func in caps.agg_functions for f, a in shaper.aggs
        )
    )
    if can_push_agg:
        scan = replace(
            scan,
            aggregations=tuple(shaper.aggs),
            group_by=tuple(c.name for c in shaper.group_cols),
        )
        # Source-side truncation commutes only when the engine would also
        # truncate in canonical group order (no sort, no having follows —
        # having is represented as a separate Filter node upstream).
        if limit_node is not None and sort_node is None:
            scan = replace(scan, limit=limit_node.n)
        shaper = replace(shaper, pushed=True)

    # Projection pushdown.
    if "projection" in caps:
        needed = _needed_columns(shaper, where_cond, sort_node)
        if needed is not None:
            scan = replace(scan, columns=tuple(needed))

    # Limit pushdown (non-aggregated): only when source truncation is the
    # identity on the final result — nothing reorders or drops rows later.
    if (
        limit_node is not None
        and not can_push_agg
        and isinstance(shaper, ProjectNode)
        and where_cond is None
        and sort_node is None
        and "limit" in caps
    ):
        scan = replace(scan, limit=limit_node.n)

    if where_cond is not None:
        source = FilterNode(scan, where_cond, False, "where")
    else:
        source = scan
    return _reattach(shaper, source)


def _needed_columns(shaper, where_cond, sort_node):
    """Columns a single-table block needs from its scan (None = all)."""
    columns: set[str] = set()
    if isinstance(shaper, ProjectNode):
        for item in shaper.items:
            if isinstance(item.expr, Star):
                return None
            for col in columns_of(item.expr):
                columns.add(col.name)
    else:
        for func, __ in shaper.aggs:
            for col in columns_of(func):
                columns.add(col.name)
        for col in shaper.group_cols:
            columns.add(col.name)
    if where_cond is not None:
        for col in columns_of(where_cond):
            columns.add(col.name)
    if sort_node is not None:
        for col in sort_node.columns:
            columns.add(col.name)
    return sorted(columns)


# --- joins ---------------------------------------------------------------------


def scan_estimate(scan: ScanNode, catalog: dict[str, Any]):
    """The connector's cardinality for one optimized scan.

    Asked in the two places that read it: the join reorderer, which
    compares build sides, and ``explain()``, which prints one per scan
    when it renders.  A single-table block compares nothing, so planning
    one asks nothing — for Pinot an estimate routes the whole scan."""
    from repro.sql.presto.connector import ScanRequest, connector_estimate

    return connector_estimate(
        catalog[scan.table],
        ScanRequest(table=scan.table, filters=[to_pushed(c) for c in scan.filters]),
    )


def _optimize_join(join, shaper, where_node, sort_node, catalog):
    from repro.sql.presto.connector import UNKNOWN_CARDINALITY, resolve_capabilities

    where_cond = where_node.condition if where_node else None
    pushable, __ = split_conjuncts(where_cond)
    pruned_columns = _join_pruned_columns(join, shaper, where_cond, sort_node)

    def rewrite_side(side, alias):
        if isinstance(side, SubqueryNode):
            return SubqueryNode(_optimize_block(side.plan, catalog), side.alias), None
        caps = resolve_capabilities(catalog[side.table])
        # Only predicates explicitly scoped to this alias go down with
        # this scan; the full WHERE still runs engine-side afterwards.
        mine = (
            [
                strip_qualifier(c)
                for c in pushable
                if isinstance(c.left, Column) and c.left.table == alias
            ]
            if "predicate" in caps
            else []
        )
        scan = replace(side, filters=tuple(mine))
        if (
            pruned_columns is not None
            and "projection" in caps
            and alias in pruned_columns
        ):
            scan = replace(scan, columns=tuple(sorted(pruned_columns[alias])))
        return scan, scan_estimate(scan, catalog)

    base, __ = rewrite_side(join.base, join.base_alias)
    steps = []
    step_rows = []
    for step in join.steps:
        right, estimate = rewrite_side(step.right, step.alias)
        steps.append(replace(step, right=right))
        step_rows.append(estimate.rows if estimate is not None else UNKNOWN_CARDINALITY)

    # Greedy smallest-build-side-first ordering; a step is applicable once
    # its probe side has been joined.  Syntactic order breaks ties and is
    # the fallback when no remaining step is applicable (mis-qualified ON
    # clauses keep their original — if degenerate — behavior).
    joined_aliases = {join.base_alias}
    remaining = list(range(len(steps)))
    exec_order: list[int] = []
    while remaining:
        applicable = [
            i for i in remaining if steps[i].probe_key.table in joined_aliases
        ]
        if not applicable:
            exec_order.extend(remaining)
            break
        pick = min(applicable, key=lambda i: (step_rows[i], i))
        exec_order.append(pick)
        remaining.remove(pick)
        joined_aliases.add(steps[pick].alias)
    return JoinNode(base, join.base_alias, tuple(steps), tuple(exec_order))


def _join_pruned_columns(join, shaper, where_cond, sort_node):
    """Per-alias column sets for join-side projection pushdown, or None.

    Pruning engages only when it provably cannot change semantics:

    * no Star in the select items;
    * every column reference anywhere in the block is qualified with a
      known alias (unqualified references resolve by suffix match over
      the joined row, and dropping columns could silently change an
      "ambiguous column" error into a hit);
    * every join key resolves to a known alias.

    Join keys, ORDER BY columns and filter columns are always retained —
    the historical projection-pushdown bug this rule family guards
    against by construction.
    """
    aliases = [join.base_alias] + [step.alias for step in join.steps]
    if len(set(aliases)) != len(aliases):
        return None
    known = set(aliases)
    refs: list[Column] = []
    if isinstance(shaper, ProjectNode):
        for item in shaper.items:
            if isinstance(item.expr, Star):
                return None
            refs.extend(columns_of(item.expr))
    else:
        for func, __ in shaper.aggs:
            refs.extend(columns_of(func))
        refs.extend(shaper.group_cols)
    if where_cond is not None:
        refs.extend(columns_of(where_cond))
    if sort_node is not None:
        refs.extend(sort_node.columns)
    needed: dict[str, set[str]] = {alias: set() for alias in aliases}
    for col in refs:
        if col.table is None or col.table not in known:
            return None
        needed[col.table].add(col.name)
    for step in join.steps:
        probe, build = step.probe_key, step.build_key
        if probe.table not in known or build.table != step.alias:
            return None
        needed[probe.table].add(probe.name)
        needed[build.table].add(build.name)
    return needed
