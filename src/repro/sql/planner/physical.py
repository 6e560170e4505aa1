"""Physical planner: logical tree -> stage DAG.

Each logical node becomes one :class:`Stage` — ``remote_scan`` for leaves
(the connector does the I/O) and ``local_compute`` for everything the
engine evaluates itself.  Stages carry a *content key*: the blake2b hash
of the canonical rendering of their logical subtree.  Two stages — in the
same query or in different queries — with equal keys compute the same
rows over the same table versions, which is what lets the scheduler
memoize stage outputs across overlapping queries, keyed on
``(content key, table versions)``.

Subqueries dissolve into the DAG: their root stage is marked
``block_boundary`` so per-block statistics (pushed_filters,
pushed_aggregation, joined_rows) stop propagating there, exactly like the
pre-planner engine's per-SELECT ``QueryStats``.

A plan is a value: ``PrestoEngine`` keeps the plan of a text it has
planned and hands the same :class:`PhysicalPlan` to every later ask of
that text, so a stage is built once, with its final fields, and nothing
assigns to it afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Any

from repro.sql.planner.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    SortNode,
    SubqueryNode,
    canonical,
    tables_of,
)

REMOTE_SCAN = "remote_scan"
LOCAL_COMPUTE = "local_compute"


@dataclass(frozen=True)
class Stage:
    sid: int
    kind: str  # remote_scan | local_compute
    op: str  # scan | join | filter | having | aggregate | project | sort | limit
    inputs: tuple  # tuple[int] — sids of input stages, in syntactic order
    node: Any  # the logical node this stage executes
    key: str  # content hash of the canonical logical subtree
    tables: tuple  # tuple[str] — tables under the subtree (version scope)
    block_boundary: bool = False  # True at a subquery root


@dataclass(frozen=True)
class PhysicalPlan:
    stages: tuple  # tuple[Stage], topologically ordered
    root: int


def content_key(node) -> str:
    return blake2b(canonical(node).encode("utf-8"), digest_size=8).hexdigest()


def build_physical(root) -> PhysicalPlan:
    stages: list[Stage] = []

    def emit(kind: str, op: str, inputs: list, node, boundary: bool) -> int:
        sid = len(stages)
        stages.append(
            Stage(
                sid=sid,
                kind=kind,
                op=op,
                inputs=tuple(inputs),
                node=node,
                key=content_key(node),
                tables=tables_of(node),
                block_boundary=boundary,
            )
        )
        return sid

    def visit(node, boundary: bool = False) -> int:
        """Stage ``node``'s subtree; ``boundary`` marks the stage emitted
        for ``node`` itself as a subquery root."""
        if isinstance(node, ScanNode):
            return emit(REMOTE_SCAN, "scan", [], node, boundary)
        if isinstance(node, SubqueryNode):
            return visit(node.plan, boundary=True)
        if isinstance(node, JoinNode):
            inputs = [visit(node.base)]
            inputs.extend(visit(step.right) for step in node.steps)
            return emit(LOCAL_COMPUTE, "join", inputs, node, boundary)
        if isinstance(node, FilterNode):
            op = "having" if node.kind == "having" else "filter"
            return emit(LOCAL_COMPUTE, op, [visit(node.input)], node, boundary)
        if isinstance(node, AggregateNode):
            return emit(LOCAL_COMPUTE, "aggregate", [visit(node.input)], node, boundary)
        if isinstance(node, ProjectNode):
            return emit(LOCAL_COMPUTE, "project", [visit(node.input)], node, boundary)
        if isinstance(node, SortNode):
            return emit(LOCAL_COMPUTE, "sort", [visit(node.input)], node, boundary)
        if isinstance(node, LimitNode):
            return emit(LOCAL_COMPUTE, "limit", [visit(node.input)], node, boundary)
        raise TypeError(f"cannot stage logical node {node!r}")

    root_sid = visit(root)
    return PhysicalPlan(tuple(stages), root_sid)


def _stage_label(stage: Stage) -> str:
    node = stage.node
    if stage.op == "scan":
        return f"scan[{node.connector}:{node.table} AS {node.alias}]"
    if stage.op == "join":
        aliases = [node.base_alias] + [step.alias for step in node.steps]
        return f"join[{' * '.join(aliases)}]"
    return stage.op


def render_physical(plan: PhysicalPlan) -> str:
    """Deterministic one-line-per-stage rendering for explain()."""
    lines = []
    for stage in plan.stages:
        parts = [f"s{stage.sid}", stage.kind, _stage_label(stage)]
        if stage.inputs:
            parts.append("inputs=[" + ", ".join(f"s{i}" for i in stage.inputs) + "]")
        parts.append(f"key={stage.key}")
        if stage.block_boundary:
            parts.append("subquery-root")
        lines.append("  " + " ".join(parts))
    lines.append(f"  root: s{plan.root}")
    return "\n".join(lines)
