"""The Presto-style federated query engine (Section 4.5).

An MPP-in-miniature: all execution is in memory; connectors provide the
I/O.  Queries flow through the planner pipeline in ``repro.sql.planner``:

    parse -> logical IR -> rule optimizer -> physical stage DAG
          -> multi-worker stage scheduler

The optimizer pushes predicates, projections, aggregations and limits
into connectors per their typed :class:`ConnectorCapabilities`, and
reorders hash joins by connector cardinality estimates (Pinot ZoneMaps,
Hive row counts).  The scheduler memoizes stage outputs across queries,
keyed on ``(content-hashed plan subtree, table epochs)``, composing with
the broker's epoch-invalidated result cache one layer down.  Queries can
join tables across connectors — the "combine Pinot's seconds level data
freshness with Presto's flexibility" story of Section 4.3.2 — and
subqueries in FROM dissolve into the same stage DAG.

A text is planned once per catalog.  ``execute`` keeps the plan of every
text it plans in an :class:`~repro.common.epochcache.EpochCache` whose
epoch is the catalog's ``(table, connector)`` pairs, so re-pointing or
adding a table re-plans every text, and a dashboard asking the same query
again skips parse, rules and staging.  A plan whose optimization read a
cardinality estimate is not kept: its join order follows the tables as
they are now.  Table epochs are still read on every execution, so the
stage-artifact stores and the broker's cache alone decide freshness; a
kept plan holds no data.

``PrestoEngine.explain(sql)`` renders both plans byte-stably;
``QueryOutput.plan`` carries the full :class:`PlannedQuery` so callers
can introspect what actually ran.  Several callers may hold the same
kept plan, so it is a value by type: ``PlannedQuery``, ``PhysicalPlan``
and ``Stage`` are frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.clock import Clock, SystemClock
from repro.common.epochcache import EpochCache, copy_rows
from repro.common.errors import SqlPlanError
from repro.observability.trace import SpanCollector
from repro.sql.parser import parse
from repro.sql.planner.logical import (
    build_logical,
    direct_scan_nodes,
    render,
    scan_nodes,
)
from repro.sql.planner.physical import PhysicalPlan, build_physical, render_physical
from repro.sql.planner.rules import optimize, scan_estimate
from repro.sql.planner.scheduler import StageScheduler

from repro.sql.presto.connector import Connector, connector_epoch

#: Plans an engine keeps, one per SQL text; the least recently asked
#: text is the first to go.
PLAN_CAPACITY = 128


@dataclass
class QueryStats:
    """Execution evidence for the pushdown benches (C10)."""

    rows_transferred: int = 0  # connector -> engine
    source_rows_examined: int = 0
    pushed_filters: int = 0
    pushed_aggregation: bool = False
    joined_rows: int = 0
    connectors_used: list[str] = field(default_factory=list)
    tables_scanned: list[str] = field(default_factory=list)
    # Uniform pruning/caching evidence, summed over every scan the query
    # performed (Pinot scans fill the segment/server fields, Hive scans
    # the file fields).
    servers_queried: int = 0
    segments_scanned: int = 0
    segments_pruned: int = 0
    files_scanned: int = 0
    files_pruned: int = 0
    cache_hits: int = 0
    # Stage scheduler evidence: how much of the plan actually ran versus
    # was served from the cross-query stage artifact store.
    stages_executed: int = 0
    stage_artifact_hits: int = 0


@dataclass(frozen=True)
class PlannedQuery:
    """A query after planning but before (or after) execution."""

    sql: str
    logical: Any  # optimized logical plan root
    physical: PhysicalPlan
    catalog: dict[str, Connector]  # what explain() asks for estimates

    def explain(self) -> str:
        """Deterministic, byte-stable rendering of both plan layers.  The
        ``estimate:`` lines are asked of the connectors now, not recalled
        from planning: on a kept plan they describe the tables as they
        are when this is called."""
        rendered = render(self.logical, lambda scan: scan_estimate(scan, self.catalog))
        logical_text = "\n".join("  " + line for line in rendered.splitlines())
        return (
            "Logical plan:\n"
            + logical_text
            + "\nPhysical plan:\n"
            + render_physical(self.physical)
        )


@dataclass
class QueryOutput:
    rows: list[dict[str, Any]]
    stats: QueryStats
    plan: PlannedQuery | None = None


class PrestoEngine:
    """Federated executor over a catalog of connectors."""

    def __init__(
        self,
        catalog: dict[str, Connector],
        clock: Clock | None = None,
        tracer: SpanCollector | None = None,
        workers: int = 2,
    ) -> None:
        # catalog: logical table name -> connector serving it
        self.catalog = catalog
        self.clock = clock or SystemClock()
        self.tracer = tracer
        self.scheduler = StageScheduler(
            catalog, workers=workers, tracer=tracer, clock=self.clock
        )
        # SQL text -> PlannedQuery, valid for one catalog (see execute).
        self._plans = EpochCache(PLAN_CAPACITY)
        self._query_seq = 0

    # -- planning -------------------------------------------------------------

    def plan(self, sql: str) -> PlannedQuery:
        """Parse, optimize and stage ``sql`` without executing it (and
        without keeping the plan: every call plans afresh)."""
        logical = build_logical(parse(sql), self._connector_name_for)
        logical = optimize(logical, self.catalog)
        return PlannedQuery(sql, logical, build_physical(logical), self.catalog)

    def explain(self, sql: str) -> str:
        return self.plan(sql).explain()

    # -- execution ------------------------------------------------------------

    def execute(self, sql: str) -> QueryOutput:
        """Run ``sql``, planning it only if this engine has no plan for it.

        A text is planned once per catalog: its plan is kept under the text
        for as long as the catalog holds the same ``(table, connector)``
        pairs it was planned against.  A plan that read a cardinality
        estimate — the join reorderer is the one rule that reads one — is
        not kept, so every execute of a join plans it against the
        estimates of the moment.  A text that fails to plan is not kept
        either: it raises on every ask.  Freshness is not the plan's
        business: the table epochs below are read on every execution.
        """
        catalog = tuple(self.catalog.items())
        planned = self._plans.get(sql, catalog)
        if planned is None:
            planned = self.plan(sql)
            if not any(stage.op == "join" for stage in planned.physical.stages):
                self._plans.put(sql, catalog, planned)
        self._query_seq += 1
        query_id = f"presto-q{self._query_seq:06d}"
        start = self.clock.now() if self.tracer is not None else 0.0
        # A table epoch counts one connector's versions of the table, so it
        # travels with that connector: a table re-pointed at another
        # connector whose count happens to match serves none of the old
        # one's artifacts.
        epochs: dict[str, tuple | None] = {}
        for scan in scan_nodes(planned.logical):
            if scan.table not in epochs:
                connector = self.catalog[scan.table]
                epoch = connector_epoch(connector, scan.table)
                epochs[scan.table] = None if epoch is None else (connector, epoch)
        payload, executions = self.scheduler.run(planned.physical, epochs, query_id)
        stats = self._fold_stats(planned, payload, executions)
        # The engine's one exit: everything below shares its rows with the
        # artifact stores, the broker's cache and the segments themselves.
        output = QueryOutput(copy_rows(payload.as_rows()), stats, planned)
        if self.tracer is not None:
            end = self.clock.now()
            for table in dict.fromkeys(stats.tables_scanned):
                self.tracer.record_table_query(
                    table,
                    "presto",
                    start=start,
                    end=end,
                    rows=len(output.rows),
                )
        return output

    # -- helpers --------------------------------------------------------------

    def _connector_name_for(self, table: str) -> str:
        if table not in self.catalog:
            raise SqlPlanError(f"table {table!r} is not in the Presto catalog")
        return self.catalog[table].name

    @staticmethod
    def _fold_stats(planned: PlannedQuery, payload, executions) -> QueryStats:
        evidence = payload.evidence
        stats = QueryStats(
            rows_transferred=evidence.rows_transferred,
            source_rows_examined=evidence.source_rows_examined,
            pushed_filters=evidence.pushed_filters,
            pushed_aggregation=evidence.pushed_aggregation,
            joined_rows=evidence.joined_rows,
            servers_queried=evidence.servers_queried,
            segments_scanned=evidence.segments_scanned,
            segments_pruned=evidence.segments_pruned,
            files_scanned=evidence.files_scanned,
            files_pruned=evidence.files_pruned,
            cache_hits=evidence.cache_hits,
        )
        stats.tables_scanned = [s.table for s in scan_nodes(planned.logical)]
        stats.connectors_used = [
            s.connector for s in direct_scan_nodes(planned.logical)
        ]
        stats.stages_executed = sum(
            1 for e in executions if not e.served_from_artifact
        )
        stats.stage_artifact_hits = sum(
            1 for e in executions if e.served_from_artifact
        )
        return stats
