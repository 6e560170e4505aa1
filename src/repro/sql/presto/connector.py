"""Presto Connector API (Section 4.5).

"Presto is designed to be flexible and extensible.  It provides a
Connector API with high performance I/O interface to multiple data
sources."  Connectors advertise *capabilities*; the engine pushes the
matching plan fragments down and keeps the rest.

The Pinot connector reproduces the paper's two-stage history: the first
version "only included predicate pushdown given the limited connector
API"; the enhanced version pushes "as many operators down to the Pinot
layer as possible, such as projection, aggregation and limit".  Construct
it with ``pushdown="predicate"`` or ``pushdown="full"`` (or ``"none"``) to
measure each stage (bench C10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.columnar import pages_to_rows
from repro.common.errors import SqlPlanError
from repro.common.relational import Predicate
from repro.pinot.broker import PinotBroker
from repro.pinot.query import Aggregation, PinotQuery
from repro.storage.hive import HiveMetastore

_CAPABILITY_FLAGS = ("predicate", "projection", "aggregation", "limit")

# Cardinality assigned to sources that cannot estimate at all: large, so
# the join reorderer builds hash tables from anything it *can* cost first.
UNKNOWN_CARDINALITY = 10**9


@dataclass(frozen=True)
class ConnectorCapabilities:
    """Typed pushdown contract a connector advertises to the planner.

    ``in`` checks against capability names work (``"predicate" in caps``),
    so call sites read naturally.
    """

    predicate: bool = False
    projection: bool = False
    aggregation: bool = False
    limit: bool = False
    # Aggregate functions the source can finalize itself (engine-side
    # names; COUNT DISTINCT travels as DISTINCTCOUNT).  Only consulted
    # when ``aggregation`` is True.
    agg_functions: frozenset[str] = frozenset()

    def __contains__(self, capability: str) -> bool:
        return capability in _CAPABILITY_FLAGS and bool(getattr(self, capability))


@dataclass(frozen=True)
class CardinalityEstimate:
    """Planner-facing row-count estimate for one ScanRequest."""

    rows: int
    exact: bool = False  # True when ``rows`` is a real count, not a bound
    source: str = "unknown"  # provenance annotation for explain()


def resolve_capabilities(connector) -> ConnectorCapabilities:
    """Capabilities of ``connector``, checked to be the typed contract."""
    caps = connector.capabilities()
    if isinstance(caps, ConnectorCapabilities):
        return caps
    raise SqlPlanError(
        f"connector capabilities must be ConnectorCapabilities, "
        f"got {type(caps).__name__}"
    )


def connector_estimate(connector, request: "ScanRequest") -> CardinalityEstimate:
    """Estimate via the connector, tolerating legacy connectors without
    ``estimate()`` (they plan as unknown-cardinality sources)."""
    estimate = getattr(connector, "estimate", None)
    if estimate is None:
        return CardinalityEstimate(UNKNOWN_CARDINALITY, False, "unknown")
    return estimate(request)


def connector_epoch(connector, table: str) -> int | None:
    """Freshness epoch of ``table``, or None when the connector cannot
    version its data (stages over such tables are never artifact-cached)."""
    table_epoch = getattr(connector, "table_epoch", None)
    if table_epoch is None:
        return None
    try:
        return table_epoch(table)
    except Exception:
        return None


def heuristic_selectivity(rows: int, filters: list["PushedFilter"]) -> int:
    """Deterministic post-filter cardinality guess from a pre-filter bound:
    equality-shaped predicates are assumed ~8x selective, ranges ~2x."""
    if rows <= 0:
        return 0
    for flt in filters:
        if flt.op in ("=", "IN"):
            rows = max(1, rows // 8)
        else:
            rows = max(1, rows // 2)
    return rows


#: A pushable predicate: the record Pinot and Hive evaluate as it stands.
PushedFilter = Predicate


@dataclass(frozen=True)
class PushedAggregation:
    func: str  # COUNT/SUM/AVG/MIN/MAX/DISTINCTCOUNT
    column: str | None
    alias: str


@dataclass
class ScanRequest:
    """What the engine asks a connector for."""

    table: str
    filters: list[PushedFilter] = field(default_factory=list)
    columns: list[str] | None = None
    aggregations: list[PushedAggregation] | None = None
    group_by: list[str] | None = None
    limit: int | None = None


@dataclass
class ScanResult:
    rows: list[dict[str, Any]]
    # Columnar form: ColumnBatch pages in place of ``rows`` (``rows`` is
    # then empty).  The engine takes pages whenever a scan returns them;
    # a row-only connector simply never sets this.
    pages: list | None = None
    filters_applied: bool = False  # connector already applied the filters
    aggregated: bool = False  # rows are final aggregation results
    source_rows_examined: int = 0  # work done inside the source system
    rows_transferred: int = 0  # rows shipped source -> Presto worker
    # Uniform per-scan pruning/caching stats so benches over different
    # connectors report comparable numbers.  Pinot scans fill the segment
    # and server fields, Hive scans the file fields; a source that prunes
    # nothing reports zeros.
    servers_queried: int = 0
    segments_scanned: int = 0
    segments_pruned: int = 0
    files_scanned: int = 0
    files_pruned: int = 0
    cache_hit: bool = False

    def as_rows(self) -> list[dict[str, Any]]:
        """The scanned rows as dicts, whichever form the scan came in."""
        return pages_to_rows(self.pages) if self.pages is not None else self.rows


class Connector(Protocol):
    name: str

    def capabilities(self) -> ConnectorCapabilities:
        """What this connector can push down."""
        ...

    def scan(self, request: ScanRequest) -> ScanResult: ...

    def estimate(self, request: ScanRequest) -> CardinalityEstimate:
        """Planning-time cardinality for the scan — no data access."""
        ...

    def table_epoch(self, table: str) -> int:
        """Freshness version of the table; bumps on every data mutation."""
        ...


_PINOT_FUNCS = {"COUNT", "SUM", "AVG", "MIN", "MAX", "DISTINCTCOUNT"}


class PinotConnector:
    """Connector over our Pinot broker with configurable pushdown stages."""

    def __init__(self, broker: PinotBroker, pushdown: str = "full") -> None:
        if pushdown not in ("none", "predicate", "full"):
            raise SqlPlanError(f"unknown pushdown level {pushdown!r}")
        self.name = "pinot"
        self.broker = broker
        self.pushdown = pushdown

    def capabilities(self) -> ConnectorCapabilities:
        if self.pushdown == "none":
            return ConnectorCapabilities()
        if self.pushdown == "predicate":
            return ConnectorCapabilities(predicate=True)
        return ConnectorCapabilities(
            predicate=True,
            projection=True,
            aggregation=True,
            limit=True,
            agg_functions=frozenset(_PINOT_FUNCS),
        )

    def estimate(self, request: ScanRequest) -> CardinalityEstimate:
        """ZoneMap-informed estimate: docs in segments the broker's pruning
        would actually scatter to, narrowed by a selectivity heuristic."""
        docs, exact = self.broker.estimate_rows(request.table, request.filters)
        if not request.filters:
            return CardinalityEstimate(docs, exact, "pinot-zonemaps")
        return CardinalityEstimate(
            heuristic_selectivity(docs, request.filters), False, "pinot-zonemaps"
        )

    def table_epoch(self, table: str) -> int:
        return self.broker.controller.table(table).epoch

    def scan(self, request: ScanRequest) -> ScanResult:
        caps = self.capabilities()
        filters = list(request.filters) if "predicate" in caps else []
        if (
            request.aggregations is not None
            and "aggregation" in caps
            and all(a.func in _PINOT_FUNCS for a in request.aggregations)
        ):
            query = PinotQuery(
                table=request.table,
                aggregations=[
                    Aggregation(a.func, a.column, a.alias)
                    for a in request.aggregations
                ],
                filters=filters,
                group_by=list(request.group_by or []),
                limit=request.limit or 0,
            )
            result = self.broker.execute(query)
            return ScanResult(
                rows=result.shared_rows,
                filters_applied=True,
                aggregated=True,
                source_rows_examined=result.docs_examined(),
                rows_transferred=result.num_rows(),
                servers_queried=result.servers_queried,
                segments_scanned=result.segments_scanned,
                segments_pruned=result.segments_pruned,
                cache_hit=result.cache_hit,
            )
        columns = request.columns if "projection" in caps else None
        limit = request.limit if "limit" in caps and not request.aggregations else None
        query = PinotQuery(
            table=request.table,
            select_columns=list(columns or []),
            filters=filters,
            limit=limit or 0,
        )
        result = self.broker.execute(query)
        return ScanResult(
            rows=[] if result.pages is not None else result.shared_rows,
            pages=result.pages,
            filters_applied=bool(filters),
            aggregated=False,
            source_rows_examined=result.docs_examined(),
            rows_transferred=result.num_rows(),
            servers_queried=result.servers_queried,
            segments_scanned=result.segments_scanned,
            segments_pruned=result.segments_pruned,
            cache_hit=result.cache_hit,
        )


class HiveConnector:
    """Connector over the Hive metastore: predicate pruning via file stats,
    but no aggregation pushdown — the Section 4.5 contrast ("sub-second
    query latencies ... not possible to do on standard backends such as
    HDFS/Hive")."""

    def __init__(self, metastore: HiveMetastore) -> None:
        self.name = "hive"
        self.metastore = metastore

    def capabilities(self) -> ConnectorCapabilities:
        return ConnectorCapabilities(predicate=True, projection=True)

    def estimate(self, request: ScanRequest) -> CardinalityEstimate:
        """Metastore row counts narrowed by the shared selectivity
        heuristic — no file reads."""
        rows = self.metastore.table(request.table).row_count()
        if not request.filters:
            return CardinalityEstimate(rows, True, "hive-rowcount")
        return CardinalityEstimate(
            heuristic_selectivity(rows, request.filters), False, "hive-rowcount"
        )

    def table_epoch(self, table: str) -> int:
        return self.metastore.table(table).version

    def scan(self, request: ScanRequest) -> ScanResult:
        table = self.metastore.table(request.table)
        rows, files_scanned, files_pruned, examined = table.scan_with_pruning(
            request.filters, columns=request.columns
        )
        return ScanResult(
            rows=rows,
            filters_applied=bool(request.filters),
            aggregated=False,
            source_rows_examined=examined,
            rows_transferred=len(rows),
            files_scanned=files_scanned,
            files_pruned=files_pruned,
        )


class MemoryConnector:
    """Rows held in memory (test fixture and subquery materialization)."""

    def __init__(self, tables: dict[str, list[dict[str, Any]]] | None = None) -> None:
        self.name = "memory"
        self.tables = tables or {}
        self._epochs: dict[str, int] = {name: 1 for name in self.tables}

    def capabilities(self) -> ConnectorCapabilities:
        return ConnectorCapabilities()

    def estimate(self, request: ScanRequest) -> CardinalityEstimate:
        rows = len(self.tables.get(request.table, ()))
        if not request.filters:
            return CardinalityEstimate(rows, True, "memory")
        return CardinalityEstimate(
            heuristic_selectivity(rows, request.filters), False, "memory"
        )

    def table_epoch(self, table: str) -> int:
        if table not in self.tables:
            raise SqlPlanError(f"memory connector has no table {table!r}")
        return self._epochs.get(table, 1)

    def add_table(self, name: str, rows: list[dict[str, Any]]) -> None:
        self.tables[name] = rows
        self._epochs[name] = self._epochs.get(name, 0) + 1

    def scan(self, request: ScanRequest) -> ScanResult:
        if request.table not in self.tables:
            raise SqlPlanError(f"memory connector has no table {request.table!r}")
        rows = [dict(r) for r in self.tables[request.table]]
        return ScanResult(
            rows=rows,
            source_rows_examined=len(rows),
            rows_transferred=len(rows),
        )
