"""The Pinot broker: scatter-gather-merge query execution (Section 4.3).

"The query is first decomposed into sub-plans which execute on the
distributed segments in parallel, and then the plan results are aggregated
and merged into a final one."

Three query-side optimizations ride on the scatter (the paper's Table 1
latency/cost edge: touch as little irrelevant data as possible):

* **Cross-segment pruning** — before fanning out, segments whose commit-time
  zone maps / bloom filters prove they cannot match the query's filters are
  dropped from the scatter, and an equality predicate on the table's
  partition column restricts the scatter to the partitions the producer's
  hash partitioner could have placed the value on.  Pruning is order
  preserving: surviving segments keep exactly the subquery grouping and
  ordering an unpruned scatter would give them, so pruning never changes
  an answer.

* **Result caching** — an :class:`~repro.common.epochcache.EpochCache`
  keyed on the normalized query and validated against
  :meth:`TableState.version`, which is read off the segments the table
  holds: a row landing (upserts ride in on rows), a seal, a reopen on a
  replacement owner, a drop or an offline load each move it, so a hit is
  provably fresh and the first read after a mutation replaces the entry.
  Nothing below the broker is validated by the table's version.

* **Sticky replica routing + per-segment memos** — a replica-eligible
  sealed segment is routed by weighted rendezvous hash over its live
  hosts (:mod:`repro.common.hashring`), so the same segment's subqueries
  keep landing on the same server and that server's cache of work on
  sealed segments (:mod:`repro.pinot.scanshare`, validated by the segment
  instance) actually pays.  For a query its result cache holds at an
  older version — asked before, and asked again after the table moved —
  the broker passes the normalized query down, and each server keeps its
  segments' partials under it: later repeats re-run only the segments
  sealed since, and fold only the rows each consuming segment gained
  (an aggregation's; a selection re-reads it).  A query asked once
  stores no partial.  Replica choice depends only on the segment's identity and
  replica liveness — never on pruning decisions — and results are merged
  in canonical segment order, so which replica served a segment is
  invisible in results, byte for byte.

A selection travels as column pages — one
:class:`~repro.columnar.ColumnBatch` per segment — from the segment scan
through the merge and the result cache; row dicts are built once, at the
result boundary (:class:`QueryResult`).

For upsert tables the broker applies the Section 4.3.1 routing strategy:
all *surviving* segments of one input partition still go to the partition's
owning server in a single subquery, so the server's local valid-doc-id sets
keep the result consistent (a key's stale versions are skipped wherever
they live).  Pruning a whole segment is safe there too: a segment none of
whose docs can match the filters contributes nothing whether its docs are
valid or not.
"""

from __future__ import annotations

from typing import Any

from repro.columnar import ColumnBatch, pages_to_rows
from repro.common import hashring
from repro.common.clock import Clock, SystemClock
from repro.common.epochcache import EpochCache, copy_rows
from repro.common.errors import PinotError, QueryError
from repro.common.perf import PERF
from repro.common.relational import order_rows
from repro.kafka.producer import hash_partitioner
from repro.observability.trace import SpanCollector
from repro.pinot.controller import PinotController, TableState
from repro.pinot.query import PartialResult, PinotQuery, SegmentPlan, group_fold
from repro.pinot.segment import ImmutableSegment
from repro.pinot.server import PinotServer


#: Finished results the broker keeps, across all tables it serves.
RESULT_CACHE_CAPACITY = 128

#: Replica choices the broker remembers: one per (segment, live host set)
#: it has routed, across all tables.
PLACEMENT_CAPACITY = 16_384


class QueryResult:
    """What :meth:`PinotBroker.execute` answers with.

    A selection without ORDER BY / LIMIT stays in ``pages`` (one
    ColumnBatch per segment that matched, canonical segment order); every
    other result is ``shared_rows`` and ``pages`` is None.  Either is the
    answer as the result cache holds it — shared with the entry, with
    every other result served from it and, for page cells, with the
    segment dictionaries — so nothing under the query path writes to it.

    ``rows`` is where the answer leaves for a caller: the first read
    copies it (pages become row dicts there), and every later read
    answers with that same list.
    """

    def __init__(
        self,
        rows: list[dict[str, Any]] | None = None,
        pages: list[ColumnBatch] | None = None,
        plans: list[SegmentPlan] | None = None,
    ) -> None:
        self.shared_rows = rows
        self.pages = pages
        self._rows: list[dict[str, Any]] | None = None
        self.plans = plans or []
        self.servers_queried = 0
        self.segments_scanned = 0
        self.segments_pruned = 0
        self.cache_hit = False

    @property
    def rows(self) -> list[dict[str, Any]]:
        if self._rows is None:
            shared = self.shared_rows
            self._rows = copy_rows(
                pages_to_rows(self.pages) if shared is None else shared
            )
        return self._rows

    def docs_examined(self) -> int:
        return sum(p.docs_examined for p in self.plans)

    def num_rows(self) -> int:
        if self.shared_rows is None:
            return sum(len(page) for page in self.pages)
        return len(self.shared_rows)

    def copied(self) -> "QueryResult":
        """The answer alone, as a result of its own: what crosses the
        result-cache boundary.  The answer itself is shared; only the page
        list, which a result exposes, is the new result's own."""
        if self.pages is not None:
            return QueryResult(pages=list(self.pages))
        return QueryResult(rows=self.shared_rows)


def normalize_query(query: PinotQuery) -> tuple | None:
    """Canonical, hashable cache key for a query; None when the query
    holds unhashable literals (those queries simply bypass the cache).

    Filters are order-normalized — they are conjunctive, so any order
    denotes the same query.
    """
    try:
        key = (
            query.table,
            tuple(query.select_columns),
            tuple((a.func, a.column, a.alias()) for a in query.aggregations),
            tuple(
                sorted(
                    (
                        (f.column, f.op, f.value, f.values, f.low, f.high)
                        for f in query.filters
                    ),
                    key=repr,
                )
            ),
            tuple(query.group_by),
            tuple(query.order_by),
            query.limit,
        )
        hash(key)
    except TypeError:
        return None
    return key


class PinotBroker:
    def __init__(
        self,
        controller: PinotController,
        clock: Clock | None = None,
        tracer: SpanCollector | None = None,
    ) -> None:
        self.controller = controller
        self.clock = clock or SystemClock()
        self.tracer = tracer
        self.cache = EpochCache(RESULT_CACHE_CAPACITY, copy=QueryResult.copied)
        self._placement = hashring.HashRing(PLACEMENT_CAPACITY)

    def execute(self, query: PinotQuery) -> QueryResult:
        start = self.clock.now() if self.tracer is not None else 0.0
        state = self.controller.table(query.table)
        version = state.version()
        cache_key = normalize_query(query)
        memo_key = None
        if cache_key is not None:
            # Held but missed: answered before the table moved, so asked
            # again; only then may servers keep per-segment partials.
            memo_key = cache_key if cache_key in self.cache else None
            cached = self.cache.get(cache_key, version)
            if cached is not None:
                return self._serve_cached(query, cached, start)
            if PERF.enabled:
                PERF.inc("pinot.cache_misses")
        subqueries, pruned = self._route(state, query)
        partials: list[PartialResult] = []
        servers = 0
        scanned = 0
        for server, segment_names, upsert_partition in subqueries:
            if not segment_names:
                continue
            servers += 1
            scanned += len(segment_names)
            partials.extend(
                server.execute(query, segment_names, upsert_partition, memo_key)
            )
        if PERF.enabled:
            PERF.inc("pinot.segments_scanned", scanned)
            if pruned:
                PERF.inc("pinot.segments_pruned", pruned)
        result = self._merge(query, partials)
        result.servers_queried = servers
        result.segments_scanned = scanned
        result.segments_pruned = pruned
        if cache_key is not None:
            self.cache.put(cache_key, version, result)
        if self.tracer is not None:
            self.tracer.record_table_query(
                query.table,
                "pinot",
                start=start,
                end=self.clock.now(),
                servers=servers,
                segments_scanned=scanned,
                segments_pruned=pruned,
                cache_hit=False,
            )
        return result

    def estimate_rows(self, table: str, filters=()) -> tuple[int, bool]:
        """Planning-time cardinality bound for the Presto planner.

        Routes the hypothetical scan through the same ZoneMap / partition
        pruning as a real scatter and sums ``num_docs`` of the surviving
        segments — an upper bound on matching rows that costs no data
        access.  Returns ``(docs, exact)``; ``exact`` is True only for an
        unfiltered scan, where the bound *is* the row count.  Estimation
        must never fail planning: on a degraded cluster it degrades to the
        consuming segments' counts with ``exact=False``.
        """
        state = self.controller.table(table)
        query = PinotQuery(table=table, filters=list(filters))
        try:
            subqueries, __ = self._route(state, query)
        except PinotError:
            docs = sum(
                pstate.consuming.num_docs
                for pstate in state.ingestion.partitions.values()
            )
            return docs, False
        docs = 0
        for server, segment_names, __ in subqueries:
            for name in segment_names:
                segment = server.segments.get(name)
                if segment is not None:
                    docs += segment.num_docs
        return docs, not filters

    def _serve_cached(
        self, query: PinotQuery, result: QueryResult, start: float
    ) -> QueryResult:
        if PERF.enabled:
            PERF.inc("pinot.cache_hits")
            if result.pages is not None:
                PERF.inc("columnar.batch_serves", len(result.pages))
            else:
                PERF.inc("pinot.cache_row_copies", result.num_rows())
        result.cache_hit = True
        if self.tracer is not None:
            self.tracer.record_table_query(
                query.table,
                "pinot",
                start=start,
                end=self.clock.now(),
                servers=0,
                segments_scanned=0,
                segments_pruned=0,
                cache_hit=True,
            )
        return result

    # -- routing -------------------------------------------------------------

    def _route(
        self, state: TableState, query: PinotQuery
    ) -> tuple[list[tuple[PinotServer, list[str], int | None]], int]:
        """Subqueries as (server, segments, upsert_partition?) plus the
        number of segments pruned from the scatter.

        Pruning preserves subquery grouping and ordering exactly: the
        server order is derived from the *full* segment list, and pruned
        segments (which contribute zero rows by proof) are only omitted
        from the per-server name lists, so pruning never changes an answer.
        """
        out: list[tuple[PinotServer, list[str], int | None]] = []
        pruned = 0
        filters = query.filters
        allowed_partitions = self._partition_candidates(state, filters)
        upsert = state.config.upsert_enabled
        # One name->server map per route call, instead of an O(servers)
        # linear scan per emitted subquery.
        by_name = {s.name: s for s in self.controller.servers}
        for partition, pstate in state.ingestion.partitions.items():
            segment_names = state.ingestion.segments_of_partition(partition)
            if (
                allowed_partitions is not None
                and partition not in allowed_partitions
            ):
                # The partition key cannot hash here: no segment of this
                # partition (consuming included) can hold a matching row.
                pruned += len(segment_names)
                continue
            owner = pstate.owner
            if upsert:
                if not owner.alive:
                    raise PinotError(
                        f"upsert partition {partition} owner {owner.name} is down"
                    )
                names = []
                for name in segment_names:
                    if self._prunable(owner.segments.get(name), filters):
                        pruned += 1
                        continue
                    names.append(name)
                if names:
                    out.append((owner, names, partition))
                continue
            # Non-upsert: sealed segments may be served by any live replica;
            # the consuming segment only lives on the owner.
            candidates = [owner] + pstate.replicas
            per_server: dict[str, list[str]] = {}
            for name in pstate.sealed_segments:
                hosts = [
                    s for s in candidates if s.alive and s.has_segment(name)
                ]
                if not hosts:
                    raise PinotError(f"no live replica hosts segment {name!r}")
                host = self._pick_host(query.table, name, hosts)
                # Establish the server's slot even when the segment prunes,
                # so subquery order never depends on pruning decisions.
                names = per_server.setdefault(host.name, [])
                if self._prunable(host.segments.get(name), filters):
                    pruned += 1
                    continue
                names.append(name)
            if owner.alive:
                per_server.setdefault(owner.name, []).append(pstate.consuming.name)
            for server_name, names in per_server.items():
                if not names:
                    continue
                out.append((by_name[server_name], names, None))
        for segment_name, (__, hosts) in state.offline_segments.items():
            live = [s for s in hosts if s.alive]
            if not live:
                raise PinotError(f"no live host for offline segment {segment_name!r}")
            host = self._pick_host(query.table, segment_name, live)
            segment = host.segments.get(segment_name)
            if (
                allowed_partitions is not None
                and isinstance(segment, ImmutableSegment)
                and segment.partition_id is not None
                and segment.partition_id not in allowed_partitions
            ) or self._prunable(segment, filters):
                pruned += 1
                continue
            out.append((host, [segment_name], None))
        return out, pruned

    def _pick_host(
        self, table: str, segment_name: str, hosts: list[PinotServer]
    ) -> PinotServer:
        """The replica that serves this segment's subquery: weighted
        rendezvous on (table, segment) over the live hosts.  The same
        segment keeps hitting the same server while it stays alive, so
        that server's scan-share cache pays; membership change moves only
        the affected segment's keys.  The choice depends only on the
        segment's identity and replica liveness — never on pruning
        decisions — so routing cannot perturb which segments are scanned.

        The choice is remembered under exactly those inputs (the names of
        ``hosts`` as they are *now*), so a repeat query looks it up and a
        server that died or came back selects another entry; nothing has
        to be told.
        """
        if len(hosts) == 1:
            return hosts[0]
        name = self._placement.pick((table, segment_name), tuple(s.name for s in hosts))
        return next(s for s in hosts if s.name == name)

    @staticmethod
    def _prunable(segment, filters) -> bool:
        """Sealed segments prune on zone maps / blooms; consuming
        (mutable) segments have no commit-time metadata and always scan."""
        return (
            bool(filters)
            and isinstance(segment, ImmutableSegment)
            and not segment.may_match(filters)
        )

    def _partition_candidates(
        self, state: TableState, filters
    ) -> set[int] | None:
        """Partitions an equality/IN predicate on the partition column can
        reach, via the same hash the producer partitioned the stream with.
        None means "no partition constraint".

        Soundness rests on ``hash_partitioner`` being equality-canonical
        (it hashes ``serde.encode_key``): the executor matches rows with
        Python ``==``, so a literal ``5.0`` must map to the partition the
        producer chose for an equal key of any type (``5``, ``True``).
        Hashing the raw literal's type-sensitive encoding here would
        silently prune the partition holding the matching rows."""
        column = state.config.partition_column
        if column is None or not filters:
            return None
        num_partitions = len(state.ingestion.partitions)
        allowed: set[int] | None = None
        for flt in filters:
            if flt.column != column:
                continue
            if flt.op == "=":
                literals = (flt.value,)
            elif flt.op == "IN":
                literals = flt.values
            else:
                continue
            try:
                reachable = {
                    hash_partitioner(v, num_partitions)
                    for v in literals
                    if v is not None
                }
            except Exception:
                continue  # unencodable literal: no partition constraint
            allowed = reachable if allowed is None else (allowed & reachable)
        return allowed

    # -- merging -----------------------------------------------------------------

    def _merge(self, query: PinotQuery, partials: list[PartialResult]) -> QueryResult:
        # Canonical merge order: fold partials in segment-name order, not
        # scatter order.  Float aggregation is order-sensitive bit for
        # bit, and scatter order depends on which replicas are alive;
        # segment names do not.
        partials = sorted(
            partials, key=lambda p: p.plan.segment if p.plan is not None else ""
        )
        plans = [p.plan for p in partials if p.plan is not None]
        if query.is_aggregation():
            merged = group_fold(query)
            for partial in partials:
                merged.merge(partial.groups)
            rows = merged.rows()
        else:
            pages = [p.page for p in partials if p.page is not None]
            if not (query.order_by or query.limit):
                return QueryResult(pages=pages, plans=plans)
            # Ordering and limits work on rows: materialize here.
            rows = pages_to_rows(pages)
        for name, __ in query.order_by:
            if rows and name not in rows[0]:
                raise QueryError(f"cannot ORDER BY unknown column {name!r}")
        rows = order_rows(query.order_by, rows, query.limit)
        return QueryResult(rows=rows, plans=plans)
