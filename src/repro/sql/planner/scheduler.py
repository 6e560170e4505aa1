"""Stage-DAG scheduler with content-hashed, epoch-keyed artifact reuse.

Executes a :class:`repro.sql.planner.physical.PhysicalPlan` over a pool
of (simulated) workers in deterministic topological waves.  Before
executing, the scheduler walks the DAG top-down against the per-worker
artifact stores (:class:`~repro.common.epochcache.EpochCache`): a stage
whose ``(content key, table epochs)`` artifact is present is *served* —
its whole input subtree is skipped.
That is how overlapping queries share work: two queries that contain the
same scan/join/aggregate subtree over the same table versions compute it
once.  Epochs come from ``Connector.table_epoch`` (Pinot's TableEpoch,
Hive's table version, the memory connector's per-table counter), so reuse
is freshness-correct by construction — the same cache class and the same
invalidation rule as the broker's result cache, one layer up.  Tables
whose connector cannot version them get no artifacts.

Served stages still *report* like executed ones: every artifact carries
the :class:`Evidence` its producing execution accumulated (rows shipped,
segments pruned, filters pushed...), which parent stages fold upward just
as if the work had run.  Query stats therefore describe what the plan
does, whether or not the work was memoized — only ``stage_artifact_hits``
and the PERF counters reveal the saved work.

Join execution is order-restoring: scan positions ride along as tags, and
after executing the hash joins in whatever order the optimizer chose, the
output is sorted back to the syntactic nested-loop order.  Join
reordering is therefore invisible in the output, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.columnar import pages_to_rows
from repro.common import hashring
from repro.common.epochcache import EpochCache, combined_stats
from repro.common.errors import SqlPlanError
from repro.common.perf import PERF
from repro.sql.planner.kernels import (
    KernelUnsupported,
    aggregate_pages,
    filter_batch,
)
from repro.sql.planner.physical import PhysicalPlan, Stage
from repro.sql.planner.rowops import (
    aggregate_rows,
    compile_condition,
    conjoin,
    order_rows,
    project_row,
    to_pushed,
    to_pushed_agg,
)

#: Stage outputs each worker keeps.
STAGE_ARTIFACT_CAPACITY = 256

#: Stage -> worker choices the scheduler remembers: a few pools' worth of
#: the stages whose artifacts can be resident at all.
PLACEMENT_CAPACITY = 8 * STAGE_ARTIFACT_CAPACITY


@dataclass
class Evidence:
    """What executing a stage subtree shipped and pushed — the stats a
    fresh execution would contribute to ``QueryStats``.

    Transfer fields accumulate across every block; the per-block fields
    (pushed_filters, pushed_aggregation, joined_rows) stop at subquery
    boundaries, mirroring the pre-planner engine's per-SELECT stats."""

    rows_transferred: int = 0
    source_rows_examined: int = 0
    servers_queried: int = 0
    segments_scanned: int = 0
    segments_pruned: int = 0
    files_scanned: int = 0
    files_pruned: int = 0
    cache_hits: int = 0
    pushed_filters: int = 0
    pushed_aggregation: bool = False
    joined_rows: int = 0

    def absorb_scan(self, result) -> None:
        """Fold one connector ScanResult's transfer stats in."""
        self.rows_transferred += result.rows_transferred
        self.source_rows_examined += result.source_rows_examined
        self.servers_queried += result.servers_queried
        self.segments_scanned += result.segments_scanned
        self.segments_pruned += result.segments_pruned
        self.files_scanned += result.files_scanned
        self.files_pruned += result.files_pruned
        self.cache_hits += 1 if result.cache_hit else 0

    def absorb_input(self, inner: "Evidence", boundary: bool) -> None:
        self.rows_transferred += inner.rows_transferred
        self.source_rows_examined += inner.source_rows_examined
        self.servers_queried += inner.servers_queried
        self.segments_scanned += inner.segments_scanned
        self.segments_pruned += inner.segments_pruned
        self.files_scanned += inner.files_scanned
        self.files_pruned += inner.files_pruned
        self.cache_hits += inner.cache_hits
        if not boundary:
            self.pushed_filters += inner.pushed_filters
            self.pushed_aggregation = (
                self.pushed_aggregation or inner.pushed_aggregation
            )
            self.joined_rows = inner.joined_rows or self.joined_rows


@dataclass
class StagePayload:
    """One stage's output: rows plus how they were produced.

    ``pages`` carries the columnar form (ColumnBatch pages; ``rows`` is
    then empty).  Pages flow between stages until an operator needs row
    dicts — ``as_rows`` is that boundary.

    A payload is never written to once its stage returns it: the artifact
    store and every later stage hold the same object, and its rows may be
    the broker cache's own.  Operators build new rows and new lists;
    ``PrestoEngine.execute`` copies what leaves for the caller."""

    rows: list
    aggregated: bool = False  # rows are final aggregation results
    evidence: Evidence = field(default_factory=Evidence)
    pages: list | None = None

    def num_rows(self) -> int:
        if self.pages is not None:
            return sum(len(page) for page in self.pages)
        return len(self.rows)

    def as_rows(self) -> list:
        """Row-dict view of this payload (the batch→row boundary)."""
        if self.pages is not None:
            return pages_to_rows(self.pages)
        return self.rows


@dataclass
class StageExecution:
    """Per-stage schedule record (explainable, span-attached).  Served
    stages carry wave/worker -1: no worker ever ran them."""

    sid: int
    op: str
    wave: int
    worker: int
    served_from_artifact: bool
    rows_out: int


class StageScheduler:
    """Deterministic multi-worker executor for one physical plan.

    Workers are simulated: stages are grouped into dependency waves, and
    each stage is *pinned* to a worker by rendezvous hash of its content
    key, so the worker that computed a stage is the worker probed for
    its artifact — reuse is a property of the plan, not of scheduling
    luck.  The schedule (recorded in spans and :class:`StageExecution`)
    is what a real worker pool would produce, while execution stays
    single-threaded and reproducible.
    """

    def __init__(
        self,
        catalog: dict[str, Any],
        workers: int = 2,
        tracer=None,
        clock=None,
    ) -> None:
        self.catalog = catalog
        self.tracer = tracer
        self.clock = clock
        # Artifact stores are per worker: a real pool's memo lives in each
        # worker's memory, so a hit requires landing the stage on the
        # worker that computed it, which content-keyed placement does.
        self._stores: list[EpochCache] = []
        self._placement = hashring.HashRing(PLACEMENT_CAPACITY)
        self._workers = 0
        self.workers = workers

    @property
    def workers(self) -> int:
        return self._workers

    @workers.setter
    def workers(self, n: int) -> None:
        self._workers = max(1, int(n))
        while len(self._stores) < self._workers:
            self._stores.append(EpochCache(STAGE_ARTIFACT_CAPACITY))
        # Shrinking keeps the excess stores warm: only the first n are
        # addressable, and scaling back up re-finds their entries.

    def _worker_for(self, stage: Stage) -> int:
        if self._workers == 1:
            return 0
        # Remembered per (content key, pool size): resizing the pool
        # selects other entries, and the old ones are right again when
        # the pool returns to that size.
        return self._placement.pick(stage.key, range(self._workers))

    def artifact_stats(self) -> dict[str, float]:
        """The per-worker stores' stats, reported as one cache."""
        return combined_stats(self._stores)

    # -- entry point ----------------------------------------------------------

    def run(
        self, plan: PhysicalPlan, epochs: dict[str, Any], query_id: str
    ) -> tuple[StagePayload, list[StageExecution]]:
        served: dict[int, StagePayload] = {}
        needed: set[int] = set()

        def signature(stage: Stage) -> tuple | None:
            if any(epochs.get(t) is None for t in stage.tables):
                return None  # unversionable source: never memoize
            return tuple((t, epochs[t]) for t in stage.tables)

        def probe(sid: int) -> None:
            stage = plan.stages[sid]
            sig = signature(stage)
            if sig is not None:
                store = self._stores[self._worker_for(stage)]
                payload = store.get(stage.key, sig)
                if payload is not None:
                    served[sid] = payload
                    return
            needed.add(sid)
            for input_sid in stage.inputs:
                probe(input_sid)

        probe(plan.root)

        # Dependency waves over the needed stages (stage list is topo-sorted).
        wave_of: dict[int, int] = {}
        for sid in sorted(needed):
            stage = plan.stages[sid]
            wave_of[sid] = 1 + max(
                (wave_of[i] for i in stage.inputs if i in wave_of), default=-1
            )

        done: dict[int, StagePayload] = dict(served)
        executions: list[StageExecution] = []
        slot_in_wave: dict[int, int] = {}
        for sid, payload in sorted(served.items()):
            stage = plan.stages[sid]
            if PERF.enabled:
                PERF.inc("presto.stage_artifact_hits")
                PERF.inc("presto.artifact_rows_copied", payload.num_rows())
                if payload.pages is not None:
                    PERF.inc("columnar.batch_serves", len(payload.pages))
            executions.append(
                StageExecution(sid, stage.op, -1, -1, True, payload.num_rows())
            )
            self._record_span(query_id, stage, served=True, rows=payload.num_rows())
        for sid in sorted(needed):
            stage = plan.stages[sid]
            wave = wave_of[sid]
            slot_in_wave[wave] = slot_in_wave.get(wave, 0) + 1
            worker = self._worker_for(stage)
            input_stages = [plan.stages[i] for i in stage.inputs]
            payloads = [done[i] for i in stage.inputs]
            payload = self._execute(stage, input_stages, payloads)
            done[sid] = payload
            if PERF.enabled:
                PERF.inc("presto.stage_executions")
            executions.append(
                StageExecution(sid, stage.op, wave, worker, False, payload.num_rows())
            )
            self._record_span(
                query_id, stage, served=False, rows=payload.num_rows(),
                wave=wave, worker=worker,
            )
            sig = signature(stage)
            if sig is not None:
                self._stores[worker].put(stage.key, sig, payload)
        executions.sort(key=lambda e: e.sid)
        return done[plan.root], executions

    def _record_span(self, query_id: str, stage: Stage, served: bool, **attrs):
        if self.tracer is None or self.clock is None:
            return
        now = self.clock.now()
        self.tracer.record_span(
            trace_id=query_id,
            name=f"stage.{stage.op}",
            layer="presto",
            start=now,
            end=now,
            sid=stage.sid,
            key=stage.key,
            served_from_artifact=served,
            **attrs,
        )

    # -- stage execution ------------------------------------------------------

    def _execute(
        self, stage: Stage, input_stages: list[Stage], payloads: list[StagePayload]
    ) -> StagePayload:
        if stage.op == "scan":
            return self._execute_scan(stage)
        evidence = Evidence()
        for in_stage, payload in zip(input_stages, payloads):
            evidence.absorb_input(payload.evidence, boundary=in_stage.block_boundary)
        if stage.op == "join":
            return self._execute_join(stage, payloads, evidence)
        node = stage.node
        single = payloads[0]
        if stage.op in ("filter", "having"):
            if single.pages is not None:
                pages = self._filter_pages(single.pages, node)
                if pages is not None:
                    return StagePayload(
                        [], single.aggregated, evidence, pages=pages
                    )
            rows_in = single.as_rows()
            if PERF.enabled:
                PERF.inc("presto.filter_rows", len(rows_in))
            keep = compile_condition(node.condition, node.qualified)
            rows = [r for r in rows_in if keep(r)]
            return StagePayload(rows, single.aggregated, evidence)
        if stage.op == "aggregate":
            if single.aggregated:
                # The connector already produced final groups (in canonical
                # group order — the broker default); pass through.
                return StagePayload(single.rows, True, evidence)
            if single.pages is not None:
                rows = self._aggregate_pages(single.pages, node)
                if rows is not None:
                    return StagePayload(rows, True, evidence)
            rows_in = single.as_rows()
            if PERF.enabled:
                PERF.inc("presto.agg_rows", len(rows_in))
            rows = aggregate_rows(
                list(node.group_cols), list(node.aggs), rows_in, node.qualified
            )
            return StagePayload(rows, True, evidence)
        if stage.op == "project":
            rows_in = single.as_rows()
            if PERF.enabled:
                PERF.inc("presto.project_rows", len(rows_in))
            rows = [
                project_row(list(node.items), row, node.qualified)
                for row in rows_in
            ]
            return StagePayload(rows, False, evidence)
        if stage.op == "sort":
            rows_in = single.as_rows()
            if PERF.enabled:
                PERF.inc("presto.sort_rows", len(rows_in))
            rows = order_rows(list(node.keys), list(rows_in))
            return StagePayload(rows, single.aggregated, evidence)
        if stage.op == "limit":
            if single.pages is not None and node.n:
                pages = self._limit_pages(single.pages, node.n)
                return StagePayload([], single.aggregated, evidence, pages=pages)
            rows = single.as_rows()
            rows = rows[: node.n] if node.n else rows
            return StagePayload(rows, single.aggregated, evidence)
        raise SqlPlanError(f"unknown stage op {stage.op!r}")

    # -- vectorized operator bodies -------------------------------------------

    def _filter_pages(self, pages: list, node) -> list | None:
        """Filter pages in code space; None means the condition is outside
        the kernel's reach and the caller must take the row path."""
        out = []
        try:
            for page in pages:
                filtered = filter_batch(page, node.condition, node.qualified)
                if len(filtered):
                    out.append(filtered)
        except KernelUnsupported:
            return None
        return out

    def _aggregate_pages(self, pages: list, node) -> list | None:
        """Vectorized grouped aggregation; None on kernel fallback."""
        try:
            return aggregate_pages(
                list(node.group_cols), list(node.aggs), pages, node.qualified
            )
        except KernelUnsupported:
            return None

    @staticmethod
    def _limit_pages(pages: list, n: int) -> list:
        out, remaining = [], n
        for page in pages:
            if remaining <= 0:
                break
            if len(page) <= remaining:
                out.append(page)
                remaining -= len(page)
            else:
                out.append(page.slice(0, remaining))
                remaining = 0
        return out

    def _execute_scan(self, stage: Stage) -> StagePayload:
        from repro.sql.presto.connector import ScanRequest

        node = stage.node
        connector = self.catalog[node.table]
        request = ScanRequest(
            table=node.table,
            filters=[to_pushed(c) for c in node.filters],
            columns=list(node.columns) if node.columns is not None else None,
            aggregations=(
                [to_pushed_agg(f, a) for f, a in node.aggregations]
                if node.aggregations is not None
                else None
            ),
            group_by=list(node.group_by) if node.group_by is not None else None,
            limit=node.limit,
        )
        evidence = Evidence()
        result = connector.scan(request)
        evidence.absorb_scan(result)
        # Runtime guard: the planner pushed work the connector declined
        # (capability drift).  Source-side truncation is then unsound — the
        # limit assumed filtered/aggregated rows — so re-scan untruncated
        # and finish the declined work engine-side.
        declined = (node.filters and not result.filters_applied) or (
            node.aggregations is not None and not result.aggregated
        )
        if declined and request.limit:
            request.limit = None
            result = connector.scan(request)
            evidence.absorb_scan(result)
        if node.filters and result.filters_applied:
            evidence.pushed_filters = len(node.filters)
        evidence.pushed_aggregation = result.aggregated
        if node.filters and not result.filters_applied:
            keep = compile_condition(conjoin(list(node.filters), None))
            rows = [r for r in result.as_rows() if keep(r)]
            return StagePayload(rows, result.aggregated, evidence)
        return StagePayload(
            result.rows, result.aggregated, evidence, pages=result.pages
        )

    def _execute_join(
        self, stage: Stage, payloads: list[StagePayload], evidence: Evidence
    ) -> StagePayload:
        """Hash joins in optimizer order, output restored to syntactic
        nested-loop order via per-row origin tags."""
        node = stage.node
        base_rows = payloads[0].as_rows()
        right_rows = [payload.as_rows() for payload in payloads[1:]]
        slots = len(node.steps)
        joined: list[tuple[dict, tuple]] = [
            (
                {f"{node.base_alias}.{k}": v for k, v in row.items()},
                (idx,) + (None,) * slots,
            )
            for idx, row in enumerate(base_rows)
        ]
        exec_order = node.exec_order or tuple(range(slots))
        for step_idx in exec_order:
            step = node.steps[step_idx]
            rows = right_rows[step_idx]
            if PERF.enabled:
                PERF.inc("presto.join_build_rows", len(rows))
                PERF.inc("presto.join_probe_rows", len(joined))
            build: dict[Any, list[tuple[dict, int]]] = {}
            for ridx, row in enumerate(rows):
                build.setdefault(row.get(step.build_key.name), []).append((row, ridx))
            probe_field = f"{step.probe_key.table}.{step.probe_key.name}"
            out: list[tuple[dict, tuple]] = []
            for row, tag in joined:
                for match, ridx in build.get(row.get(probe_field), []):
                    merged = dict(row)
                    merged.update({f"{step.alias}.{k}": v for k, v in match.items()})
                    new_tag = list(tag)
                    new_tag[1 + step_idx] = ridx
                    out.append((merged, tuple(new_tag)))
            joined = out
        if tuple(exec_order) != tuple(range(slots)):
            # Restore the row order syntactic nested-loop execution yields:
            # lexicographic by (base row, step-0 match, step-1 match, ...).
            joined.sort(key=lambda pair: pair[1])
        rows = [row for row, __ in joined]
        if PERF.enabled:
            PERF.inc("presto.join_rows_out", len(rows))
        evidence.joined_rows = len(rows)
        return StagePayload(rows, False, evidence)
