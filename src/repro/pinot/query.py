"""Pinot query model and the per-segment execution engine.

The query shape matches what the paper says the OLAP layer must serve:
"filtering, aggregations with group by, order by in a high throughput,
low latency manner" (Section 3).  Queries here are typed objects; the SQL
text layers (Presto connector, FlinkSQL) compile down to these.

``execute_on_segment`` picks the best access path per filter — sorted
index, inverted index, range index, star-tree, or forward-index scan — and
reports the chosen plan, which the index benchmarks (C4) assert on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any

from repro.columnar import Bitmap, ColumnBatch, ColumnVector
from repro.common.errors import QueryError
from repro.common.perf import PERF
from repro.common.relational import GroupFold, Predicate, aggregate_rule
from repro.pinot.indexes import intersect_sorted, union_sorted
from repro.pinot.scanshare import shared_resolution
from repro.pinot.segment import ImmutableSegment, MutableSegment


#: One predicate of a query's conjunctive filter list: the shared record.
Filter = Predicate


@dataclass(frozen=True)
class Aggregation:
    """COUNT / SUM / AVG / MIN / MAX / DISTINCTCOUNT over a column,
    answered under ``name`` (default: the call as written, ``sum(amount)``)."""

    func: str
    column: str | None = None
    name: str | None = None

    def alias(self) -> str:
        return self.name or f"{self.func.lower()}({self.column or '*'})"


@dataclass
class PinotQuery:
    table: str
    select_columns: list[str] = field(default_factory=list)
    aggregations: list[Aggregation] = field(default_factory=list)
    filters: list[Filter] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    order_by: list[tuple[str, bool]] = field(default_factory=list)  # (name, desc)
    limit: int = 10

    def is_aggregation(self) -> bool:
        return bool(self.aggregations)


@dataclass
class SegmentPlan:
    """How one segment was accessed (for tests and benches)."""

    segment: str
    access_paths: list[str] = field(default_factory=list)  # per filter
    used_startree: bool = False
    docs_examined: int = 0


def group_fold(query: PinotQuery) -> GroupFold:
    """The query's aggregations bound to the shared state rules; segment
    execution folds docs into one, the broker merges partials into one."""
    return GroupFold(
        query.group_by,
        [a.alias() for a in query.aggregations],
        [aggregate_rule(a.func, a.column) for a in query.aggregations],
    )


def fold_row(fold: GroupFold, query: PinotQuery, read) -> None:
    """Fold one row-shaped thing into ``fold``; ``read(column)`` is its cell."""
    fold.add(
        tuple(read(c) for c in query.group_by),
        [None if a.column is None else read(a.column) for a in query.aggregations],
    )


@dataclass
class PartialResult:
    """Per-segment result, merged by the broker."""

    # group key tuple -> [agg states]; () key for global aggregations
    groups: dict[tuple, list[Any]] = field(default_factory=dict)
    # Selection queries: the segment's matching docs as one page (None
    # when nothing matched).  Row dicts exist only past the broker.
    page: ColumnBatch | None = None
    plan: SegmentPlan | None = None


# -- doc-id resolution, one filter at a time ------------------------------------

_RANGE_OPS = (">", ">=", "<", "<=", "BETWEEN")


def _access_path(segment: ImmutableSegment, flt: Filter) -> tuple[str, bool]:
    """The access path one filter takes on a sealed segment — ``sorted``,
    ``inverted``, ``range`` or ``scan`` — and whether that path examines
    docs.  Sorted and inverted resolutions are pure index lookups, already
    cheaper than a scan-share hit; a range-boundary refinement and a
    forward-index scan read cells, so they are what scan sharing memoizes.
    A NULL literal matches nothing and an index would read it as an open
    bound, so it is never asked."""
    column, op = flt.column, flt.op
    if not flt.unsatisfiable:
        if (
            segment.sorted_index is not None
            and column == segment.index_config.sort_column
            and (op == "=" or op in _RANGE_OPS)
        ):
            return "sorted", False
        if column in segment.inverted and op in ("=", "IN"):
            return "inverted", False
        if column in segment.ranges and op in _RANGE_OPS:
            return "range", True
    return "scan", True


def _index_lookup(
    path: str, segment: ImmutableSegment, flt: Filter, plan: SegmentPlan
) -> list[int] | None:
    """Doc ids matching one filter via the index ``path`` names; None when
    the index cannot order the literal against the column's values."""
    try:
        if path == "sorted":
            idx = segment.sorted_index
            if flt.op == "=":
                return list(idx.equals(flt.value))
            run = idx.span(flt)
            return None if run is None else list(run)
        if path == "inverted":
            inv = segment.inverted[flt.column]
            if flt.op == "=":
                return inv.lookup(flt.value)
            return inv.lookup_in(list(flt.values))
        rng = segment.ranges[flt.column]
        if flt.op == "BETWEEN":
            low, high = flt.low, flt.high
        elif flt.op in (">", ">="):
            low, high = flt.value, None
        else:
            low, high = None, flt.value
        certain, boundary = rng.candidates(low, high)
    except TypeError:
        return None
    matches = flt.matches
    cells = segment.cells(flt.column, boundary)
    refined = [d for d, cell in zip(boundary, cells) if matches(cell)]
    plan.docs_examined += len(boundary)
    if PERF.enabled:
        PERF.inc("pinot.filter_evals", len(boundary))
    return union_sorted([certain, refined])


def _scan_filter(
    segment: ImmutableSegment, flt: Filter, plan: SegmentPlan
) -> list[int]:
    """Forward-index scan in code space: one ``code -> matches`` table,
    then one sweep of the decoded codes through it.  A range filter over a
    column whose dictionary ascends gets its table from two bisects on the
    dictionary — and needs no sweep at all when no value or every cell
    matches; anything else runs the cell rule once per distinct value."""
    plan.access_paths.append(f"scan:{flt.column}")
    fwd = segment.forward[flt.column]
    plan.docs_examined += len(fwd)
    zone = segment.zone_maps[flt.column]
    run = flt.code_range(fwd._dictionary) if zone.comparable else None
    if run is None:
        mask = fwd.match_mask(flt.matches)
        if PERF.enabled:
            PERF.inc("pinot.filter_evals", fwd.cardinality())
    else:
        lo, hi = run
        if lo == hi:
            return []
        if hi - lo == fwd.cardinality() and not zone.has_null:
            return list(range(len(fwd)))
        # The NULL code is the one past the dictionary: never in the run.
        after = fwd.cardinality() + 1 - hi
        mask = [False] * lo + [True] * (hi - lo) + [False] * after
    codes = fwd.codes()
    if PERF.enabled:
        PERF.inc("pinot.code_filter_evals", len(codes))
    return [d for d, code in enumerate(codes) if mask[code]]


def _resolve_filter(
    path: str, segment: ImmutableSegment, flt: Filter, plan: SegmentPlan
) -> list[int]:
    """Doc ids matching one filter along ``path``; a literal the index
    cannot place is left to the scan, whose cell rule says what it means."""
    if path != "scan":
        docs = _index_lookup(path, segment, flt, plan)
        if docs is not None:
            plan.access_paths.append(f"{path}:{flt.column}")
            return docs
    return _scan_filter(segment, flt, plan)


def _try_startree(
    segment: ImmutableSegment, query: PinotQuery, plan: SegmentPlan
) -> PartialResult | None:
    """Use the segment's star-tree when the query fits its shape."""
    tree = getattr(segment, "startree", None)
    if tree is None:
        return None
    if len(query.aggregations) != 1 or not all(
        f.op == "=" for f in query.filters
    ):
        return None
    agg = query.aggregations[0]
    if agg.func not in ("COUNT", "SUM"):
        return None
    if agg.func == "COUNT" and agg.column is not None:
        # The tree counts docs; COUNT(col) counts non-NULL cells.  They
        # agree only when the zone map says the column holds no NULL.
        zone = segment.zone_maps.get(agg.column)
        if zone is None or zone.has_null:
            return None
    filters = {f.column: f.value for f in query.filters}
    try:
        tree_result, stats = tree.query(
            filters=filters,
            group_by=query.group_by,
            sum_metric=agg.column if agg.func == "SUM" else None,
        )
    except QueryError:
        return None
    plan.used_startree = True
    plan.docs_examined += stats.docs_scanned
    partial = PartialResult(plan=plan)
    for key, entry in tree_result.items():
        value = entry["count"] if agg.func == "COUNT" else entry["sum"]
        partial.groups[key] = [value]
    return partial


def _selection_page(
    segment: ImmutableSegment | MutableSegment,
    columns: list[str],
    matching: list[int],
) -> ColumnBatch:
    """The matching docs of one segment as a ColumnBatch page.

    Sealed segments gather forward-index *codes* over the shared sorted
    dictionary (zero-copy adoption, no value materialization); consuming
    segments — which have no packed form — encode their cells.
    """
    vectors = {}
    for column in columns:
        if isinstance(segment, ImmutableSegment):
            fwd = segment.forward[column]
            null_code = fwd._null_code
            gathered = fwd.codes_at(matching)
            if PERF.enabled:
                PERF.inc("columnar.cells_gathered", len(gathered))
            validity = None
            if any(code == null_code for code in gathered):
                validity = Bitmap.from_bools(
                    [code != null_code for code in gathered]
                )
                gathered = [
                    0 if code == null_code else code for code in gathered
                ]
            vectors[column] = ColumnVector.from_codes(
                tuple(fwd._dictionary), gathered, validity
            )
        else:
            vectors[column] = ColumnVector.from_values(
                segment.cells(column, matching)
            )
    return ColumnBatch(vectors, num_rows=len(matching))


def execute_on_segment(
    segment: ImmutableSegment | MutableSegment,
    query: PinotQuery,
    valid_doc_ids: set[int] | None = None,
    scan_cache=None,
    scan_epoch: int | None = None,
) -> PartialResult:
    """Run a query against one segment, returning mergeable partials.

    Execution is column-at-a-time on both segment forms: every referenced
    column is resolved before anything is read (an unknown one raises
    :class:`QueryError` whatever the data holds), each filter yields a
    doc-id list, and each group / aggregate column is then read once, as a
    list over the matching docs, and folded by column
    (:meth:`GroupFold.add_columns`).

    ``valid_doc_ids`` restricts evaluation to the still-valid documents of
    an upsert table (Section 4.3.1); ``None`` means all docs are valid.
    A selection comes back as one :class:`ColumnBatch` page
    (``PartialResult.page``), an aggregation as mergeable group states.
    ``scan_cache`` (a server's scan-share
    :class:`~repro.common.epochcache.EpochCache`) with ``scan_epoch``
    (the table epoch) memoizes doc-examining filter resolutions across
    queries; memoization happens *before* ``valid_doc_ids`` filtering,
    so upsert validity is always applied fresh.  Bare segments (benches,
    tests) pass no cache and resolve every filter fresh.
    """
    plan = SegmentPlan(segment=segment.name)
    if query.is_aggregation():
        read = [*query.group_by, *(a.column for a in query.aggregations if a.column)]
    else:
        read = query.select_columns or _column_names(segment)
    for column in [*(flt.column for flt in query.filters), *read]:
        if not segment.has_column(column):
            raise QueryError(f"unknown column {column!r} in segment {segment.name}")
    if isinstance(segment, ImmutableSegment) and valid_doc_ids is None:
        startree_result = _try_startree(segment, query, plan)
        if startree_result is not None:
            return startree_result
    matching = _matching_docs(segment, query, plan, scan_cache, scan_epoch)
    if valid_doc_ids is not None:
        matching = [d for d in matching if d in valid_doc_ids]
    partial = PartialResult(plan=plan)
    if query.is_aggregation():
        # dict.fromkeys: a column named twice is still read once.
        cells = {c: segment.cells(c, matching) for c in dict.fromkeys(read)}
        fold = group_fold(query)
        fold.add_columns(
            [cells[c] for c in query.group_by],
            [cells.get(a.column) for a in query.aggregations],
            len(matching),
        )
        partial.groups = fold.groups
    elif matching:
        partial.page = _selection_page(segment, read, matching)
    return partial


def _column_names(segment: ImmutableSegment | MutableSegment) -> list[str]:
    if isinstance(segment, ImmutableSegment):
        return segment.column_names()
    names: set[str] = set()
    for row in segment.rows:
        names.update(row)
    for batch in segment.chunks:
        names.update(batch.columns)
    return sorted(names)


def _matching_docs(
    segment: ImmutableSegment | MutableSegment,
    query: PinotQuery,
    plan: SegmentPlan,
    scan_cache=None,
    scan_epoch: int | None = None,
) -> list[int]:
    if isinstance(segment, MutableSegment):
        # Consuming segments have no indexes; always scan.  They also
        # mutate between queries, so they are never scan-share cached.
        plan.access_paths.extend(f"scan:{f.column}" for f in query.filters)
        plan.docs_examined += segment.num_docs
        docs = range(segment.num_docs)
        for flt in query.filters:  # each conjunct sees the survivors only
            if PERF.enabled:
                PERF.inc("pinot.filter_evals", len(docs))
            matches = flt.matches
            cells = segment.cells(flt.column, docs)
            docs = [d for d, cell in zip(docs, cells) if matches(cell)]
        return list(docs)
    if not query.filters:
        plan.access_paths.append("full")
        plan.docs_examined += segment.num_docs
        return list(range(segment.num_docs))
    docs: list[int] | None = None
    for flt in query.filters:
        path, examines_docs = _access_path(segment, flt)
        resolve = functools.partial(_resolve_filter, path)
        if examines_docs and scan_cache is not None:
            selected = shared_resolution(
                scan_cache, scan_epoch, segment, flt, plan, resolve
            )
        else:
            selected = resolve(segment, flt, plan)
        docs = selected if docs is None else intersect_sorted(docs, selected)
        if not docs:
            return []
    return docs or []
