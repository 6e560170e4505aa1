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
    """COUNT / SUM / AVG / MIN / MAX / DISTINCTCOUNT over a column."""

    func: str
    column: str | None = None

    def alias(self) -> str:
        return f"{self.func.lower()}({self.column or '*'})"


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


# -- doc-id resolution using indexes -------------------------------------------


def _index_lookup(
    segment: ImmutableSegment, flt: Filter, plan: SegmentPlan
) -> list[int] | None:
    """Doc ids matching one filter via the column's best index; None when
    no index serves it.  A literal the index cannot order against the
    column's values raises ``TypeError``."""
    sort_column = segment.index_config.sort_column
    if (
        segment.sorted_index is not None
        and flt.column == sort_column
        and flt.op in ("=", ">", ">=", "<", "<=", "BETWEEN")
    ):
        plan.access_paths.append(f"sorted:{flt.column}")
        idx = segment.sorted_index
        if flt.op == "=":
            return list(idx.equals(flt.value))
        if flt.op == "BETWEEN":
            return list(idx.between(flt.low, flt.high))
        if flt.op in (">", ">="):
            docs = list(idx.between(flt.value, float("inf")))
        else:  # <, <=
            docs = list(idx.between(float("-inf"), flt.value))
        if flt.op in (">", "<"):  # the run is inclusive: drop the bound itself
            docs = [d for d in docs if flt.matches(segment.value(flt.column, d))]
        return docs
    if flt.column in segment.inverted and flt.op in ("=", "IN"):
        plan.access_paths.append(f"inverted:{flt.column}")
        inv = segment.inverted[flt.column]
        if flt.op == "=":
            return inv.lookup(flt.value)
        return inv.lookup_in(list(flt.values))
    if flt.column in segment.ranges and flt.op in (">", ">=", "<", "<=", "BETWEEN"):
        plan.access_paths.append(f"range:{flt.column}")
        rng = segment.ranges[flt.column]
        if flt.op == "BETWEEN":
            low, high = flt.low, flt.high
        elif flt.op in (">", ">="):
            low, high = flt.value, None
        else:
            low, high = None, flt.value
        certain, boundary = rng.candidates(low, high)
        refined = [
            d for d in boundary if flt.matches(segment.value(flt.column, d))
        ]
        plan.docs_examined += len(boundary)
        if PERF.enabled:
            PERF.inc("pinot.filter_evals", len(boundary))
        return union_sorted([certain, refined])
    return None


def _resolve_filter(
    segment: ImmutableSegment, flt: Filter, plan: SegmentPlan
) -> list[int]:
    """Doc ids matching one filter, via the best available access path."""
    if not flt.unsatisfiable:
        taken = len(plan.access_paths)
        try:
            docs = _index_lookup(segment, flt, plan)
        except TypeError:
            # The index cannot place this literal among the column's
            # values; the scan's cell rule says what that means.
            del plan.access_paths[taken:]
            docs = None
        if docs is not None:
            return docs
    # Fallback: forward-index scan, evaluated in code space.  The predicate
    # runs once per distinct dictionary value; each doc is then a bulk-decoded
    # code lookup instead of a random-access cell read plus a predicate call.
    plan.access_paths.append(f"scan:{flt.column}")
    fwd = segment.forward.get(flt.column)
    if fwd is None:
        raise QueryError(f"unknown column {flt.column!r} in segment {segment.name}")
    plan.docs_examined += len(fwd)
    mask = fwd.match_mask(flt.matches)
    codes = fwd.codes()
    if PERF.enabled:
        PERF.inc("pinot.filter_evals", fwd.cardinality())
        PERF.inc("pinot.code_filter_evals", len(codes))
    return [d for d, code in enumerate(codes) if mask[code]]


def _scan_shareable(segment: ImmutableSegment, flt: Filter) -> bool:
    """Whether :func:`_resolve_filter` would take a doc-examining path.

    Mirrors its dispatch order: sorted and inverted resolutions are pure
    index lookups, already cheaper than a scan-share cache hit, so only
    range-boundary refinements and forward-index scans are worth
    memoizing.
    """
    if (
        segment.sorted_index is not None
        and flt.column == segment.index_config.sort_column
        and flt.op in ("=", ">", ">=", "<", "<=", "BETWEEN")
    ):
        return False
    if flt.column in segment.inverted and flt.op in ("=", "IN"):
        return False
    return True


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


def _column_reader(
    segment: ImmutableSegment | MutableSegment, column: str, docs_needed: int
):
    """Per-doc value accessor for one column.

    On sealed segments, when enough docs are touched to amortize it, the
    whole column is bulk-decoded once and reads become plain list indexing;
    selective queries keep random-access reads.  Unknown columns still fail
    on first read, exactly like ``segment.value`` does.
    """
    if isinstance(segment, ImmutableSegment):
        fwd = segment.forward.get(column)
        # Bulk decode costs ~1/5th of a random cell read, so it pays off
        # once a fifth of the column is needed.
        if fwd is not None and docs_needed * 5 >= len(fwd):
            return fwd.values_list().__getitem__
        if fwd is not None:
            return fwd.get
    return lambda doc_id: segment.value(column, doc_id)


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
            fwd = segment.forward.get(column)
            if fwd is None:
                raise QueryError(
                    f"unknown column {column!r} in segment {segment.name}"
                )
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
                [segment.value(column, d) for d in matching]
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
    if isinstance(segment, ImmutableSegment) and valid_doc_ids is None:
        startree_result = _try_startree(segment, query, plan)
        if startree_result is not None:
            return startree_result
    matching = _matching_docs(segment, query, plan, scan_cache, scan_epoch)
    if valid_doc_ids is not None:
        matching = [d for d in matching if d in valid_doc_ids]
    partial = PartialResult(plan=plan)
    if query.is_aggregation():
        group_readers = [
            _column_reader(segment, c, len(matching)) for c in query.group_by
        ]
        agg_readers = [
            _column_reader(segment, a.column, len(matching))
            if a.column is not None
            else (lambda doc_id: None)  # COUNT(*) counts docs, not cells
            for a in query.aggregations
        ]
        fold = group_fold(query)
        for doc_id in matching:
            fold.add(
                tuple(read(doc_id) for read in group_readers),
                [read(doc_id) for read in agg_readers],
            )
        partial.groups = fold.groups
    elif matching:
        columns = query.select_columns or _column_names(segment)
        partial.page = _selection_page(segment, columns, matching)
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
        docs = list(range(segment.num_docs))
        for flt in query.filters:  # each conjunct sees the survivors only
            if PERF.enabled:
                PERF.inc("pinot.filter_evals", len(docs))
            matches, value = flt.matches, segment.value
            docs = [d for d in docs if matches(value(flt.column, d))]
        return docs
    if not query.filters:
        plan.access_paths.append("full")
        plan.docs_examined += segment.num_docs
        return list(range(segment.num_docs))
    docs: list[int] | None = None
    for flt in query.filters:
        if scan_cache is not None and _scan_shareable(segment, flt):
            selected = shared_resolution(
                scan_cache, scan_epoch, segment, flt, plan, _resolve_filter
            )
        else:
            selected = _resolve_filter(segment, flt, plan)
        docs = selected if docs is None else intersect_sorted(docs, selected)
        if not docs:
            return []
    return docs or []
