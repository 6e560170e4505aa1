"""Per-server scan sharing: memoized work on the segments a server hosts.

The broker's result cache only pays when an *entire* query repeats at
one table version, and a live table's version moves with every row
ingested.
Work on a *sealed* segment does not go stale that way: an
:class:`~repro.pinot.segment.ImmutableSegment` never changes once built,
so each server keeps one :class:`~repro.common.epochcache.EpochCache`
(``PinotServer.scan_cache``) of work done on the sealed segments it
hosts, validated by the segment instance (``ImmutableSegment.serial``),
not by the table.  Ingest, a neighbour sealing or a segment dropped
elsewhere leaves an entry fresh; a segment rebuilt under the same name
(:meth:`~repro.pinot.segment.ImmutableSegment.from_bytes`) is a new
instance, and the first read under it replaces the old entry.  A
consuming segment's aggregation partials share the rule (see below).  The
broker's sticky routing — a segment's queries keep landing on the same
server — is what makes a server's entries pay.

Two kinds of entry share the cache and the rule:

* **Filter resolutions**, keyed ``(segment name, predicate)``.  Resolving
  a filter against a sealed segment is a pure function of ``(segment
  contents, predicate)``: the decode-heavy part of a scatter, and a surge
  workload repeats *predicates* inside thousands of distinct queries.
  Predicate literals are canonicalized through
  :func:`repro.common.serde.encode_key` (once per predicate:
  :attr:`~repro.common.relational.Predicate.canonical_bytes`), the same
  primitive as partition pruning and bloom filters, so ``ts = 5`` and
  ``ts = 5.0`` (which the executor's Python ``==`` treats identically)
  share one entry and can never disagree with a fresh scan; unencodable
  literals bypass the cache.  Only resolutions that examine documents
  (forward-index scans, range-boundary refinements) are shared: index
  lookups (sorted/inverted) are already cheaper than a cache hit.
  Memoization happens before upsert validity is applied, so that is
  always applied fresh.
* **Partial results**, keyed ``(segment name, normalized query)``: a
  sealed segment's whole :class:`~repro.pinot.query.PartialResult`, or
  for a consuming segment and an aggregation, ``(docs covered,
  partial)``.  The broker passes the query key only for a query it
  answered before the table moved (a dashboard panel asked again after
  ingest), so a stream of distinct queries stores none.  Never for an
  upsert subquery, whose valid docs move with every upsert.

Both are **evidence-preserving**: a hit replays the stored access path
and ``docs_examined`` (a partial carries its whole ``SegmentPlan``), so
query plans and stats read exactly as if the segment had been executed;
only the cache's counters and the saved work reveal the sharing.

A consuming segment (:class:`~repro.pinot.segment.MutableSegment`) gains
docs between queries but is append-only, and a new instance has its own
``serial`` too (a seal keeps the name; so does a partition reopened on a
restarted owner).  So a held aggregation partial stays true of the docs
it covers: a repeat folds only the docs appended since on top of copies
of its states, in doc order, and keeps the result in its place — the
states a fold from doc 0 would reach, and the plan of one.  Filter
resolutions and selection pages of a consuming segment are not kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.epochcache import EpochCache
from repro.common.perf import PERF

#: Entries per server; one entry is one (segment, predicate) doc-id tuple
#: or one (segment, query) partial result.
SCAN_SHARE_CAPACITY = 65_536


@dataclass(frozen=True)
class ScanShareEntry:
    """One memoized filter resolution against one sealed segment."""

    docs: tuple[int, ...]
    access_path: str
    docs_examined: int


def share_key(segment_name: str, flt) -> tuple[str, bytes] | None:
    """Canonical cache key; None when a literal is unencodable."""
    predicate = flt.canonical_bytes
    return None if predicate is None else (segment_name, predicate)


def shared_resolution(cache: EpochCache, segment, flt, plan, resolve) -> list[int]:
    """Doc ids of ``segment`` matching ``flt``: served from ``cache`` with
    the plan evidence replayed, else ``resolve(segment, flt, plan)`` run
    and its result and evidence stored for the next query."""
    key = share_key(segment.name, flt)
    if key is None:
        return resolve(segment, flt, plan)
    entry = cache.get(key, segment.serial)
    if entry is not None:
        if PERF.enabled:
            PERF.inc("pinot.scanshare_hits")
            PERF.inc("pinot.scanshare_docs_served", len(entry.docs))
        plan.access_paths.append(entry.access_path)
        plan.docs_examined += entry.docs_examined
        return list(entry.docs)
    if PERF.enabled:
        PERF.inc("pinot.scanshare_misses")
    examined_before = plan.docs_examined
    docs = resolve(segment, flt, plan)
    cache.put(
        key,
        segment.serial,
        ScanShareEntry(
            tuple(docs), plan.access_paths[-1], plan.docs_examined - examined_before
        ),
    )
    return docs
