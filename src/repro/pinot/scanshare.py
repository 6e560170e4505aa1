"""Per-server scan sharing: memoized filter resolutions.

The broker's result cache only pays when an *entire* query repeats; a
surge workload mostly repeats *predicates* — the same ``city = X`` or
``ts BETWEEN lo AND hi`` shows up inside thousands of distinct queries.
Resolving such a filter against a sealed segment is a pure function of
``(segment contents, predicate)``: the decode-heavy part of a scatter.
Each server memoizes exactly that in an
:class:`~repro.common.epochcache.EpochCache`, so the broker's sticky
routing — a segment's queries keep landing on the same server — turns
repeat predicates into lookups instead of forward-index decodes.

The cache class owns freshness (an entry is served only at the table
epoch it was stored under, and its successor replaces it); what is
scan sharing's own lives here:

* **Equality-canonical keys** — predicate literals are canonicalized
  through :func:`repro.common.serde.encode_key` (once per predicate:
  :attr:`~repro.common.relational.Predicate.canonical_bytes`), the same
  primitive as partition pruning and bloom filters, so ``ts = 5`` and ``ts = 5.0``
  (which the executor's Python ``==`` treats identically) share one
  entry and can never disagree with a fresh scan.  Unencodable
  literals bypass the cache entirely.
* **Expensive paths only** — callers share only resolutions that
  examine documents (forward-index scans, range-boundary refinements).
  Index lookups (sorted/inverted) are already cheaper than a cache hit.
* **Evidence-preserving** — a hit replays the stored access path and
  ``docs_examined`` into the segment plan, so query plans and stats
  read exactly as if the scan had run; only the PERF counters (and the
  saved decode work) reveal the sharing.  Sealed segments only: a
  consuming segment mutates between queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.epochcache import EpochCache
from repro.common.perf import PERF

#: Entries per server; one entry is one (segment, predicate) doc-id tuple.
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


def shared_resolution(
    cache: EpochCache, epoch: int, segment, flt, plan, resolve
) -> list[int]:
    """Doc ids of ``segment`` matching ``flt``: served from ``cache`` with
    the plan evidence replayed, else ``resolve(segment, flt, plan)`` run
    and its result and evidence stored for the next query."""
    key = share_key(segment.name, flt)
    if key is None:
        return resolve(segment, flt, plan)
    entry = cache.get(key, epoch)
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
        epoch,
        ScanShareEntry(
            tuple(docs), plan.access_paths[-1], plan.docs_examined - examined_before
        ),
    )
    return docs
