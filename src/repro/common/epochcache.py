"""The one epoch-validated cache under the query path.

Three tiers memoize work over versioned tables — the Pinot broker
(finished query results), each Pinot server (filter resolutions against
sealed segments) and each Presto worker (stage outputs) — and all three
need the same thing: ``key -> value`` that is served only while the data
it was computed from is unchanged.  "Unchanged" is an *epoch*: an opaque
value the owner derives from the table version(s) under the entry
(``TableState.epoch``, a tuple of ``(table, epoch)`` pairs for a stage
over several tables).  Epochs advance on every data mutation, so a hit is
provably fresh and invalidation never depends on wall-clock TTLs, which
would be non-deterministic under the simulated clock and stale besides.

One rule, enforced here and nowhere else: an entry is served only while
the epoch asked for equals the epoch it was stored under; the first read
under any other epoch evicts it and counts as an invalidation *and* a
miss.  The epoch is validated on read, never folded into the key, so a
stale entry is found again and replaced by its successor instead of
piling up beside it.

What is stored is shared, not copied: a value under the query path is
never written to after it is produced, so an entry, the stage that made
it and every stage it is served to may hold the same object.  Rows are
copied (:func:`copy_rows`) only where they leave that path for a caller
— ``QueryResult.rows`` for the broker's callers, ``PrestoEngine.execute``
for the engine's — because a caller is the one party the rule cannot
bind.  ``EpochCache(copy=...)`` remains for a value that does not keep
the rule.
"""

from __future__ import annotations

from collections import OrderedDict
from copy import deepcopy
from typing import Any, Callable, Hashable, Iterable

_SCALAR_TYPES = frozenset({str, int, float, bool, bytes, type(None)})


def copy_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Rows leaving the query path for a caller, isolated from whatever
    the caller does to them.

    A shallow ``dict(row)`` shares cell objects; that is only safe when
    every cell is an immutable scalar.  Rows with mutable cells (a
    JSON-valued column, say) fall back to deepcopy so a caller mutating a
    returned cell can never reach a cached entry or a segment.  A cell is
    scalar by its exact type: an instance of a subclass takes the
    deepcopy side, the safe one.
    """
    all_scalar = _SCALAR_TYPES.issuperset
    return [
        dict(row) if all_scalar(map(type, row.values())) else deepcopy(row)
        for row in rows
    ]


class EpochCache:
    """Bounded LRU of ``key -> value``, each entry valid for one epoch.

    A stored value is immutable, by type (tuples, frozen dataclasses,
    column pages) or by the query path's rule that nothing writes to a
    value once it is produced (stage payloads, answer rows): ``put``
    keeps the object it is given and every ``get`` answers with it.
    ``copy`` is for a value that is neither: it is applied on the way in
    and again on every way out, so neither what a caller put nor what it
    got back aliases the stored entry.
    ``None`` is not a storable value: ``get`` returns it for a miss.
    """

    def __init__(
        self, capacity: int, copy: Callable[[Any], Any] | None = None
    ) -> None:
        self.capacity = capacity
        self._copy = copy
        self._entries: OrderedDict[Hashable, tuple[Any, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def get(self, key: Hashable, epoch: Any) -> Any | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stored_epoch, value = entry
        if stored_epoch != epoch:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value if self._copy is None else self._copy(value)

    def put(self, key: Hashable, epoch: Any, value: Any) -> None:
        if self._copy is not None:
            value = self._copy(value)
        self._entries[key] = (epoch, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, float]:
        return combined_stats([self])


def combined_stats(caches: Iterable[EpochCache]) -> dict[str, float]:
    """The one stats shape, summed over ``caches`` (a tier that keeps one
    cache per server or per worker reports them as one)."""
    caches = list(caches)
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "invalidations": sum(c.invalidations for c in caches),
        "evictions": sum(c.evictions for c in caches),
        "entries": sum(len(c) for c in caches),
    }
