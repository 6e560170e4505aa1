"""Per-column segment indexes: inverted, sorted, range, bloom (Section 4.3).

Pinot "supports a number of fast indexing techniques, such as inverted,
range, sorted and startree index, to answer the low-latency OLAP
queries."  These are the value-level ones; the star-tree lives in
:mod:`repro.pinot.startree`.

Doc-level indexes answer with sorted lists of doc ids, which the query
executor intersects.  The Druid-style foil (C4, ``benchmarks/foils``) runs
the same queries with the indexes disabled.  The :class:`BloomFilter` is
segment-level: it answers "might this segment contain value v at all",
which the broker uses to prune whole segments from the scatter before
fanning out.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Sequence

from repro.common import serde
from repro.common.errors import QueryError


def intersect_sorted(a: list[int], b: list[int]) -> list[int]:
    """Intersection of two ascending doc-id lists: the longer one,
    filtered by membership in a set of the shorter, so still ascending."""
    if len(a) < len(b):
        a, b = b, a
    return list(filter(set(b).__contains__, a))


def union_sorted(lists: list[list[int]]) -> list[int]:
    """Union of ascending doc-id lists (deduplicated)."""
    seen: set[int] = set()
    for docs in lists:
        seen.update(docs)
    return sorted(seen)


def _bloom_key(value: Any) -> bytes | None:
    """Canonical bytes for a value, equality-compatible across types.

    ``5 == 5.0 == True`` under Python equality (and ``Decimal(5) == 5``),
    so numerics hash through :func:`serde.encode_key`'s one canonical
    float representation — otherwise a float literal in a query could miss
    an int stored in the column and cause a *false negative*, which for a
    pruning filter means wrong results.  The same function drives the
    producer's hash partitioner, so every pruning structure shares one
    notion of equality.  Collisions only ever add false positives, which
    are safe.  Returns None for values with no stable canonical encoding
    (the filter then refuses to rule the segment out rather than risk
    instability across processes).
    """
    try:
        return serde.encode_key(value)
    except Exception:
        return None


class BloomFilter:
    """Segment-level membership sketch over a column's distinct values.

    Deterministic double hashing (blake2b split into two 64-bit halves)
    over the canonical serde encoding, so the bit pattern — and therefore
    every pruning decision — is byte-identical across runs and machines
    (Python's ``hash()`` is randomized; never use it here).
    """

    def __init__(
        self,
        num_bits: int,
        num_hashes: int,
        bits: bytes | None = None,
        opaque: bool = False,
    ) -> None:
        if num_bits < 8 or num_hashes < 1:
            raise QueryError(
                f"bloom filter needs >=8 bits and >=1 hash, got "
                f"{num_bits}/{num_hashes}"
            )
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        # A value with no canonical encoding was inserted: the filter can
        # no longer prove absence of anything.
        self.opaque = opaque
        self._bits = bytearray(bits) if bits is not None else bytearray(
            (num_bits + 7) // 8
        )

    @classmethod
    def build(cls, values: Iterable[Any], bits_per_value: int = 10) -> "BloomFilter":
        """Size the filter for the distinct values and insert them all
        (built once, at segment commit time)."""
        distinct = list(values)
        num_bits = max(64, len(distinct) * bits_per_value)
        num_hashes = max(1, (bits_per_value * 7) // 10)  # ~0.7 * bits/value
        bloom = cls(num_bits, num_hashes)
        for value in distinct:
            bloom.add(value)
        return bloom

    def _positions(self, key: bytes) -> list[int]:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full cycle
        return [(h1 + i * h2) % self.num_bits for i in range(self.num_hashes)]

    def add(self, value: Any) -> None:
        if value is None:
            return  # NULL never matches a filter, so it never needs a bit
        key = _bloom_key(value)
        if key is None:
            self.opaque = True
            return
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def might_contain(self, value: Any) -> bool:
        """False means *definitely absent*; True means "cannot rule out"."""
        if value is None:
            return False
        if self.opaque:
            return True
        key = _bloom_key(value)
        if key is None:
            return True
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key)
        )

    def to_payload(self) -> dict[str, Any]:
        """Serializable form for segment metadata."""
        return {
            "num_bits": self.num_bits,
            "num_hashes": self.num_hashes,
            "bits": bytes(self._bits),
            "opaque": self.opaque,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "BloomFilter":
        return cls(
            payload["num_bits"],
            payload["num_hashes"],
            payload["bits"],
            opaque=payload.get("opaque", False),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BloomFilter)
            and self.num_bits == other.num_bits
            and self.num_hashes == other.num_hashes
            and self.opaque == other.opaque
            and self._bits == other._bits
        )

    def disk_bytes(self) -> int:
        return len(self._bits)


class InvertedIndex:
    """value -> ascending doc ids.  O(1) point lookups."""

    def __init__(self, values: Sequence[Any]) -> None:
        self._postings: dict[Any, list[int]] = {}
        for doc_id, value in enumerate(values):
            self._postings.setdefault(value, []).append(doc_id)

    def lookup(self, value: Any) -> list[int]:
        return self._postings.get(value, [])

    def lookup_in(self, values: Sequence[Any]) -> list[int]:
        return union_sorted([self.lookup(v) for v in values])

    def cardinality(self) -> int:
        return len(self._postings)

    def posting_entries(self) -> int:
        return sum(len(p) for p in self._postings.values())


class SortedIndex:
    """For a column whose values are sorted within the segment.

    Pinot sorts realtime segments by the configured sorted column at
    sealing time; equality and ranges become binary searches returning
    contiguous doc-id runs.
    """

    def __init__(self, values: Sequence[Any]) -> None:
        self._values = list(values)
        for prev, cur in zip(self._values, self._values[1:]):
            if cur < prev:
                raise QueryError(
                    "sorted index requires ascending values; "
                    "seal the segment with sort_column set"
                )

    def equals(self, value: Any) -> range:
        lo = bisect_left(self._values, value)
        hi = bisect_right(self._values, value)
        return range(lo, hi)

    def span(self, predicate) -> range | None:
        """The doc-id run a range predicate matches; None when its literal
        does not order against the values."""
        run = predicate.code_range(self._values)
        return None if run is None else range(*run)


class RangeIndex:
    """Bucketed numeric range index.

    Values are bucketed into ``num_buckets`` equal-width ranges; each
    bucket stores its doc ids.  A range predicate touches only candidate
    buckets (edge buckets re-check exact values via the forward index at
    query time — the executor handles that refinement).
    """

    def __init__(self, values: Sequence[float], num_buckets: int = 32) -> None:
        numeric = [v for v in values if v is not None]
        if not numeric:
            self._min = self._max = 0.0
            self._width = 1.0
        else:
            self._min = float(min(numeric))
            self._max = float(max(numeric))
            span = self._max - self._min
            self._width = span / num_buckets if span > 0 else 1.0
        self.num_buckets = num_buckets
        self._buckets: list[list[int]] = [[] for __ in range(num_buckets)]
        for doc_id, value in enumerate(values):
            if value is None:
                continue
            self._buckets[self._bucket_of(float(value))].append(doc_id)

    def _bucket_of(self, value: float) -> int:
        index = int((value - self._min) / self._width)
        return max(0, min(self.num_buckets - 1, index))

    def candidates(self, low: float | None, high: float | None) -> tuple[list[int], list[int]]:
        """Doc ids for a range predicate.

        Returns (certain, boundary): ``certain`` docs definitely satisfy
        the range (interior buckets); ``boundary`` docs need an exact
        re-check (edge buckets).
        """
        lo_bucket = self._bucket_of(low) if low is not None else 0
        hi_bucket = (
            self._bucket_of(high) if high is not None else self.num_buckets - 1
        )
        certain: list[list[int]] = []
        boundary: list[list[int]] = []
        for index in range(lo_bucket, hi_bucket + 1):
            if index in (lo_bucket, hi_bucket):
                boundary.append(self._buckets[index])
            else:
                certain.append(self._buckets[index])
        return union_sorted(certain), union_sorted(boundary)
