"""Columnar segments: Pinot's storage unit (Section 4.3).

"Data is chunked by time boundary and grouped into segments."  An
:class:`ImmutableSegment` stores each column as a dictionary-encoded,
bit-packed forward index ("optimized data structures such as bit
compressed forward indices, for lowering the data footprint" — the Druid
comparison) plus the per-column indexes configured for the table.

A :class:`MutableSegment` is the realtime, row-appendable form; sealing
sorts by the configured sort column, builds the packed forward indexes and
the query indexes, and yields the immutable form.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.common import serde
from repro.common.errors import SegmentError
from repro.common.memory import deep_sizeof
from repro.common.perf import PERF
from repro.pinot.indexes import BloomFilter, InvertedIndex, RangeIndex, SortedIndex


@dataclass(frozen=True)
class IndexConfig:
    """Which indexes each column of a table carries."""

    inverted: frozenset[str] = frozenset()
    range_indexed: frozenset[str] = frozenset()
    sort_column: str | None = None
    # Columns carrying a segment-level bloom filter (equality pruning on
    # high-cardinality columns; zone maps are built for every column).
    bloom_filtered: frozenset[str] = frozenset()


def _value_class(value: Any) -> str:
    """Comparability class: values of one class mutually order."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "num" if value == value else "nan"  # NaN orders with nothing
    return type(value).__name__


@dataclass(frozen=True)
class ZoneMap:
    """Per-column min/max summary for cross-segment pruning.

    ``comparable`` is False for mixed-type columns, whose min/max is not
    meaningful; ``all_null`` columns match no predicate at all (filters
    never match NULL), so the segment is always prunable on them.
    """

    min_value: Any = None
    max_value: Any = None
    has_null: bool = False
    all_null: bool = False
    comparable: bool = False

    def may_match(self, predicate) -> bool:
        """Could *any* doc in the zone satisfy the predicate?  False is a
        proof of absence; the range rule itself is the shared
        :meth:`repro.common.relational.Predicate.may_match`."""
        if self.all_null:
            return False
        if not self.comparable:
            return True
        return predicate.may_match(self.min_value, self.max_value)

    def to_payload(self) -> list[Any]:
        return [self.min_value, self.max_value, self.has_null,
                self.all_null, self.comparable]

    @classmethod
    def from_payload(cls, payload: list[Any]) -> "ZoneMap":
        return cls(*payload)


#: Bit widths whose packed form is a plain array: width -> struct code.
_ALIGNED_WIDTHS = {8: "B", 16: "H", 32: "I"}


class BitPackedArray:
    """Fixed-width bit packing of small non-negative ints into a bytearray.

    This is the "bit compressed forward index": with a dictionary of
    cardinality C, each value costs ceil(log2(C)) bits instead of a Python
    object reference.
    """

    def __init__(self, values: Iterable[int], bit_width: int) -> None:
        if not 1 <= bit_width <= 32:
            raise SegmentError(f"bit width must be in [1, 32], got {bit_width}")
        self.bit_width = bit_width
        values = list(values)
        self.length = len(values)
        self._data = bytearray((self.length * bit_width + 7) // 8)
        for index, value in enumerate(values):
            if value < 0 or value >= (1 << bit_width):
                raise SegmentError(
                    f"value {value} does not fit in {bit_width} bits"
                )
            self._set(index, value)

    def _set(self, index: int, value: int) -> None:
        bit_pos = index * self.bit_width
        for offset in range(self.bit_width):
            if value & (1 << offset):
                pos = bit_pos + offset
                self._data[pos >> 3] |= 1 << (pos & 7)

    def get(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(index)
        bit_pos = index * self.bit_width
        byte_pos = bit_pos >> 3
        # A 5-byte little-endian window always covers bit offset (<=7) plus
        # up to 32 value bits.
        chunk = int.from_bytes(self._data[byte_pos : byte_pos + 5], "little")
        return (chunk >> (bit_pos & 7)) & ((1 << self.bit_width) - 1)

    def decode_all(self) -> list[int]:
        """Decode every value in one chunked pass.

        One big-int conversion covers a run of values, so per-value work is
        a shift + mask instead of a bounds check and a fresh 5-byte window.
        Chunks stay small (~512 bytes) to keep the big-int shifts cheap.
        A byte-aligned width is already an array of little-endian ints.
        """
        width = self.bit_width
        aligned = _ALIGNED_WIDTHS.get(width)
        if aligned is not None:
            return list(struct.unpack(f"<{self.length}{aligned}", self._data))
        mask = (1 << width) - 1
        out: list[int] = []
        values_per_chunk = max(1, 4096 // width)
        for start in range(0, self.length, values_per_chunk):
            stop = min(start + values_per_chunk, self.length)
            bit_lo = start * width
            chunk = int.from_bytes(
                self._data[bit_lo >> 3 : (stop * width + 7) >> 3], "little"
            )
            chunk >>= bit_lo & 7
            for __ in range(stop - start):
                out.append(chunk & mask)
                chunk >>= width
        return out

    def __len__(self) -> int:
        return self.length

    def packed_bytes(self) -> int:
        return len(self._data)


class ForwardIndex:
    """Dictionary-encoded column: sorted dictionary + bit-packed codes.

    ``values()`` materializes Python objects lazily per doc id; scans use
    :meth:`get` in a tight loop.
    """

    def __init__(self, raw_values: list[Any]) -> None:
        try:
            keys = raw_values
            dictionary = sorted(
                {v for v in raw_values if v is not None}, key=_sort_key
            )
            index = {v: i for i, v in enumerate(dictionary)}
        except TypeError:
            # Unhashable cells (the dicts and lists of a JSON column) are
            # deduplicated and coded by their equality-canonical encoding;
            # the first of several equal cells is the one stored.
            keys = [None if v is None else serde.encode_key(v) for v in raw_values]
            first = dict(zip(reversed(keys), reversed(raw_values)))
            first.pop(None, None)
            dictionary = sorted(first.values(), key=_sort_key)
            index = {serde.encode_key(v): i for i, v in enumerate(dictionary)}
        self._dictionary: list[Any] = dictionary
        null_code = len(self._dictionary)  # one extra code for NULL
        cardinality = null_code + 1
        bit_width = max(1, (cardinality - 1).bit_length())
        codes = [null_code if k is None else index[k] for k in keys]
        self._codes = BitPackedArray(codes, bit_width)
        self._null_code = null_code

    def get(self, doc_id: int) -> Any:
        if PERF.enabled:
            PERF.inc("pinot.cell_reads")
        code = self._codes.get(doc_id)
        if code == self._null_code:
            return None
        return self._dictionary[code]

    def codes(self) -> list[int]:
        """Bulk-decode the packed code array (the columnar fast path)."""
        out = self._codes.decode_all()
        if PERF.enabled:
            PERF.inc("pinot.cells_decoded", len(out))
        return out

    def codes_at(self, doc_ids: list[int]) -> list[int]:
        """Codes of the given docs.  A bulk-decoded cell costs ~1/5th of a
        random-access read, so the whole column is decoded once a fifth
        of it is needed; selective reads stay random-access."""
        if len(doc_ids) * 5 >= len(self._codes):
            codes = self.codes()
            return [codes[d] for d in doc_ids]
        if PERF.enabled:
            PERF.inc("pinot.cell_reads", len(doc_ids))
        get = self._codes.get
        return [get(d) for d in doc_ids]

    def values_list(self) -> list[Any]:
        """The whole column as a Python list via one bulk decode.

        Nothing is cached — the decoded list is the caller's — so the
        segment's measured memory footprint stays that of the packed form.
        """
        table = self._dictionary + [None]  # the null code decodes to None
        return [table[code] for code in self.codes()]

    def values_at(self, doc_ids: list[int]) -> list[Any]:
        """Cells of the given docs: one gather of codes, one table sweep."""
        table = self._dictionary + [None]
        return [table[code] for code in self.codes_at(doc_ids)]

    def match_mask(self, predicate) -> list[bool]:
        """Evaluate a predicate once per distinct value (plus NULL),
        yielding a code -> matches table for code-space filtering."""
        mask = [predicate(v) for v in self._dictionary]
        mask.append(False)  # NULL never matches a filter
        return mask

    def materialize(self) -> list[Any]:
        return self.values_list()

    def cardinality(self) -> int:
        return len(self._dictionary)

    def __len__(self) -> int:
        return len(self._codes)

    def disk_bytes(self) -> int:
        """Serialized size: dictionary + packed codes."""
        return serde.encoded_size(self._dictionary) + self._codes.packed_bytes()


#: Value classes :func:`_sort_key` sorts as their own ``<`` would; any other
#: type (a list, a Decimal) is ordered by its text, which ``<`` need not follow.
_NATURALLY_SORTED = frozenset({"bool", "num", "str"})


def _sort_key(value: Any):
    # Mixed-type columns sort by (type name, repr) to stay deterministic.
    if isinstance(value, bool):
        return ("bool", str(value))
    if isinstance(value, (int, float)):
        return ("num", value)
    return (type(value).__name__, str(value))


class ImmutableSegment:
    """Sealed columnar segment with forward + query indexes."""

    def __init__(
        self,
        name: str,
        columns: dict[str, list[Any]],
        index_config: IndexConfig | None = None,
        time_column: str | None = None,
        partition_id: int | None = None,
    ) -> None:
        if not columns:
            raise SegmentError("segment needs at least one column")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise SegmentError("column lengths differ")
        self.name = name
        self.num_docs = lengths.pop()
        self.index_config = index_config or IndexConfig()
        self.time_column = time_column
        self.partition_id = partition_id
        raw = columns
        # Sort rows by the sort column so the SortedIndex applies.
        sort_column = self.index_config.sort_column
        if sort_column is not None and sort_column in raw and self.num_docs:
            order = sorted(
                range(self.num_docs), key=lambda i: _sort_key(raw[sort_column][i])
            )
            raw = {name: [vals[i] for i in order] for name, vals in raw.items()}
        self.forward: dict[str, ForwardIndex] = {
            name: ForwardIndex(vals) for name, vals in raw.items()
        }
        self.inverted: dict[str, InvertedIndex] = {
            name: InvertedIndex(raw[name])
            for name in self.index_config.inverted
            if name in raw
        }
        self.ranges: dict[str, RangeIndex] = {
            name: RangeIndex(raw[name])
            for name in self.index_config.range_indexed
            if name in raw
        }
        self.sorted_index: SortedIndex | None = (
            SortedIndex(raw[sort_column])
            if sort_column is not None and sort_column in raw
            else None
        )
        if time_column is not None and time_column in raw and self.num_docs:
            times = [t for t in raw[time_column] if t is not None]
            self.min_time = min(times) if times else None
            self.max_time = max(times) if times else None
        else:
            self.min_time = self.max_time = None
        # Commit-time pruning metadata: a zone map per column (cheap — the
        # forward dictionary is already sorted) plus blooms where configured.
        self.zone_maps: dict[str, ZoneMap] = {
            name: self._build_zone_map(name, raw[name]) for name in raw
        }
        self.blooms: dict[str, BloomFilter] = {
            name: BloomFilter.build(self.forward[name]._dictionary)
            for name in self.index_config.bloom_filtered
            if name in raw
        }

    def _build_zone_map(self, name: str, raw_values: list[Any]) -> ZoneMap:
        dictionary = self.forward[name]._dictionary
        has_null = any(v is None for v in raw_values)
        if not dictionary:
            return ZoneMap(has_null=has_null, all_null=True)
        classes = {_value_class(v) for v in dictionary}
        if len(classes) != 1 or not classes <= _NATURALLY_SORTED:
            return ZoneMap(has_null=has_null)  # mixed types: not comparable
        # The dictionary ascends under the values' own ``<`` — min/max are
        # free, and a range filter can bisect it (``Predicate.code_range``).
        return ZoneMap(
            min_value=dictionary[0],
            max_value=dictionary[-1],
            has_null=has_null,
            comparable=True,
        )

    # -- cross-segment pruning (broker-side) --------------------------------

    def may_match(self, filters) -> bool:
        """Could this segment hold any doc satisfying *all* filters?

        Consulted by the broker before fan-out; a False verdict proves the
        segment contributes nothing to the query, so skipping it cannot
        change results.  Unknown columns are left to the executor (which
        raises a proper error on scan).
        """
        counting = PERF.enabled
        for flt in filters:
            zone = self.zone_maps.get(flt.column)
            if zone is not None:
                if counting:
                    PERF.inc("pinot.zonemap_checks")
                if not zone.may_match(flt):
                    return False
            bloom = self.blooms.get(flt.column)
            if bloom is not None and flt.op in ("=", "IN"):
                if counting:
                    PERF.inc("pinot.bloom_checks")
                candidates = flt.values if flt.op == "IN" else (flt.value,)
                if not any(bloom.might_contain(v) for v in candidates):
                    return False
        return True

    def column_names(self) -> list[str]:
        return list(self.forward)

    def has_column(self, column: str) -> bool:
        return column in self.forward

    def _forward(self, column: str) -> ForwardIndex:
        fwd = self.forward.get(column)
        if fwd is None:
            raise SegmentError(f"segment {self.name} has no column {column!r}")
        return fwd

    def value(self, column: str, doc_id: int) -> Any:
        return self._forward(column).get(doc_id)

    def cells(self, column: str, doc_ids: list[int]) -> list[Any]:
        """One column's cells for the given docs, as a list."""
        return self._forward(column).values_at(doc_ids)

    def row(self, doc_id: int) -> dict[str, Any]:
        if PERF.enabled:
            PERF.inc("pinot.row_allocs")
        return {name: fwd.get(doc_id) for name, fwd in self.forward.items()}

    # -- size accounting (C3 footprint comparisons) -------------------------

    def disk_bytes(self) -> int:
        total = sum(fwd.disk_bytes() for fwd in self.forward.values())
        # Inverted postings and range buckets also live on disk.
        for inv in self.inverted.values():
            total += inv.posting_entries() * 4  # 4-byte doc ids
        for rng in self.ranges.values():
            total += sum(len(b) for b in rng._buckets) * 4
        for bloom in self.blooms.values():
            total += bloom.disk_bytes()
        return total

    def memory_bytes(self) -> int:
        return deep_sizeof(
            {"forward": self.forward, "inverted": self.inverted, "ranges": self.ranges}
        )

    def to_bytes(self) -> bytes:
        """Serialize for archival (segment store / peer transfer).

        Pruning metadata (zone maps, blooms) travels with the segment so a
        recovered or peer-transferred copy prunes identically without a
        rebuild.
        """
        payload = {
            "name": self.name,
            "time_column": self.time_column,
            "partition_id": self.partition_id,
            "sort_column": self.index_config.sort_column,
            "inverted": sorted(self.index_config.inverted),
            "range_indexed": sorted(self.index_config.range_indexed),
            "bloom_filtered": sorted(self.index_config.bloom_filtered),
            "columns": {
                name: fwd.materialize() for name, fwd in self.forward.items()
            },
            "zone_maps": {
                name: zone.to_payload() for name, zone in self.zone_maps.items()
            },
            "blooms": {
                name: bloom.to_payload() for name, bloom in self.blooms.items()
            },
        }
        return serde.encode(payload)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ImmutableSegment":
        payload = serde.decode(data)
        segment = cls(
            name=payload["name"],
            columns=payload["columns"],
            index_config=IndexConfig(
                inverted=frozenset(payload["inverted"]),
                range_indexed=frozenset(payload["range_indexed"]),
                sort_column=payload["sort_column"],
                bloom_filtered=frozenset(payload.get("bloom_filtered", ())),
            ),
            time_column=payload["time_column"],
            partition_id=payload["partition_id"],
        )
        # Adopt the persisted pruning metadata (identical to the rebuild by
        # construction; adopting it exercises the serialized form).
        if "zone_maps" in payload:
            segment.zone_maps = {
                name: ZoneMap.from_payload(p)
                for name, p in payload["zone_maps"].items()
            }
        if "blooms" in payload:
            segment.blooms = {
                name: BloomFilter.from_payload(p)
                for name, p in payload["blooms"].items()
            }
        return segment


@dataclass
class MutableSegment:
    """Realtime segment (the "consuming" segment).

    Accepts rows one at a time (:meth:`append`) or whole column batches
    (:meth:`append_chunk`, the vectorized ingest path).  Doc ids follow
    append order across both forms; appending a row while chunks are
    pending materializes the chunks first so ordering stays exact.
    """

    name: str
    partition_id: int | None = None
    rows: list[dict[str, Any]] = field(default_factory=list)
    # When set (realtime tables pass the schema's columns), references to
    # unknown columns fail loudly instead of reading as NULL.
    column_names: list[str] | None = None
    # Column batches appended after ``rows`` (doc order: rows, then chunks).
    chunks: list[Any] = field(default_factory=list)
    _chunk_docs: int = field(default=0, init=False, repr=False)

    def append(self, row: dict[str, Any]) -> int:
        """Append a row; returns its doc id within this segment."""
        if PERF.enabled:
            PERF.inc("pinot.rows_ingested")
        if self.chunks:
            self._materialize_chunks()
        self.rows.append(row)
        return len(self.rows) - 1

    def append_chunk(self, batch: Any) -> int:
        """Append a :class:`~repro.columnar.ColumnBatch`; returns the doc id
        of its first row.  Cells stay columnar until seal or access."""
        if PERF.enabled:
            PERF.inc("pinot.chunk_rows_ingested", len(batch))
        base = self.num_docs
        self.chunks.append(batch)
        self._chunk_docs += len(batch)
        return base

    def _materialize_chunks(self) -> None:
        """Degrade pending chunks to rows (mixed row/chunk appends)."""
        for batch in self.chunks:
            self.rows.extend(batch.to_rows())
        self.chunks.clear()
        self._chunk_docs = 0

    @property
    def num_docs(self) -> int:
        return len(self.rows) + self._chunk_docs

    def _chunk_cell(self, column: str | None, doc_id: int) -> Any:
        """Cell (or row dict, when ``column`` is None) from the chunk tail."""
        i = doc_id - len(self.rows)
        for batch in self.chunks:
            if i < len(batch):
                if column is None:
                    return batch.row(i)
                vector = batch.columns.get(column)
                return vector.get(i) if vector is not None else None
            i -= len(batch)
        raise IndexError(doc_id)

    def has_column(self, column: str) -> bool:
        """False only for a column the declared schema rules out."""
        return self.column_names is None or column in self.column_names

    def _require(self, column: str) -> None:
        if not self.has_column(column):
            raise SegmentError(f"segment {self.name} has no column {column!r}")

    def value(self, column: str, doc_id: int) -> Any:
        self._require(column)
        if doc_id < len(self.rows):
            return self.rows[doc_id].get(column)
        return self._chunk_cell(column, doc_id)

    def _column(self, column: str) -> list[Any]:
        """Every doc's cell of one column, pending chunks included."""
        cells = [row.get(column) for row in self.rows]
        for batch in self.chunks:
            vector = batch.columns.get(column)
            if vector is None:
                cells.extend([None] * len(batch))
            else:
                cells.extend(vector.values_list())
        return cells

    def cells(self, column: str, doc_ids: Sequence[int]) -> list[Any]:
        """One column's cells for the given docs, as a list: the consuming
        segment's column read (``value`` once per doc is the row read)."""
        self._require(column)
        rows = self.rows
        if not self.chunks:
            return [rows[d].get(column) for d in doc_ids]
        whole = self._column(column)
        return [whole[d] for d in doc_ids]

    def row(self, doc_id: int) -> dict[str, Any]:
        if doc_id < len(self.rows):
            return self.rows[doc_id]
        return self._chunk_cell(None, doc_id)

    def seal(
        self,
        index_config: IndexConfig | None = None,
        time_column: str | None = None,
        column_names: list[str] | None = None,
    ) -> ImmutableSegment:
        """Convert to the sealed columnar form with all indexes built."""
        if not self.num_docs:
            raise SegmentError(f"cannot seal empty segment {self.name}")
        names = column_names or sorted(
            {k for row in self.rows for k in row}
            | {name for batch in self.chunks for name in batch.columns}
        )
        return ImmutableSegment(
            self.name,
            {name: self._column(name) for name in names},
            index_config=index_config,
            time_column=time_column,
            partition_id=self.partition_id,
        )
