"""Typed column vectors: validity bitmap + dictionary-coded or raw values.

A :class:`ColumnVector` is the unit of the vectorized data plane.  It
stores one column of a batch either *dictionary-coded* (a tuple of
distinct values plus a small-int code per row — the layout Pinot's
forward index already uses) or *raw* (a plain value list for high-
cardinality or unhashable data).  Nulls live in a packed validity
bitmap, never in the value arrays, so kernels can sweep code arrays
without per-cell ``is None`` checks.

Slicing is zero-copy: a slice is a ``(offset, length)`` window onto the
parent's shared buffers, so exchanging a sub-range between operators,
partitions or cache entries costs O(1) in cells.  Gathers (``take``)
copy codes but share the dictionary, which keeps re-partitioning and
filter materialization cheap (a code copy, not a value
materialization).

Encoding discipline mirrors real columnar engines: ``from_values``
dictionary-encodes while the distinct count stays small and *overflows
to raw* once cardinality passes ``max(16, n // 2)`` — past that point a
dictionary costs more than it saves.  Unhashable values always take the
raw path.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.common.errors import ReproError
from repro.common.perf import PERF


class ColumnarError(ReproError):
    """Columnar plane misuse: shape mismatch, out-of-range access."""


class Bitmap:
    """Packed validity bits; bit ``i`` set means row ``i`` is non-null."""

    __slots__ = ("_bits", "length")

    def __init__(self, bits: bytearray, length: int) -> None:
        self._bits = bits
        self.length = length

    @classmethod
    def from_bools(cls, flags: Sequence[bool]) -> "Bitmap":
        bits = bytearray((len(flags) + 7) // 8)
        for i, flag in enumerate(flags):
            if flag:
                bits[i >> 3] |= 1 << (i & 7)
        return cls(bits, len(flags))

    @classmethod
    def all_set(cls, length: int) -> "Bitmap":
        bits = bytearray(b"\xff" * ((length + 7) // 8))
        return cls(bits, length)

    def get(self, i: int) -> bool:
        return bool(self._bits[i >> 3] & (1 << (i & 7)))

    def count_set(self, offset: int = 0, length: int | None = None) -> int:
        if length is None:
            length = self.length - offset
        return sum(1 for i in range(offset, offset + length) if self.get(i))

    def to_bools(self, offset: int = 0, length: int | None = None) -> list[bool]:
        if length is None:
            length = self.length - offset
        return [self.get(offset + i) for i in range(length)]


class ColumnVector:
    """One column of a batch: dictionary-coded or raw, with a null bitmap.

    Instances are views: ``offset``/``length`` window shared ``codes`` /
    ``values`` buffers, so ``slice`` never copies cells.  Buffers are
    append-only once built — views alias them, so mutating in place
    would corrupt every sibling slice.
    """

    __slots__ = ("dictionary", "codes", "values", "validity", "offset", "length")

    #: Cardinality below this always dictionary-encodes.
    DICT_FLOOR = 16

    def __init__(
        self,
        *,
        dictionary: tuple | None,
        codes: list[int] | None,
        values: list | None,
        validity: Bitmap | None,
        offset: int = 0,
        length: int | None = None,
    ) -> None:
        backing = codes if codes is not None else values
        if backing is None:
            backing = []
        self.dictionary = dictionary
        self.codes = codes
        self.values = values
        self.validity = validity
        self.offset = offset
        self.length = len(backing) - offset if length is None else length

    # -- construction ------------------------------------------------------

    @classmethod
    def from_values(cls, values: Iterable[Any]) -> "ColumnVector":
        """Build a vector, dictionary-encoding while cardinality is low.

        Falls back to raw storage when the distinct count overflows
        ``max(DICT_FLOOR, n // 2)`` or a value is unhashable.  ``None``
        cells go to the validity bitmap in either layout.
        """
        materialized = list(values)
        n = len(materialized)
        limit = max(cls.DICT_FLOOR, n // 2)
        index: dict[Any, int] = {}
        codes: list[int] = []
        nulls: list[int] = []
        raw = False
        for i, value in enumerate(materialized):
            if value is None:
                nulls.append(i)
                codes.append(0)
                continue
            try:
                code = index.get(value)
            except TypeError:  # unhashable: dictionary impossible
                raw = True
                break
            if code is None:
                if len(index) >= limit:
                    raw = True
                    break
                code = len(index)
                index[value] = code
            codes.append(code)
        if PERF.enabled:
            PERF.inc("columnar.cells_appended", n)
        if raw:
            return cls.raw(materialized, _count=False)
        validity = None
        if nulls:
            flags = [True] * n
            for i in nulls:
                flags[i] = False
            validity = Bitmap.from_bools(flags)
        return cls(
            dictionary=tuple(index),
            codes=codes,
            values=None,
            validity=validity,
        )

    @classmethod
    def raw(cls, values: Iterable[Any], *, _count: bool = True) -> "ColumnVector":
        """Build a raw (uncoded) vector, skipping encoding entirely."""
        materialized = list(values)
        validity = None
        if any(value is None for value in materialized):
            validity = Bitmap.from_bools([v is not None for v in materialized])
        if _count and PERF.enabled:
            PERF.inc("columnar.cells_appended", len(materialized))
        return cls(
            dictionary=None, codes=None, values=materialized, validity=validity
        )

    @classmethod
    def from_codes(
        cls,
        dictionary: tuple,
        codes: list[int],
        validity: Bitmap | None = None,
    ) -> "ColumnVector":
        """Adopt an existing code array over a shared dictionary.

        The zero-copy entry point for Pinot forward indexes: the sorted
        segment dictionary and gathered codes are shared, not copied.
        """
        return cls(
            dictionary=dictionary, codes=codes, values=None, validity=validity
        )

    # -- introspection -----------------------------------------------------

    @property
    def is_dict(self) -> bool:
        return self.dictionary is not None

    def __len__(self) -> int:
        return self.length

    def null_count(self) -> int:
        if self.validity is None:
            return 0
        return self.length - self.validity.count_set(self.offset, self.length)

    # -- access ------------------------------------------------------------

    def get(self, i: int) -> Any:
        """Value at row ``i`` of this view; ``None`` for null cells."""
        if not 0 <= i < self.length:
            raise ColumnarError(f"row {i} out of range for length {self.length}")
        j = self.offset + i
        if self.validity is not None and not self.validity.get(j):
            return None
        if self.codes is not None:
            return self.dictionary[self.codes[j]]
        return self.values[j]

    def values_list(self) -> list:
        """Materialize this view as a plain Python list (nulls as None)."""
        j0 = self.offset
        if self.validity is None:
            if self.codes is not None:
                dictionary = self.dictionary
                return [
                    dictionary[c] for c in self.codes[j0 : j0 + self.length]
                ]
            return list(self.values[j0 : j0 + self.length])
        return [self.get(i) for i in range(self.length)]

    def code_at(self, i: int) -> int | None:
        """Dictionary code at row ``i``; ``None`` for nulls or raw vectors."""
        if self.codes is None:
            return None
        j = self.offset + i
        if self.validity is not None and not self.validity.get(j):
            return None
        return self.codes[j]

    # -- transforms --------------------------------------------------------

    def slice(self, start: int, length: int) -> "ColumnVector":
        """Zero-copy window: shares buffers, shifts the view."""
        if start < 0 or length < 0 or start + length > self.length:
            raise ColumnarError(
                f"slice [{start}:{start + length}] out of range "
                f"for length {self.length}"
            )
        return ColumnVector(
            dictionary=self.dictionary,
            codes=self.codes,
            values=self.values,
            validity=self.validity,
            offset=self.offset + start,
            length=length,
        )

    def take(self, indices: Sequence[int]) -> "ColumnVector":
        """Gather rows by view-relative index; dictionary stays shared."""
        if PERF.enabled:
            PERF.inc("columnar.cells_gathered", len(indices))
        j0 = self.offset
        if self.codes is not None:
            codes = self.codes
            gathered = [codes[j0 + i] for i in indices]
            validity = None
            if self.validity is not None:
                bitmap = self.validity
                flags = [bitmap.get(j0 + i) for i in indices]
                if not all(flags):
                    validity = Bitmap.from_bools(flags)
            return ColumnVector(
                dictionary=self.dictionary,
                codes=gathered,
                values=None,
                validity=validity,
            )
        values = self.values
        if self.validity is None:
            return ColumnVector.raw(
                [values[j0 + i] for i in indices], _count=False
            )
        return ColumnVector.raw(
            [self.get(i) for i in indices], _count=False
        )

    @staticmethod
    def concat(vectors: Sequence["ColumnVector"]) -> "ColumnVector":
        """Concatenate views into one vector.

        Shares the dictionary when every part uses the same dictionary
        object; otherwise falls back to a raw materialization.
        """
        if not vectors:
            return ColumnVector.raw([], _count=False)
        if len(vectors) == 1:
            return vectors[0]
        first = vectors[0]
        if first.codes is not None and all(
            v.codes is not None and v.dictionary == first.dictionary
            for v in vectors[1:]
        ):
            codes: list[int] = []
            flags: list[bool] = []
            any_null = False
            for v in vectors:
                j0 = v.offset
                codes.extend(v.codes[j0 : j0 + v.length])
                if v.validity is None:
                    flags.extend([True] * v.length)
                else:
                    part = v.validity.to_bools(j0, v.length)
                    flags.extend(part)
                    any_null = any_null or not all(part)
            if PERF.enabled:
                PERF.inc("columnar.cells_appended", len(codes))
            return ColumnVector(
                dictionary=first.dictionary,
                codes=codes,
                values=None,
                validity=Bitmap.from_bools(flags) if any_null else None,
            )
        merged: list = []
        for v in vectors:
            merged.extend(v.values_list())
        if PERF.enabled:
            PERF.inc("columnar.cells_appended", len(merged))
        return ColumnVector.raw(merged, _count=False)

    # -- plain-data round trip (serde / byte accounting) -------------------

    def to_plain(self) -> dict:
        """Serde-friendly representation (used for byte accounting)."""
        j0 = self.offset
        if self.codes is not None:
            out: dict[str, Any] = {
                "d": list(self.dictionary),
                "c": list(self.codes[j0 : j0 + self.length]),
            }
        else:
            out = {"v": list(self.values[j0 : j0 + self.length])}
        if self.validity is not None:
            out["n"] = self.validity.to_bools(j0, self.length)
        return out

    @classmethod
    def from_plain(cls, plain: dict) -> "ColumnVector":
        validity = None
        if "n" in plain:
            validity = Bitmap.from_bools(plain["n"])
        if "c" in plain:
            return cls(
                dictionary=tuple(plain["d"]),
                codes=list(plain["c"]),
                values=None,
                validity=validity,
            )
        return cls(
            dictionary=None, codes=None, values=list(plain["v"]), validity=validity
        )
