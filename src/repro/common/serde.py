"""Compact binary serialization ("Avro-like") for size accounting.

The paper's footprint comparisons (Pinot vs Elasticsearch disk usage, Kafka
log size) only make sense if data has a realistic on-disk representation.
This module provides a small, dependency-free binary format with the same
flavour as Avro: varint-length-prefixed fields, compact encodings for ints,
floats, strings, lists and maps.

The format is self-describing via one type tag byte per value, which is
close enough to Avro-with-embedded-reader-schema for footprint purposes.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct
from typing import Any

from repro.common.errors import SerdeError

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BYTES = 6
_TAG_LIST = 7
_TAG_MAP = 8


def _write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise SerdeError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SerdeError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        _write_varint(out, _zigzag(value))
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(struct.pack("<d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        _write_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.append(_TAG_MAP)
        _write_varint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerdeError(f"map keys must be str, got {type(key).__name__}")
            _encode_into(out, key)
            _encode_into(out, item)
    else:
        raise SerdeError(f"cannot serialize {type(value).__name__}")


def encode(value: Any) -> bytes:
    """Serialize a JSON-like value to compact bytes."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def digest(value: Any) -> int:
    """Small deterministic checksum of a JSON-like result structure: the
    first six bytes of the SHA-256 of its encoding."""
    return int.from_bytes(hashlib.sha256(encode(value)).digest()[:6], "big")


def canonical_key(value: Any) -> Any:
    """Equality-canonical form of a value, for hashing/fingerprinting.

    :func:`encode` is type-sensitive (``5``, ``5.0`` and ``True`` all encode
    differently) while Python ``==`` is not (``5 == 5.0 == True``), so any
    hash over raw encodings disagrees with filter/equality semantics.  This
    maps values to a form where ``a == b`` implies
    ``encode(canonical_key(a)) == encode(canonical_key(b))``:

    * numbers — bool/int/float, and exotic ``numbers.Number`` types
      (Decimal, Fraction, zero-imaginary complex) should one ever appear —
      coerce through one float representation ``["n", float(v)]``; integers
      beyond float range fall back to an exact ``["i", int(v)]`` encoding
      (no float can equal such an integer, so the branches never disagree
      about equal values);
    * lists/tuples recurse element-wise (``(1,) == (1.0,)``); dicts recurse
      value-wise with entries sorted by key (``{'a': 1, 'b': 2} ==
      {'b': 2, 'a': 1}``);
    * everything else (str, bytes, None) is already type-distinct under
      ``==`` and passes through unchanged.

    Every canonical form is tagged (``"n"``/``"i"``/``"c"`` for numbers,
    ``"l"``/``"m"`` for containers) and numerics are always wrapped, so a
    literal list like ``["n", 5.0]`` (which canonicalizes to
    ``["l", ["n", ["n", 5.0]]]``) cannot collide with the numeric ``5.0``.
    Distinct values may still share a canonical form
    (float rounding of exotic Reals); for hashing that only adds
    collisions / bloom false positives, never a missed match.

    Values with no canonical form (unencodable objects, NaN-like Decimals)
    are returned unchanged so :func:`encode` raises the same error it
    always did; callers that must not fail catch it and treat the value as
    "cannot rule anything out".
    """
    if isinstance(value, numbers.Number):
        if isinstance(value, numbers.Complex) and not isinstance(
            value, numbers.Real
        ):
            if value.imag != 0:
                return ["c", float(value.real), float(value.imag)]
            value = value.real
        try:
            coerced = float(value)
        except (OverflowError, ValueError):
            coerced = None  # beyond float range, or NaN-like Decimal
        if coerced is not None:
            if math.isfinite(coerced):
                return ["n", coerced]
            # Coercion can *round* to ±inf rather than raise (Decimal
            # converts via str, so float(Decimal("1e400")) == inf while
            # float(10**400) raises).  Only keep an infinite float for a
            # genuinely infinite value; finite ones take the exact path.
            try:
                if value == coerced:
                    return ["n", coerced]
            except Exception:
                pass
        try:
            return ["i", int(value)]
        except (OverflowError, ValueError, TypeError):
            return value
    if isinstance(value, (list, tuple)):
        return ["l", [canonical_key(item) for item in value]]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return ["m", [[k, canonical_key(v)] for k, v in sorted(value.items())]]
        return value  # encode() rejects non-str map keys, as before
    return value


def encode_key(value: Any) -> bytes:
    """Canonical bytes for a value, equality-compatible across types.

    The single fingerprinting primitive shared by the producer's hash
    partitioner and the segment bloom filters: both must agree with the
    query executor's Python ``==`` (``col = 5.0`` must reach rows keyed
    with int ``5``), and they must agree with *each other* so broker-side
    partition pruning provably matches producer-side placement.
    """
    return encode(canonical_key(value))


def _decode_from(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise SerdeError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_INT:
        raw, pos = _read_varint(data, pos)
        return _unzigzag(raw), pos
    if tag == _TAG_FLOAT:
        if pos + 8 > len(data):
            raise SerdeError("truncated float")
        return struct.unpack_from("<d", data, pos)[0], pos + 8
    if tag in (_TAG_STR, _TAG_BYTES):
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise SerdeError("truncated string/bytes")
        raw = data[pos : pos + length]
        pos += length
        return (raw.decode("utf-8") if tag == _TAG_STR else bytes(raw)), pos
    if tag == _TAG_LIST:
        length, pos = _read_varint(data, pos)
        items = []
        for __ in range(length):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return items, pos
    if tag == _TAG_MAP:
        length, pos = _read_varint(data, pos)
        result: dict[str, Any] = {}
        for __ in range(length):
            key, pos = _decode_from(data, pos)
            value, pos = _decode_from(data, pos)
            result[key] = value
        return result, pos
    raise SerdeError(f"unknown type tag {tag}")


def decode(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`encode`."""
    value, pos = _decode_from(data, 0)
    if pos != len(data):
        raise SerdeError(f"{len(data) - pos} trailing bytes after value")
    return value


def _varint_size(value: int) -> int:
    return 1 if value < 0x80 else (value.bit_length() + 6) // 7


def encoded_size(value: Any) -> int:
    """``len(encode(value))`` without building the buffer.

    Dispatches on the *exact* type, the way record keys and payloads are
    built; anything else (subclasses, ``bytes``, a map with a non-``str``
    key, unencodable objects) takes :func:`encode` itself, so sizes and
    errors cannot drift from the encoder.  Maps size their short ASCII
    keys and strings and their floats in the loop — a payload is mostly
    those, and a call per field was most of the cost.  A Kafka record's
    envelope is never built to be sized: ``repro.kafka.log._record_size``
    adds its fields to the envelope's fixed bytes, each through here.
    """
    kind = type(value)
    if kind is dict:
        size = 1 + _varint_size(len(value))
        for key, item in value.items():
            if type(key) is str and key.isascii() and len(key) < 0x80:
                size += 2 + len(key)
            elif isinstance(key, str):
                size += encoded_size(key)
            else:
                break  # encode() raises the SerdeError
            kind = type(item)
            if kind is str and item.isascii() and len(item) < 0x80:
                size += 2 + len(item)
            elif kind is float:
                size += 9
            else:
                size += encoded_size(item)
        else:
            return size
    elif kind is str:
        length = len(value) if value.isascii() else len(value.encode("utf-8"))
        return 1 + _varint_size(length) + length
    elif kind is float:
        return 9
    elif kind is int:
        return 1 + _varint_size(_zigzag(value))
    elif kind is list or kind is tuple:
        size = 1 + _varint_size(len(value))
        for item in value:
            size += encoded_size(item)
        return size
    elif value is None or kind is bool:
        return 1
    return len(encode(value))
