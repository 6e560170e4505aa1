"""Keyed state backends (Section 4.2: "built-in state management").

Operators access state scoped to the current key.  The backend snapshots to
and restores from plain bytes via the serde layer, which is what the
checkpoint coordinator persists to the storage layer.  State size is
measurable (``deep_sizeof``) for the memory benchmarks and the
autoscaler's memory-bound heuristics.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.common import serde
from repro.common.errors import CheckpointError
from repro.common.memory import deep_sizeof


class KeyedStateBackend:
    """All keyed state of one operator subtask.

    State is organized as named *descriptors* (like Flink's state
    descriptors); each descriptor holds a map key -> value.  Values must be
    serde-serializable for checkpointing (enforced at snapshot time, not on
    every update, to keep the hot path fast).
    """

    def __init__(self) -> None:
        self._state: dict[str, dict[Hashable, Any]] = {}

    # -- value state -------------------------------------------------------

    def get(self, descriptor: str, key: Hashable, default: Any = None) -> Any:
        table = self._state.get(descriptor)
        return default if table is None else table.get(key, default)

    def put(self, descriptor: str, key: Hashable, value: Any) -> None:
        self._state.setdefault(descriptor, {})[key] = value

    def remove(self, descriptor: str, key: Hashable) -> None:
        table = self._state.get(descriptor)
        if table is not None:
            table.pop(key, None)

    def keys(self, descriptor: str) -> list[Hashable]:
        return list(self._state.get(descriptor, {}))

    def items(self, descriptor: str) -> list[tuple[Hashable, Any]]:
        return list(self._state.get(descriptor, {}).items())

    # -- list state ---------------------------------------------------------

    def append(self, descriptor: str, key: Hashable, value: Any) -> None:
        table = self._state.setdefault(descriptor, {})
        table.setdefault(key, []).append(value)

    def get_list(self, descriptor: str, key: Hashable) -> list[Any]:
        table = self._state.get(descriptor)
        entries = None if table is None else table.get(key)
        return [] if entries is None else entries

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        self._state.clear()

    def size_bytes(self) -> int:
        """Retained memory of all state (drives autoscaling + benches)."""
        return deep_sizeof(self._state)

    def entry_count(self) -> int:
        return sum(len(table) for table in self._state.values())

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize all state.  Keys and values must be serde-compatible;
        tuples are converted to lists (and restored as tuples for keys)."""
        try:
            payload = {
                descriptor: [[_key_to_wire(k), _value_to_wire(v)] for k, v in table.items()]
                for descriptor, table in self._state.items()
            }
            return serde.encode(payload)
        except Exception as exc:
            raise CheckpointError(f"state is not serializable: {exc}") from exc

    def restore(self, data: bytes) -> None:
        payload = serde.decode(data)
        self._state = {
            descriptor: {_key_from_wire(k): _value_from_wire(v) for k, v in entries}
            for descriptor, entries in payload.items()
        }


def _key_to_wire(key: Hashable) -> Any:
    if isinstance(key, tuple):
        return {"__tuple__": [_key_to_wire(k) for k in key]}
    return key


def _key_from_wire(key: Any) -> Hashable:
    if isinstance(key, dict) and "__tuple__" in key:
        return tuple(_key_from_wire(k) for k in key["__tuple__"])
    return key


def _value_to_wire(value: Any) -> Any:
    if isinstance(value, tuple):
        return {"__tuple__": [_value_to_wire(v) for v in value]}
    if isinstance(value, list):
        return [_value_to_wire(v) for v in value]
    if isinstance(value, dict):
        return {k: _value_to_wire(v) for k, v in value.items()}
    return value


def _value_from_wire(value: Any) -> Any:
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_value_from_wire(v) for v in value["__tuple__"])
    if isinstance(value, list):
        return [_value_from_wire(v) for v in value]
    if isinstance(value, dict):
        return {k: _value_from_wire(v) for k, v in value.items()}
    return value
