"""Active-active replicated key-value store (Section 6).

"The update service from the primary region stores the pricing result in
an active/active database for quick lookup."  Writes land in the local
region and replicate asynchronously; conflicts resolve last-writer-wins by
timestamp, which is the behaviour surge pricing wants (freshness over
consistency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import RegionError


@dataclass(frozen=True, slots=True)
class _Versioned:
    value: Any
    timestamp: float
    origin: str


class ReplicatedKV:
    """Multi-region KV with asynchronous LWW replication."""

    def __init__(self, region_names: list[str]) -> None:
        if not region_names:
            raise RegionError("need at least one region")
        self._stores: dict[str, dict[Any, _Versioned]] = {
            name: {} for name in region_names
        }
        self._pending: list[tuple[str, Any, _Versioned]] = []

    def put(self, region: str, key: Any, value: Any, timestamp: float) -> None:
        self._check_region(region)
        versioned = _Versioned(value, timestamp, region)
        self._apply(region, key, versioned)
        for other in self._stores:
            if other != region:
                self._pending.append((other, key, versioned))

    def _apply(self, region: str, key: Any, versioned: _Versioned) -> None:
        current = self._stores[region].get(key)
        # Last-writer-wins; origin name breaks timestamp ties determinately.
        if current is None or (versioned.timestamp, versioned.origin) >= (
            current.timestamp,
            current.origin,
        ):
            self._stores[region][key] = versioned

    def replicate(self) -> int:
        """Deliver all pending cross-region writes; returns count."""
        delivered = len(self._pending)
        pending, self._pending = self._pending, []
        for region, key, versioned in pending:
            self._apply(region, key, versioned)
        return delivered

    def get(self, region: str, key: Any, default: Any = None) -> Any:
        self._check_region(region)
        versioned = self._stores[region].get(key)
        return versioned.value if versioned is not None else default

    def keys(self, region: str) -> list[Any]:
        self._check_region(region)
        return sorted(self._stores[region], key=str)

    def divergent_keys(self) -> list[Any]:
        """Keys whose replicas currently disagree (pre-replication lag)."""
        all_keys = {k for store in self._stores.values() for k in store}
        out = []
        for key in all_keys:
            values = set()
            for store in self._stores.values():
                entry = store.get(key)
                values.add(None if entry is None else repr(entry.value))
            if len(values) > 1:
                out.append(key)
        return out

    def _check_region(self, region: str) -> None:
        if region not in self._stores:
            raise RegionError(f"unknown region {region!r}")
