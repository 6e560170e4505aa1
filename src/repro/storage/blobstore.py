"""Generic blob storage with read-after-write consistency (Section 3).

This is the "Storage" abstraction at the bottom of Figure 2: long-term
object storage optimized for a high write rate, used by Flink for
checkpoints and by Pinot for segment archival.  Availability failures can
be injected to reproduce the Section 4.3.4 experiments (segment-store
outage halting ingestion under the centralized design).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import Clock, SystemClock
from repro.common.errors import BlobNotFoundError, StorageUnavailableError


@dataclass(frozen=True, slots=True)
class BlobStat:
    key: str
    size: int
    created_at: float


class BlobStore:
    """In-memory object store keyed by string paths.

    Guarantees read-after-write consistency: a successful ``put`` is
    immediately visible to ``get``.  A per-operation service latency can be
    charged to a simulated clock by callers; the store itself is
    instantaneous.  :meth:`total_bytes` answers cost accounting.
    """

    def __init__(self, name: str = "blobstore", clock: Clock | None = None) -> None:
        self.name = name
        self._clock = clock or SystemClock()
        self._objects: dict[str, bytes] = {}
        self._created: dict[str, float] = {}
        self._available = True

    # -- failure injection -------------------------------------------------

    def set_available(self, available: bool) -> None:
        """Inject or clear a full-service outage."""
        self._available = available

    @property
    def available(self) -> bool:
        return self._available

    def _check_available(self) -> None:
        if not self._available:
            raise StorageUnavailableError(f"{self.name} is unavailable")

    # -- object API ---------------------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        self._check_available()
        if not isinstance(data, bytes):
            raise TypeError(f"blob data must be bytes, got {type(data).__name__}")
        self._objects[key] = data
        self._created[key] = self._clock.now()

    def get(self, key: str) -> bytes:
        self._check_available()
        try:
            data = self._objects[key]
        except KeyError:
            raise BlobNotFoundError(f"{self.name}: no object at {key!r}") from None
        return data

    def delete(self, key: str) -> None:
        self._check_available()
        if key not in self._objects:
            raise BlobNotFoundError(f"{self.name}: no object at {key!r}")
        del self._objects[key]
        del self._created[key]

    def exists(self, key: str) -> bool:
        self._check_available()
        return key in self._objects

    def stat(self, key: str) -> BlobStat:
        self._check_available()
        if key not in self._objects:
            raise BlobNotFoundError(f"{self.name}: no object at {key!r}")
        return BlobStat(key, len(self._objects[key]), self._created[key])

    def list(self, prefix: str = "") -> list[str]:
        self._check_available()
        return sorted(k for k in self._objects if k.startswith(prefix))

    def total_bytes(self, prefix: str = "") -> int:
        """Total stored bytes under a prefix (cost/chargeback accounting)."""
        return sum(
            len(data) for key, data in self._objects.items() if key.startswith(prefix)
        )

    def __len__(self) -> int:
        return len(self._objects)
