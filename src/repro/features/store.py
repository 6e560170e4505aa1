"""The feature store: versioned, event-time-stamped feature values.

The store is the serving surface between the streaming plane (Flink jobs
writing features as they process events) and the consumers of Section
5.3's prediction use case (models reading enrichment features online,
training pipelines reading them offline).  Two properties carry the
whole design:

* **Point-in-time correctness.**  Every write is stamped with the event
  time it describes; ``get_features(key, as_of)`` returns, per feature,
  the latest value whose ``event_time <= as_of`` — it can *never* read a
  value written for a later event time, no matter how far out of order
  the writes arrived.  This is the rule that keeps training data free of
  label leakage: a feature computed from the outcome can never be served
  "before" the outcome happened.
* **Idempotent versioned writes.**  Each applied write gets a
  monotonically increasing version.  A write identical in
  ``(key, feature, event_time, value)`` to one already stored is a
  duplicate delivery (an at-least-once sink replaying after a crash) and
  is absorbed without a new version, so crash-restore replays leave the
  store byte-identical.  Distinct values at the same event time are kept
  as separate versions and the latest version wins at read time.

Online/offline consistency is checked with the :mod:`repro.audit`
auditor: the store's write log is an auditor stage and is reconciled —
by lineage digest — against a ledger built from the offline
(batch-recomputed) feature set.  Both sides are canonically
sorted, so the comparison is independent of arrival order and any
missing/duplicated/divergent write surfaces in the report.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Iterable, Iterator

from repro.audit import IntegrityAuditor, IntegrityReport, lineage_digest
from repro.common import serde
from repro.common.memory import deep_sizeof
from repro.common.perf import PERF
from repro.common.records import Record

#: One logical feature write, as fed to the offline side of the
#: consistency check: (key, feature, value, event_time).
FeatureWrite = tuple[Any, str, Any, float]


def _write_payload(feature: str, value: Any, event_time: float) -> dict:
    """The canonical audited payload of one write (key travels separately)."""
    return {"feature": feature, "value": value, "event_time": event_time}


class FeatureStore:
    """Versioned event-time feature values with point-in-time reads."""

    def __init__(self, name: str = "features") -> None:
        self.name = name
        # canonical key bytes -> feature -> [(event_time, version, value)],
        # sorted by (event_time, version): out-of-order writes insert into
        # place, reads binary-search the event-time axis.
        self._tables: dict[bytes, dict[str, list[tuple[float, int, Any]]]] = {}
        self._display: dict[bytes, Any] = {}
        self._version = 0
        self.writes = 0
        self.duplicate_writes = 0
        self.reads = 0

    # -- writes --------------------------------------------------------------

    def write(self, key: Any, feature: str, value: Any, event_time: float) -> int:
        """Apply one write; returns its version (the existing version for
        an absorbed duplicate delivery)."""
        canonical = serde.encode_key(key)
        table = self._tables.setdefault(canonical, {})
        self._display.setdefault(canonical, key)
        versions = table.setdefault(feature, [])
        # Duplicate delivery: same (event_time, value) already stored.
        # Scan only the equal-event-time run (bounded by out-of-orderness
        # in practice, not by history length).
        hi = bisect_right(versions, event_time, key=lambda e: e[0])
        for i in range(hi - 1, -1, -1):
            stored_ts, stored_version, stored_value = versions[i]
            if stored_ts != event_time:
                break
            if stored_value == value:
                self.duplicate_writes += 1
                if PERF.enabled:
                    PERF.inc("features.duplicate_writes")
                return stored_version
        self._version += 1
        versions.insert(hi, (event_time, self._version, value))
        self.writes += 1
        if PERF.enabled:
            PERF.inc("features.writes")
        return self._version

    def write_row(self, key: Any, features: dict[str, Any], event_time: float) -> None:
        """Write every (feature, value) of a row at one event time."""
        for feature in sorted(features):
            self.write(key, feature, features[feature], event_time)

    # -- point-in-time reads -------------------------------------------------

    def get_features(
        self, key: Any, as_of: float, features: Iterable[str] | None = None
    ) -> dict[str, Any]:
        """Latest value per feature with ``event_time <= as_of``.

        Features with no version at or before ``as_of`` are omitted — a
        value written for a later event time is *never* returned, which
        is the point-in-time-read rule.
        """
        self.reads += 1
        if PERF.enabled:
            PERF.inc("features.reads")
        table = self._tables.get(serde.encode_key(key))
        if table is None:
            return {}
        names = sorted(table) if features is None else list(features)
        out: dict[str, Any] = {}
        for feature in names:
            versions = table.get(feature)
            if not versions:
                continue
            if PERF.enabled:
                PERF.inc("features.versions_probed", len(versions).bit_length())
            i = bisect_right(versions, as_of, key=lambda e: e[0])
            if i:
                out[feature] = versions[i - 1][2]
        return out

    def get_feature(
        self, key: Any, feature: str, as_of: float, default: Any = None
    ) -> Any:
        return self.get_features(key, as_of, (feature,)).get(feature, default)

    # -- introspection -------------------------------------------------------

    def key_count(self) -> int:
        return len(self._tables)

    def version_count(self) -> int:
        return sum(
            len(versions)
            for table in self._tables.values()
            for versions in table.values()
        )

    def size_bytes(self) -> int:
        return deep_sizeof(self._tables)

    # -- audit surface -------------------------------------------------------

    def write_scan(self) -> Iterator[tuple[Any, dict]]:
        """Every stored version as ``(key, payload)`` in canonical order.

        Canonical order — key bytes, then feature, then (event_time,
        digest) — makes the scan independent of arrival order, so the
        audit compares *content*, not scheduling.
        """
        for canonical in sorted(self._tables):
            key = self._display[canonical]
            table = self._tables[canonical]
            for feature in sorted(table):
                payloads = [
                    _write_payload(feature, value, event_time)
                    for event_time, __, value in table[feature]
                ]
                payloads.sort(key=lambda p: (p["event_time"], lineage_digest(p)))
                for payload in payloads:
                    yield key, payload

    def consistency_report(
        self, offline: Iterable[FeatureWrite], name: str | None = None
    ) -> IntegrityReport:
        """Reconcile the store against an offline recomputation.

        ``offline`` is the batch-side truth: every logical feature write
        recomputed from the raw events (order-free).  Both sides are
        canonically sorted and compared by lineage digest; the report is
        clean iff the online store holds exactly the offline set — no
        missing write, no duplicate version, no divergent value.
        """
        auditor = IntegrityAuditor(name or f"features:{self.name}")
        expected = [
            (serde.encode_key(key), key, _write_payload(feature, value, event_time))
            for key, feature, value, event_time in offline
        ]
        expected.sort(
            key=lambda e: (
                e[0],
                e[2]["feature"],
                e[2]["event_time"],
                lineage_digest(e[2]),
            )
        )
        for __, key, payload in expected:
            auditor.record_expected(key, payload)
        auditor.add_stage(
            f"store:{self.name}",
            [Record(key, p, p["event_time"]) for key, p in self.write_scan()],
        )
        return auditor.reconcile()

    def read_digest(self, requests: Iterable[tuple[Any, float]]) -> str:
        """Deterministic digest of a batch of point-in-time reads — the
        feature-read half of the determinism gate."""
        results = [
            [serde.encode_key(key).hex(), as_of, self.get_features(key, as_of)]
            for key, as_of in requests
        ]
        return lineage_digest(results)


class FeatureSink:
    """Flink sink writing a stream's records into a :class:`FeatureStore`.

    ``key_fn`` maps a record value to the feature key; ``features_fn``
    maps it to the ``{feature: value}`` dict to write.  The write is
    stamped with the record's event timestamp, so out-of-order streams
    produce out-of-order (but point-in-time-readable) versions.  Writes
    are idempotent in the store, which is what makes an at-least-once
    replay after crash-restore invisible to readers.
    """

    def __init__(
        self,
        store: FeatureStore,
        key_fn: Callable[[Any], Any],
        features_fn: Callable[[Any], dict[str, Any]],
    ) -> None:
        self.store = store
        self.key_fn = key_fn
        self.features_fn = features_fn

    def write(self, record: Any) -> None:
        self.store.write_row(
            self.key_fn(record.value),
            self.features_fn(record.value),
            record.timestamp,
        )

    def flush(self) -> None:
        pass
