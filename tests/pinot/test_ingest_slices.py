"""A fetched batch lands in seal-bounded slices exactly as it would row by row.

``RealtimeIngestion._ingest_entries`` takes a batch in slices of at most
the rows the consuming segment has left before its seal threshold: one
``extend`` and one seal test per slice.  The reference is the loop it
replaced, written out below: copy, validate, dedup test, append, position,
upsert and seal test, one row at a time.  Both ingest the same log with the
same fetch sizes, on plain, dedup and upsert tables, with seal thresholds
1, 3 and 7 and under both backup designs (a centralized backup blocks the
partition after a seal).  The segments (names and docs in order), the
position, the counters, the upsert locations and every ingest span batch
must agree after every fetch, also when a row in the middle of a slice
fails validation.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.audit import lineage_digest
from repro.common.clock import SimulatedClock
from repro.common.errors import SchemaError
from repro.common.perf import measured
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.realtime import RealtimeIngestion
from repro.pinot.recovery import CentralizedBackup, PeerToPeerBackup
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore

SCHEMA = Schema(
    "events",
    (
        Field("id", FieldType.STRING),
        Field("n", FieldType.LONG, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)

KINDS = ("plain", "dedup", "upsert")
THRESHOLDS = (1, 3, 7)
BACKUPS = ("p2p", "centralized")

#: Rows per fetch.  The first fetches leave the consuming segment partly
#: filled; later ones cross no seal, one seal and several seals.
FETCHES = (2, 1, 4, 1, 23, 5, 100)


class RowAtATime(RealtimeIngestion):
    """The reference: the ingest loop as it was, one row at a time."""

    def _ingest_entries(self, state, entries):
        ingested = 0
        first = landed = 0
        try:
            for index, entry in enumerate(entries):
                row = dict(entry.record.value)
                self.config.schema.validate(row)
                if self.config.dedup_enabled:
                    digest = lineage_digest(row)
                    if digest in state.seen_digests:
                        state.position = entry.offset + 1
                        self.rows_deduped += 1
                        self._trace_ingest(state, entries, first, landed)
                        first = landed = index + 1
                        continue
                    state.seen_digests.add(digest)
                doc_id = state.consuming.append(row)
                state.position = entry.offset + 1
                ingested += 1
                landed = index + 1
                if self.config.upsert_enabled:
                    manager = state.owner.upsert_manager(
                        self.config.name, state.partition
                    )
                    manager.apply(
                        row[self.config.primary_key], state.consuming.name, doc_id
                    )
                if state.consuming.num_docs >= self.config.segment_rows_threshold:
                    self._trace_ingest(state, entries, first, landed)
                    first = landed
                    self._seal(state)
                    if state.blocked():
                        break
        finally:
            self._trace_ingest(state, entries, first, landed)
        return ingested


class SpanBatches:
    """Stands in for the tracer: each ingest span batch a bound hop
    records, as the offsets it covers, its end and the segment it names."""

    def __init__(self) -> None:
        self.calls: list = []

    def hop(self, kind, name, layer, /, **attrs):
        def record(entries, end):
            self.calls.append((name, layer, [e.offset for e in entries], end, attrs))

        return SimpleNamespace(record=record)


def rows_for(kind: str) -> list[dict]:
    """60 rows; a dedup log replays rows (next to each other and a few
    rows apart, so inside one slice), an upsert log repeats keys."""
    rows = []
    for i in range(60):
        key = f"k{i % 5}" if kind == "upsert" else f"r{i}"
        rows.append({"id": key, "n": i, "ts": float(i)})
        if kind == "dedup" and i % 4 == 1:
            rows.append(rows[-1])
        if kind == "dedup" and i % 6 == 5:
            rows.append(rows[-3])
    return rows


def build(cls, kind: str, threshold: int, backup: str, rows: list[dict]):
    clock = SimulatedClock()
    kafka = KafkaCluster(clock=clock)
    kafka.create_topic("events", TopicConfig(partitions=1))
    producer = Producer(kafka, "events-service")
    for row in rows:
        producer.send("events", row, event_time=row["ts"])
    producer.flush()
    config = TableConfig(
        "events",
        SCHEMA,
        time_column="ts",
        segment_rows_threshold=threshold,
        dedup_enabled=kind == "dedup",
        upsert_enabled=kind == "upsert",
        primary_key="id" if kind == "upsert" else None,
    )
    strategy = PeerToPeerBackup if backup == "p2p" else CentralizedBackup
    owners = {0: PinotServer("server-0")}
    ingestion = cls(
        config, kafka, "events", owners, {}, strategy(BlobStore()), tracer=SpanBatches()
    )
    return ingestion, clock


def observed(ingestion) -> dict:
    (state,) = ingestion.partitions.values()
    names = state.sealed_segments + [state.consuming.name]
    segments = [state.owner.segments[name] for name in names]
    manager = state.owner.upsert_managers.get(("events", 0))
    upserts = None
    if manager is not None:
        upserts = (
            {f"k{i}": manager.location(f"k{i}") for i in range(5)},
            [sorted(manager.valid_docs(name)) for name in names],
            manager.upserts,
            manager.inserts,
        )
    return {
        "names": names,
        "docs": [[seg.row(d) for d in range(seg.num_docs)] for seg in segments],
        "position": state.position,
        "committed": state.committed,
        "rows_ingested": ingestion.rows_ingested,
        "rows_deduped": ingestion.rows_deduped,
        "segments_sealed": ingestion.segments_sealed,
        "blocked_polls": ingestion.blocked_polls,
        "seen": sorted(state.seen_digests),
        "upserts": upserts,
        "spans": list(ingestion.tracer.calls),
    }


def drive(cls, kind, threshold, backup, rows) -> list:
    """What the table holds after each fetch of ``FETCHES``, then of
    100-row fetches until the log is consumed, and the rows-ingested
    count."""
    ingestion, clock = build(cls, kind, threshold, backup, rows)
    (state,) = ingestion.partitions.values()
    states = []
    with measured() as perf:
        for size in FETCHES + (100,) * len(rows):
            if state.position == len(rows):
                break
            clock.advance(1.0)
            ingestion.run_step(size)
            ingestion.backup.run_step()
            states.append(observed(ingestion))
        counted = perf.counts.get("pinot.rows_ingested", 0)
    return states + [counted]


@pytest.mark.parametrize("backup", BACKUPS)
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("kind", KINDS)
def test_slices_land_as_rows_one_at_a_time(kind, threshold, backup):
    rows = rows_for(kind)
    sliced = drive(RealtimeIngestion, kind, threshold, backup, rows)
    assert sliced == drive(RowAtATime, kind, threshold, backup, rows)
    final = sliced[-2]
    # The fetches cover every row: the whole log landed or was deduped.
    assert final["position"] == len(rows)
    assert final["rows_ingested"] + final["rows_deduped"] == len(rows)
    assert sliced[-1] == final["rows_ingested"]
    if kind == "dedup":
        assert final["rows_deduped"] > 0
    if threshold > 1:
        # Some fetch landed more than one row in a span batch.
        assert any(len(call[2]) > 1 for call in final["spans"])


@pytest.mark.parametrize("threshold", (3, 7))
@pytest.mark.parametrize("kind", KINDS)
def test_an_invalid_row_raises_after_the_rows_before_it_landed(kind, threshold):
    # The first fetch lands offsets 0-2: a threshold-3 segment seals and
    # the next slice is offsets 3-5; a threshold-7 one keeps them and the
    # next slice is offsets 3-6.  Offset 4, in the middle of either, is
    # invalid.  (The dedup log replays offset 1 at 2, so its slices differ.)
    rows = rows_for(kind)
    rows.insert(4, {"id": "bad", "n": "not a long", "ts": 3.5})
    outcomes = []
    for cls in (RealtimeIngestion, RowAtATime):
        ingestion, clock = build(cls, kind, threshold, "p2p", rows)
        ingestion.run_step(3)
        clock.advance(1.0)
        with pytest.raises(SchemaError) as raised:
            ingestion.run_step(10)
        outcomes.append((str(raised.value), observed(ingestion)))
    assert outcomes[0] == outcomes[1]
    held = outcomes[0][1]
    assert held["position"] == 4
    assert [doc for docs in held["docs"] for doc in docs][-1] == rows[3]
