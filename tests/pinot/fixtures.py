"""Small realtime tables for the routing and selection tests: a keyed
``rides`` stream over four partitions, two replicas, three servers."""

from __future__ import annotations

import copy
import itertools

from repro.common.clock import SimulatedClock
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer, hash_partitioner
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.controller import PinotController
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore

PARTITIONS = 4
CITIES = [f"city-{i}" for i in range(16)]

SCHEMA = Schema(
    "rides",
    (
        Field("city", FieldType.STRING),
        Field("ride_id", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        Field("payload", FieldType.JSON),
    ),
)


#: With ``with_nulls``, every amount of this city is NULL.
ALL_NULL_CITY = CITIES[2]


def ride(
    i: int,
    ts: float,
    city: str | None = None,
    with_json: bool = False,
    with_nulls: bool = False,
) -> dict:
    city = city or CITIES[i % len(CITIES)]
    payload = None
    if with_json and i % 7:
        # Few distinct values (a sealed segment dictionary-codes them),
        # nested and unhashable.
        payload = {"tags": [city, i % 3], "meta": {"tier": i % 2}}
    # Multiples of 1/4: sums are exact whatever order they fold in.
    amount = (i * 37 % 400) / 4
    if with_nulls:
        # What SQL semantics are about: NULL metric cells (a whole city of
        # them), a NULL dimension cell, a NaN.
        if city == ALL_NULL_CITY or i % 5 == 0:
            amount = None
        elif i % 97 == 3:
            amount = float("nan")
        if i % 23 == 11:
            city = None
    return {
        "city": city,
        "ride_id": f"ride-{i:05d}",
        "amount": amount,
        "ts": ts,
        "payload": payload,
    }


class Table:
    """A realtime table plus every row sent to it, in send order."""

    def __init__(self, threshold: int, upsert: bool = False, servers: int = 3):
        self.clock = SimulatedClock()
        self.kafka = KafkaCluster("k", 3, clock=self.clock)
        self.kafka.create_topic("rides", TopicConfig(partitions=PARTITIONS))
        self.controller = PinotController(
            [PinotServer(f"s{i}") for i in range(servers)],
            PeerToPeerBackup(BlobStore()),
        )
        self.state = self.controller.create_realtime_table(
            TableConfig(
                "rides",
                SCHEMA,
                time_column="ts",
                upsert_enabled=upsert,
                primary_key="ride_id" if upsert else None,
                segment_rows_threshold=threshold,
                partition_column=None if upsert else "city",
            ),
            self.kafka,
            "rides",
        )
        self.upsert = upsert
        self.sent: list[dict] = []
        self._numbers = itertools.count()  # every ride gets its own
        self._producer = Producer(self.kafka, "svc", clock=self.clock)

    def send(self, rows: list[dict]) -> None:
        for row in rows:
            self._producer.send(
                "rides", row, key=row["ride_id" if self.upsert else "city"]
            )
        self._producer.flush()
        # The oracle's copy shares no cell with what the table ingested.
        self.sent.extend(copy.deepcopy(rows))
        self.state.ingestion.run_until_caught_up()

    def rides(
        self, count: int, with_json: bool = False, with_nulls: bool = False
    ) -> list[dict]:
        """The next ``count`` rides."""
        rows = []
        for i in itertools.islice(self._numbers, count):
            self.clock.advance(1.0)
            rows.append(ride(i, self.clock.now(), None, with_json, with_nulls))
        return rows

    def full_segments(self, per_partition: int, with_nulls: bool = False) -> list[dict]:
        """Rides that put exactly ``per_partition`` rows on every
        partition — a multiple of the seal threshold leaves every
        consuming segment empty, so no answer depends on an owner.
        (A NULL city is not hash-placed, so ``with_nulls`` skips those.)"""
        counts = [0] * PARTITIONS
        reachable = {hash_partitioner(city, PARTITIONS) for city in CITIES}
        assert reachable == set(range(PARTITIONS))
        rows = []
        for i in self._numbers:
            city = CITIES[i % len(CITIES)]
            partition = hash_partitioner(city, PARTITIONS)
            if counts[partition] < per_partition:
                self.clock.advance(1.0)
                row = ride(i, self.clock.now(), city, with_nulls=with_nulls)
                if row["city"] is None:
                    continue
                counts[partition] += 1
                rows.append(row)
            if min(counts) == per_partition:
                return rows

    def sealed_segments(self) -> int:
        return sum(
            len(p.sealed_segments) for p in self.state.ingestion.partitions.values()
        )

    def consuming_docs(self) -> int:
        return sum(
            p.consuming.num_docs for p in self.state.ingestion.partitions.values()
        )
