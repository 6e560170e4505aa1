"""Pruning + caching are invisible: the broker answers what the model does.

Seeded random workloads (regular and upsert tables, with ingestion
interleaved between query batches so consuming segments are mid-fill)
ask every query of a pruning, caching broker, and repeat some so they
are served from its cache.  Every answer must be the query model's over
the rows the table has ingested, read from Kafka: exactly where the
order is defined, in any order where it is not, and any ``limit`` of
the rows for a bare LIMIT.  So pruning must be a pure routing
optimization and a cache hit must reproduce a right answer.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimulatedClock
from repro.common.rng import seeded_rng
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.segment import IndexConfig
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore
from tests.pinot.fixtures import ingested_rows
from tests.reference.query import answers, latest_per_key

SCHEMA = Schema(
    "rides",
    (
        Field("city", FieldType.STRING),
        Field("ride_id", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)

CITIES = [f"city-{i}" for i in range(6)]


def _random_query(rng, total_rows: int, max_ts: float) -> PinotQuery:
    kind = rng.randrange(6)
    if kind == 0:  # point lookup on the bloom-filtered high-cardinality column
        return PinotQuery(
            "rides",
            select_columns=["ride_id", "city", "amount"],
            filters=[Filter("ride_id", "=", f"ride-{rng.randrange(total_rows + 5):06d}")],
        )
    if kind == 1:  # partition-column equality (partition pruning path)
        return PinotQuery(
            "rides",
            aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
            filters=[Filter("city", "=", rng.choice(CITIES + ["city-ghost"]))],
            group_by=["city"],
        )
    if kind == 2:  # time window (zone-map pruning on the monotonic column)
        lo = rng.uniform(0, max_ts)
        return PinotQuery(
            "rides",
            aggregations=[Aggregation("COUNT")],
            filters=[Filter("ts", "BETWEEN", low=lo, high=lo + rng.uniform(0, max_ts / 4))],
        )
    if kind == 3:  # amount range, unpruned limit/order path
        return PinotQuery(
            "rides",
            select_columns=["ride_id", "amount"],
            filters=[Filter("amount", ">=", float(rng.randrange(110)))],
            order_by=[("amount", True), ("ride_id", False)],
            limit=rng.choice([5, 10, 50]),
        )
    if kind == 4:  # IN over cities + amount conjunct
        return PinotQuery(
            "rides",
            aggregations=[Aggregation("SUM", "amount")],
            filters=[
                Filter("city", "IN", values=tuple(
                    rng.sample(CITIES + ["city-ghost"], k=2)
                )),
                Filter("amount", "<", float(rng.randrange(110))),
            ],
            group_by=["city"],
        )
    # selection with default limit: exercises row-order preservation, since
    # truncation keeps whichever rows arrive first from the scatter.
    return PinotQuery(
        "rides",
        select_columns=["ride_id", "city", "amount", "ts"],
        filters=[Filter("amount", ">", float(rng.randrange(90)))],
    )


@pytest.mark.parametrize("seed", [7, 21, 1234])
@pytest.mark.parametrize("upsert", [False, True])
def test_pruned_cached_results_byte_identical(seed, upsert):
    rng = seeded_rng(seed, f"pruning-equivalence-{upsert}")
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("rides", TopicConfig(partitions=4))
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)], PeerToPeerBackup(BlobStore())
    )
    config = TableConfig(
        "rides",
        SCHEMA,
        time_column="ts",
        index_config=IndexConfig(bloom_filtered=frozenset({"ride_id"})),
        upsert_enabled=upsert,
        primary_key="ride_id" if upsert else None,
        segment_rows_threshold=40,
        partition_column=None if upsert else "city",
    )
    state = controller.create_realtime_table(config, kafka, "rides")
    optimized = PinotBroker(controller, clock=clock)
    producer = Producer(kafka, "svc", clock=clock)
    produced = 0
    recent: list[PinotQuery] = []
    pruned = 0
    for _round in range(6):
        # Ingest a random slug of rows; upsert tables rewrite some old keys.
        for __ in range(rng.randrange(30, 90)):
            clock.advance(0.5)
            if upsert and produced and rng.random() < 0.3:
                key_id = rng.randrange(produced)
            else:
                key_id = produced
            row = {
                "city": rng.choice(CITIES),
                "ride_id": f"ride-{key_id:06d}",
                "amount": float(rng.randrange(100)),
                "ts": clock.now(),
            }
            producer.send(
                "rides", row, key=row["ride_id"] if upsert else row["city"]
            )
            produced += 1
        producer.flush()
        # Partially consume so consuming segments sit mid-fill while
        # queries run (they must never be pruned).
        state.ingestion.run_step(max_records_per_partition=rng.randrange(5, 40))
        controller.backup.run_step()
        held = ingested_rows(kafka, "rides", state)
        if upsert:
            held = latest_per_key(held, "ride_id")
        for __ in range(8):
            if recent and rng.random() < 0.4:
                query = rng.choice(recent)  # repeat: cache-hit path
            else:
                query = _random_query(rng, produced, clock.now())
                recent.append(query)
            opt = optimized.execute(query)
            if not opt.cache_hit:
                pruned += opt.segments_pruned
            assert answers(opt.rows, query, held), (
                f"seed={seed} upsert={upsert} round={_round} "
                f"query={query} pruned={opt.segments_pruned} "
                f"cache_hit={opt.cache_hit}"
            )
    # The workload must actually have exercised the optimizations.
    assert pruned > 0
    assert optimized.cache.hits > 0
