"""Shared builders and reporting helpers for the benchmark harness.

Every bench regenerates one table/figure/claim from the paper (see the
experiment index in DESIGN.md).  Benches assert the *shape* of the result
(who wins, roughly by how much) and print the reproduced rows; absolute
numbers live in EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimulatedClock
from repro.common.rng import seeded_rng
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Print one reproduced table in the paper's row/series format.

    Ragged rows are tolerated: short rows are padded with empty cells and
    rows longer than the header get extra (unnamed) columns, so a bench
    that emits an incomplete row still prints instead of crashing.
    """
    cells = [[str(c) for c in header]] + [[_fmt(c) for c in row] for row in rows]
    ncols = max(len(row) for row in cells)
    cells = [row + [""] * (ncols - len(row)) for row in cells]
    widths = [max(len(row[i]) for row in cells) for i in range(ncols)]
    print(f"\n== {title} ==")
    for index, row in enumerate(cells):
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if index == 0:
            print("  " + "  ".join("-" * w for w in widths))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:,.2f}"
    return str(cell)


ORDER_SCHEMA = Schema(
    "orders",
    (
        Field("order_id", FieldType.STRING),
        Field("restaurant_id", FieldType.STRING),
        Field("item", FieldType.STRING),
        Field("status", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("event_time", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


def order_rows(n: int, seed: int = 11, restaurants: int = 20) -> list[dict]:
    rng = seeded_rng(seed, "bench-orders")
    statuses = ["placed", "delivered", "cancelled"]
    items = ["burger", "pizza", "sushi", "salad", "tacos"]
    return [
        {
            "order_id": f"o{i}",
            "restaurant_id": f"rest-{rng.randrange(restaurants)}",
            "item": rng.choice(items),
            "status": rng.choice(statuses),
            "amount": float(rng.randrange(5, 80)),
            "event_time": float(i),
        }
        for i in range(n)
    ]


@pytest.fixture
def sim_clock() -> SimulatedClock:
    return SimulatedClock()


def kafka_with_topic(
    topic: str,
    partitions: int = 4,
    clock: SimulatedClock | None = None,
    **config,
) -> tuple[SimulatedClock, KafkaCluster]:
    clock = clock or SimulatedClock()
    cluster = KafkaCluster("bench", 3, clock=clock)
    cluster.create_topic(topic, TopicConfig(partitions=partitions, **config))
    return clock, cluster


def feed_topic(
    cluster: KafkaCluster,
    clock: SimulatedClock,
    topic: str,
    rows: list[dict],
    key_field: str,
    dt: float = 0.5,
) -> None:
    producer = Producer(cluster, "bench", clock=clock)
    for row in rows:
        clock.advance(dt)
        producer.send(topic, row, key=row[key_field],
                      event_time=row.get("event_time", clock.now()))
    producer.flush()
