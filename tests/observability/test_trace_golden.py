"""The tracer's answers, pinned: every reader view of one seeded run.

A traced ``Platform`` runs three jobs on one clock — the wall-clock
benchmark's live path (produce, a FlinkSQL ``GROUP BY TUMBLE`` into a
second topic, Pinot ingest of both topics, one Presto probe per tick), a
``WHERE … GROUP BY TUMBLE`` job with a two-phase-commit sink, and an
interval join that checkpoints and is restored mid-run — and every view the collector offers is rendered in
one canonical text and hashed.  How the collector stores a span, when it
works out a trace id and where a hop keeps what it held may change; what
a reader is told may not.  The small-``capacity`` case pins the drop path
the same way.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import Field, FieldRole, FieldType, Platform, Schema, TableConfig
from repro.flink.graph import StreamEnvironment
from repro.observability.trace import SpanCollector

TICKS = 24
EVENTS_PER_TICK = 30
CITIES = tuple(f"city-{i}" for i in range(6))


def _rides_schema() -> Schema:
    return Schema(
        "rides",
        (
            Field("city", FieldType.STRING),
            Field("driver", FieldType.STRING),
            Field("fare", FieldType.DOUBLE, FieldRole.METRIC),
            Field("event_time", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )


def _stats_schema(name: str, metric: str) -> Schema:
    return Schema(
        name,
        (
            Field("city", FieldType.STRING),
            Field("window_start", FieldType.DOUBLE),
            Field("window_end", FieldType.DOUBLE, FieldRole.TIME),
            Field(metric, FieldType.LONG, FieldRole.METRIC),
        ),
    )


def _join_job(platform: Platform):
    env = StreamEnvironment()
    kafka = platform.kafka
    predictions = env.from_kafka(kafka, "predictions", group="join")
    outcomes = env.from_kafka(kafka, "outcomes", group="join")
    predictions.interval_join(
        outcomes,
        key_fns=(lambda v: v["id"], lambda v: v["id"]),
        lower=-3.0,
        upper=3.0,
        join_fn=lambda p, o: {"id": p["id"], "error": o["actual"] - p["guess"]},
    ).sink_to_kafka(kafka, "joined", key_fn=lambda v: v["id"])
    return platform.job(env.build("prediction-join"))


def run(seed: int, capacity: int | None = None) -> Platform:
    """The seeded three-job run; ``capacity`` swaps in a smaller ring."""
    rng = random.Random(seed)
    platform = Platform(seed=seed)
    if capacity is not None:
        platform.tracer = SpanCollector(capacity=capacity)
    (
        platform.with_kafka()
        .with_pinot()
        .with_presto()
        .topic("rides", partitions=4)
        .topic("city_stats", partitions=2)
        .topic("long_rides", partitions=1)
        .topic("predictions", partitions=2)
        .topic("outcomes", partitions=2)
        .topic("joined", partitions=1)
        .stream_table("rides", timestamp_column="event_time")
    )
    platform.streaming_sql(
        "SELECT city, COUNT(*) AS rides FROM rides "
        "GROUP BY TUMBLE(event_time, 2), city",
        sink_topic="city_stats",
        job_name="city-stats",
    )
    long_rides = platform.streaming_sql(
        "SELECT city, COUNT(*) AS rides FROM rides WHERE fare > 20 "
        "GROUP BY TUMBLE(event_time, 4), city",
        sink_topic="long_rides",
        job_name="long-rides",
        sink_transactional=True,
    )
    join = _join_job(platform)
    platform.realtime_table(
        TableConfig("rides", _rides_schema(), time_column="event_time"),
        topic="rides",
    )
    platform.realtime_table(
        TableConfig(
            "city_stats", _stats_schema("city_stats", "rides"), time_column="window_end"
        ),
        topic="city_stats",
    )
    rides = platform.producer("rides-service")
    models = platform.producer("model-service")
    checkpoint = None
    for tick in range(TICKS):
        for i in range(EVENTS_PER_TICK):
            city = rng.choice(CITIES)
            event = {
                "city": city,
                "driver": f"d{rng.randrange(40)}",
                "fare": rng.randrange(300, 4000) / 100,
                "event_time": tick + (i + 0.5) / EVENTS_PER_TICK,
            }
            rides.send("rides", event, key=city, event_time=event["event_time"])
        for i in range(4):
            ident = f"p{tick}-{i}"
            at = tick + i / 4
            guess = rng.randrange(100) / 10
            models.send("predictions", {"id": ident, "guess": guess}, key=ident,
                        event_time=at)
            if rng.random() < 0.8:
                models.send(
                    "outcomes",
                    {"id": ident, "actual": guess + rng.randrange(-20, 20) / 10},
                    key=ident,
                    event_time=at + rng.randrange(0, 30) / 10,
                )
        rides.flush()
        models.flush()
        platform.step(1.0)
        if tick % 4 == 3:
            long_rides.trigger_checkpoint()  # commits its 2PC sink
        if tick == 8:
            checkpoint = join.trigger_checkpoint()
        if tick == 14:
            join.restore_from(checkpoint)  # replays ticks 9-14 into the sink
        platform.sql("SELECT MAX(window_end) AS newest FROM city_stats")
        if tick % 6 == 5:
            platform.sql("SELECT city, COUNT(*) AS n FROM rides GROUP BY city")
    long_rides.trigger_checkpoint()
    platform.run_until_caught_up()
    platform.sql("SELECT COUNT(*) AS n FROM rides")
    return platform


def _span(span) -> tuple:
    return (
        span.trace_id,
        span.name,
        span.layer,
        span.start,
        span.end,
        sorted(span.attrs.items()),
    )


def render(tracer: SpanCollector) -> str:
    """Every reader view of ``tracer``, as one canonical text."""
    ids = tracer.trace_ids()
    sample = ids[::50]
    views = {
        "spans": [_span(s) for s in tracer.spans()],
        "trace_ids": ids,
        "traces": {tid: [_span(s) for s in tracer.trace(tid)] for tid in sample},
        "latency": {
            tid: [
                tracer.trace_latency(tid),
                tracer.trace_latency(tid, "produce", "query"),
                tracer.trace_latency(tid, "ingest", "query"),
            ]
            for tid in sample
        },
        "traces_for_table": {
            table: sorted(tracer.traces_for_table(table))
            for table in ("rides", "city_stats", "missing")
        },
        "ingest_durations": {
            table: tracer.ingest_durations(table) for table in ("rides", "city_stats")
        },
        "anomalies": tracer.anomalies(),
        "summary": tracer.summary(),
        "span_count": tracer.span_count(),
        "spans_dropped": tracer.spans_dropped,
    }
    return repr(sorted(views.items()))


def digest(tracer: SpanCollector) -> str:
    return hashlib.sha256(render(tracer).encode()).hexdigest()


@pytest.mark.parametrize(
    ("capacity", "spans", "dropped", "expected"),
    [
        (
            None,
            3_247,
            0,
            "b4df002caf98fea972de8745267e479f39b6e2526f8871f9422cbd274a9c6b79",
        ),
        (
            3_000,
            3_000,
            247,
            "8b9edd680cbdb3302eb9089f06727441bae3a932d672d6e8eabcb5683e990ff5",
        ),
    ],
)
def test_every_reader_view_is_pinned(capacity, spans, dropped, expected):
    tracer = run(seed=11, capacity=capacity).tracer
    assert (tracer.span_count(), tracer.spans_dropped) == (spans, dropped)
    assert digest(tracer) == expected


def test_the_rendering_is_the_same_across_two_runs():
    assert render(run(seed=11).tracer) == render(run(seed=11).tracer)
