"""Quickstart: the Figure 3 data path, end to end, on the Platform facade.

Produce events into Kafka, run a FlinkSQL streaming aggregation whose
results land back in Kafka, ingest both topics into Pinot, and query the
fresh data with PrestoSQL through the Pinot connector — the full
stream -> compute -> OLAP -> SQL stack of the paper, in one script.
The :class:`~repro.platform.Platform` facade owns the shared clock, RNG
and tracer, so every component below is already wired for end-to-end
observability.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Field,
    FieldRole,
    FieldType,
    IndexConfig,
    Platform,
    Schema,
    SloTarget,
    TableConfig,
)


def main() -> None:
    # 1. The platform: one shared clock/RNG/tracer behind every layer.
    platform = (
        Platform(seed=2021, name="quickstart")
        .with_kafka(num_brokers=3)
        .with_pinot(servers=3, backup="p2p")
        .with_presto(pushdown="full")
        .topic("rides", partitions=4)
        .topic("city_stats", partitions=2)
        .stream_table("rides", timestamp_column="event_time")
    )
    clock, rng = platform.clock, platform.rng

    producer = platform.producer("rides-service")
    cities = ["sf", "nyc", "chicago", "seattle"]
    for __ in range(4000):
        clock.advance(0.25)
        city = rng.choice(cities)
        producer.send(
            "rides",
            {
                "city": city,
                "fare": round(rng.uniform(5, 60), 2),
                "event_time": clock.now(),
            },
            key=city,
        )
    producer.flush()
    print(f"produced 4000 ride events over {clock.now():.0f}s of stream time")

    # 2. Compute: a FlinkSQL job aggregating fares per city per minute.
    runtime = platform.streaming_sql(
        "SELECT city, COUNT(*) AS rides, SUM(fare) AS revenue "
        "FROM rides GROUP BY TUMBLE(event_time, 60), city",
        sink_topic="city_stats",
        job_name="city-stats",
    )
    runtime.run_until_quiescent()
    checkpoint = runtime.trigger_checkpoint()
    print(f"flink job ran to quiescence; checkpoint {checkpoint} taken")

    # 3. OLAP: ingest the aggregated stream into a Pinot table.
    schema = Schema(
        "city_stats",
        (
            Field("city", FieldType.STRING),
            Field("window_start", FieldType.DOUBLE),
            Field("window_end", FieldType.DOUBLE, FieldRole.TIME),
            Field("rides", FieldType.LONG, FieldRole.METRIC),
            Field("revenue", FieldType.DOUBLE, FieldRole.METRIC),
        ),
    )
    state = platform.realtime_table(
        TableConfig(
            "city_stats",
            schema,
            time_column="window_end",
            index_config=IndexConfig(inverted=frozenset({"city"})),
            segment_rows_threshold=50,
        ),
        topic="city_stats",
    )
    state.ingestion.run_until_caught_up()
    print(f"pinot ingested {state.ingestion.total_rows_ingested()} cube rows")

    # 4. SQL: interactive PrestoSQL over the fresh Pinot table.
    output = platform.sql(
        "SELECT city, SUM(rides) AS total_rides, SUM(revenue) AS total_revenue "
        "FROM city_stats GROUP BY city ORDER BY total_revenue DESC LIMIT 5"
    )
    print("\ncity leaderboard (PrestoSQL over Pinot):")
    for row in output.rows:
        print(
            f"  {row['city']:>8}: {int(row['total_rides']):5d} rides, "
            f"${row['total_revenue']:.2f}"
        )
    print(
        f"\npushdown: {output.stats.pushed_filters} filters, "
        f"aggregation={output.stats.pushed_aggregation}, "
        f"{output.stats.rows_transferred} rows crossed the connector"
    )

    # 5. Observability: follow one record across the stack, then read
    # freshness off the ingest spans: each row's append -> queryable
    # interval (paper Section 8).
    tracer = platform.tracer
    assert tracer is not None
    deepest = max(
        sorted(tracer.traces_for_table("city_stats")),
        key=lambda tid: len({s.name for s in tracer.trace(tid)}),
    )
    print(f"\none traced record ({deepest}) through the stack:")
    for span in tracer.trace(deepest):
        print(
            f"  {span.layer:>6} {span.name:<9} "
            f"[{span.start:9.2f}s -> {span.end:9.2f}s]"
        )
    assert not tracer.anomalies(), tracer.anomalies()

    report = platform.freshness("city_stats")
    print(f"\n{report.render()} (append -> queryable)")

    platform.slo(
        SloTarget(
            "quickstart",
            "freshness",
            99,
            120.0,
            "ride stats queryable within two minutes",
        )
    )
    platform.slo_monitor.ingest_report("quickstart", report)
    print("\n" + platform.dashboard())


if __name__ == "__main__":
    main()
