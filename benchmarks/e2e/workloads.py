"""The four fixed-work workloads.

Each workload is four functions over a plain ``inputs`` dict:

* ``generate(seed, scale)`` makes every input from the seed, before any
  clock starts; the stack only ever sees these inputs.
* ``build(api, inputs)`` is the set-up the benchmark times as ``setup_s``:
  construct a :class:`repro.Platform`, create topics/tables/jobs and
  preload them.  ``api`` is the freshly imported ``repro`` package.
* ``run(state, inputs, phase)`` is the timed phase: a closed loop, one
  thread, that ends when the last record or query has completed.  It
  returns what ``check`` needs.
* ``check(state, inputs, result)`` runs outside the timed phase and returns
  the operations attempted and how many of them the reference checks
  failed (operations that raised are in ``result["failed"]`` already).

Sizes below are for ``--scale 1``; they were chosen so a timed phase takes
one to two seconds on the 2-core reference box (README.md, "Sizing").
"""

from __future__ import annotations

import importlib
import math
import random
import sys
import traceback
from types import ModuleType
from typing import Any

import reference
from layers import late_dropped, records_by_kind
from reference import Query

CITIES = [f"c{i:02d}" for i in range(16)]
STATUSES = ["completed", "cancelled", "no_show"]


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def _ride(rng: random.Random, event_time: float, drivers: int) -> dict:
    return {
        "city": rng.choice(CITIES),
        "driver": f"d{rng.randrange(drivers):04d}",
        "status": rng.choice(STATUSES),
        # Multiples of 1/64 sum exactly in binary floating point, so SUM
        # answers do not depend on the order segments are merged in.
        "fare": rng.randrange(5 * 64, 60 * 64) / 64,
        "event_time": event_time,
    }


def _rides_table(api: ModuleType, segment_rows: int) -> Any:
    schema = api.Schema(
        "rides",
        (
            api.Field("city", api.FieldType.STRING),
            api.Field("driver", api.FieldType.STRING),
            api.Field("status", api.FieldType.STRING),
            api.Field("fare", api.FieldType.DOUBLE, api.FieldRole.METRIC),
            api.Field("event_time", api.FieldType.DOUBLE, api.FieldRole.TIME),
        ),
    )
    return api.TableConfig(
        "rides",
        schema,
        time_column="event_time",
        index_config=api.IndexConfig(inverted=frozenset({"city"})),
        segment_rows_threshold=segment_rows,
        partition_column="city",
    )


def _send_rides(producer: Any, rows: list[dict]) -> None:
    for row in rows:
        producer.send("rides", row, key=row["city"], event_time=row["event_time"])
    producer.flush()


def _report_failure(context: str) -> None:
    print(f"FAILED OPERATION in {context}:", file=sys.stderr)
    traceback.print_exc()


class State:
    """What ``build`` hands to ``run``: the platform plus the handles the
    driver loop and the span recorder need."""

    def __init__(self, platform: Any, producers: list[Any], **handles: Any) -> None:
        self.platform = platform
        self.producers = producers
        self.__dict__.update(handles)


# -- pipeline_e2e ---------------------------------------------------------------

WINDOW_S = 2
EVENTS_PER_TICK = 70
PROBE_SQL = "SELECT MAX(window_end) AS newest FROM city_stats"


def pipeline_generate(seed: int, scale: float) -> dict:
    ticks = max(12, round(210 * scale))
    ticks -= ticks % WINDOW_S
    rng = _rng(seed, "pipeline_e2e")
    # One simulated second per tick; the events of tick t carry event times
    # in [t, t+1), so a window [w, w+2) is complete after tick w+1 and
    # closes when tick w+2 moves the watermark past it.
    events = [
        [
            _ride(rng, tick + (i + 0.5) / EVENTS_PER_TICK, drivers=2000)
            for i in range(EVENTS_PER_TICK)
        ]
        for tick in range(ticks)
    ]
    return {"events": events, "records": ticks * EVENTS_PER_TICK, "queries": ticks}


def pipeline_build(api: ModuleType, inputs: dict) -> State:
    platform = (
        api.Platform()
        .with_kafka()
        .with_pinot()
        .with_presto()
        .topic("rides", partitions=4)
        .topic("city_stats", partitions=2)
        .stream_table("rides", timestamp_column="event_time")
    )
    platform.streaming_sql(
        "SELECT city, COUNT(*) AS rides, SUM(fare) AS revenue FROM rides "
        f"GROUP BY TUMBLE(event_time, {WINDOW_S}), city",
        sink_topic="city_stats",
        job_name="city-stats",
    )
    # Both tables' segment thresholds are above what a partition receives
    # in one phase.  A seal inside a window is a 20-60 ms spike in its
    # freshness; six of them beside the collector's seven would make a
    # tenth of the 104 windows spikes, and latency_p90_ms would jump
    # between the ramp and the spikes from seed to seed.
    platform.realtime_table(_rides_table(api, segment_rows=5000), topic="rides")
    stats_schema = api.Schema(
        "city_stats",
        (
            api.Field("city", api.FieldType.STRING),
            api.Field("window_start", api.FieldType.DOUBLE),
            api.Field("window_end", api.FieldType.DOUBLE, api.FieldRole.TIME),
            api.Field("rides", api.FieldType.LONG, api.FieldRole.METRIC),
            api.Field("revenue", api.FieldType.DOUBLE, api.FieldRole.METRIC),
        ),
    )
    platform.realtime_table(
        api.TableConfig(
            "city_stats",
            stats_schema,
            time_column="window_end",
            index_config=api.IndexConfig(inverted=frozenset({"city"})),
            segment_rows_threshold=1000,
        ),
        topic="city_stats",
    )
    producer = platform.producer("rides-service")
    return State(platform, [producer], producer=producer)


def pipeline_run(state: State, inputs: dict, phase: Any) -> dict:
    platform, producer = state.platform, state.producer
    clock = phase.clock
    flushed_at: dict[float, float] = {}
    newest = 0.0
    failed = 0
    phase.start()
    for tick, events in enumerate(inputs["events"]):
        phase.begin_step(tick)
        try:
            for event in events:
                producer.send(
                    "rides", event, key=event["city"], event_time=event["event_time"]
                )
            producer.flush()
            flushed = clock()
            if (tick + 1) % WINDOW_S == 0:
                flushed_at[float(tick + 1)] = flushed
            platform.step(1.0)
            asked = clock()
            output = platform.sql(PROBE_SQL)
            answered = clock()
            phase.query_ms.append((answered - asked) * 1000)
            phase.observe(output.stats)
            rows = output.rows
            seen = rows[0]["newest"] if rows else None
            while seen is not None and newest < seen:
                newest += WINDOW_S
                phase.latency_ms.append((answered - flushed_at[newest]) * 1000)
        except Exception:
            failed += 1
            _report_failure(f"pipeline_e2e tick {tick}")
        phase.end_step(len(events))
    return {
        "failed": failed,
        "newest_window_end": newest,
        "windows_seen": len(phase.latency_ms),
    }


def pipeline_check(state: State, inputs: dict, result: dict) -> tuple[int, int]:
    platform = state.platform
    sent = inputs["records"]
    closed = sum(
        1
        for tick_events in inputs["events"]
        for event in tick_events
        if event["event_time"] < result["newest_window_end"]
    )
    landed = platform.sql("SELECT COUNT(*) AS n FROM rides").rows[0]["n"]
    summed = platform.sql("SELECT SUM(rides) AS n FROM city_stats").rows[0]["n"]
    lag = sum(runtime.total_source_lag() for runtime in platform.runtimes) + sum(
        table.ingestion.lag() for table in platform.pinot.tables.values()
    )
    # Every window but the last (still open) one must have been observed.
    windows_missing = len(inputs["events"]) // WINDOW_S - 1 - result["windows_seen"]
    failed = (
        abs(sent - landed)
        + abs(closed - int(summed or 0))
        + lag
        + abs(windows_missing)
    )
    return sent + inputs["queries"] + 2, failed


# -- olap_scan / dashboard_repeat -------------------------------------------------

TABLE_ROWS = 5_000
TABLE_SEGMENTS = 20
CHECK_EVERY = 20


def _table_inputs(seed: int, scale: float, stream: str) -> dict:
    rows = max(400, round(TABLE_ROWS * scale))
    rng = _rng(seed, stream)
    drivers = max(50, rows // 20)
    table = [_ride(rng, float(i), drivers) for i in range(rows)]
    return {"table": table, "drivers": drivers}


def _table_build(api: ModuleType, inputs: dict) -> State:
    # tracing=False: with the default tracer every query appends one span
    # per record ever ingested into the table it reads, so a query costs
    # O(table rows) in span bookkeeping and memory grows without bound;
    # pipeline_e2e is the workload that pays (and shows) that cost.
    platform = (
        api.Platform(tracing=False)
        .with_kafka()
        .with_pinot()
        .with_presto()
        .topic("rides", partitions=4)
    )
    rows = inputs["table"]
    table = platform.realtime_table(
        _rides_table(api, segment_rows=max(10, len(rows) // TABLE_SEGMENTS)),
        topic="rides",
    )
    producer = platform.producer("loader")
    _send_rides(producer, rows)
    platform.kafka.replicate()
    table.ingestion.run_until_caught_up()
    while platform.pinot.backup.run_step():
        pass
    return State(platform, [producer], producer=producer, table=table)


GOLDEN = 0.6180339887498949
# Exact shape mix of every run: 20% filtered select (S, ~1.9 ms), 10%
# filtered top-k (T, ~2.3 ms), 40% per-city group-by (C, ~3.7 ms), 30%
# high-cardinality group-by (D, ~6 ms).  The shapes' times hardly overlap,
# so a percentile that falls where one shape ends and the next begins jumps
# between them from seed to seed; with this mix the median is the middle of
# C and the 90th percentile two thirds of the way through D.
SHAPE_CYCLE = "CSDCTDCSDC"


def _olap_query(number: int, offset: float, rows: int) -> Query:
    """Query ``number`` of the scan workload.  Shape, city and status cycle
    and the time window walks the table on a low-discrepancy sequence, so
    the work of a run barely depends on the seed; the seed moves every
    literal through ``offset``."""
    shift = int(offset * 1000)
    city = CITIES[(number * 7 + shift) % len(CITIES)]

    def window(share: float) -> tuple[float, float]:
        width = int(rows * share)
        start = int((offset + number * GOLDEN) % 1.0 * (rows - width))
        return (float(start), float(start + width))

    shape = SHAPE_CYCLE[number % len(SHAPE_CYCLE)]
    if shape == "S":
        return Query(
            filters=(
                ("city", "=", city),
                ("fare", ">=", float(30 + (number * 11 + shift) % 28)),
                ("event_time", ">=", window(0.5)[0]),
            ),
            columns=("city", "driver", "fare", "event_time"),
            limit=50,
        )
    if shape == "C":
        return Query(
            filters=(("event_time", "BETWEEN", window(0.15)),),
            aggs=(("COUNT", "*", "n"), ("AVG", "fare", "avg_fare")),
            group_by="city",
        )
    if shape == "T":
        return Query(
            filters=(("city", "=", city), ("event_time", "BETWEEN", window(0.4))),
            aggs=(("SUM", "fare", "total"),),
            group_by="driver",
            order_by=(("total", True), ("driver", False)),
            limit=10,
        )
    return Query(
        filters=(
            ("status", "=", STATUSES[(number + shift) % len(STATUSES)]),
            ("event_time", "BETWEEN", window(0.25)),
        ),
        aggs=(("COUNT", "*", "n"), ("SUM", "fare", "total")),
        group_by="driver",
        order_by=(("total", True), ("driver", False)),
        limit=20,
    )


def olap_generate(seed: int, scale: float) -> dict:
    inputs = _table_inputs(seed, scale, "olap_scan.table")
    count = max(40, round(400 * scale))
    offset = _rng(seed, "olap_scan.queries").random()
    rows = len(inputs["table"])
    queries: dict[str, Query] = {}
    number = 0
    while len(queries) < count:  # distinct texts: no query can hit a cache
        query = _olap_query(number, offset, rows)
        queries.setdefault(query.sql(), query)
        number += 1
    inputs.update(
        query_list=list(queries.items()),
        queries=count,
        bursts={},
        burst_rows=[],
        records=0,
    )
    return inputs


def _dashboard_pool(rows: int) -> list[Query]:
    """64 dashboard panels over trailing windows that end beyond the
    preloaded table, so every ingest burst changes every answer."""
    pool: list[Query] = []
    for i, city in enumerate(CITIES):
        since = float(int(rows * (0.80 + 0.01 * i)))
        pool.append(
            Query(
                filters=(("city", "=", city), ("event_time", ">=", since)),
                aggs=(("COUNT", "*", "n"), ("SUM", "fare", "revenue")),
                group_by="status",
            )
        )
        pool.append(
            Query(
                filters=(("city", "=", city), ("event_time", ">=", since)),
                aggs=(("SUM", "fare", "total"),),
                group_by="driver",
                order_by=(("total", True), ("driver", False)),
                limit=10,
            )
        )
        pool.append(
            Query(
                filters=(("event_time", ">=", float(int(rows * (0.90 + 0.005 * i)))),),
                aggs=(("COUNT", "*", "n"), ("AVG", "fare", "avg_fare")),
                group_by="city",
            )
        )
        pool.append(
            Query(
                filters=(
                    ("status", "=", STATUSES[i % len(STATUSES)]),
                    ("event_time", ">=", float(int(rows * (0.92 + 0.004 * i)))),
                ),
                aggs=(("COUNT", "*", "n"), ("MAX", "fare", "top_fare")),
            )
        )
    return pool


BURST_EVERY = 100


def dashboard_generate(seed: int, scale: float) -> dict:
    inputs = _table_inputs(seed, scale, "dashboard_repeat.table")
    rows = len(inputs["table"])
    count = max(2 * BURST_EVERY, round(1500 * scale))
    burst_size = max(20, round(60 * scale))
    rng = _rng(seed, "dashboard_repeat.bursts")
    pool = _dashboard_pool(rows)
    zipf = [1.0 / rank for rank in range(1, len(pool) + 1)]
    # Which panel is asked when is part of the workload, not of the seed:
    # the hit ratio and the mix of shapes on the miss path are then the
    # same in every run, and the seed decides only the data.
    drawn = random.Random("dashboard_repeat.ranks").choices(pool, zipf, k=count)
    bursts: dict[int, list[dict]] = {}
    burst_rows: list[dict] = []
    for before_query in range(BURST_EVERY, count, BURST_EVERY):
        base = rows + len(burst_rows)
        burst = [
            _ride(rng, float(base + i), inputs["drivers"]) for i in range(burst_size)
        ]
        bursts[before_query] = burst
        burst_rows += burst
    inputs.update(
        query_list=[(query.sql(), query) for query in drawn],
        queries=count,
        bursts=bursts,
        burst_rows=burst_rows,
        records=len(burst_rows),
    )
    return inputs


def table_run(state: State, inputs: dict, phase: Any) -> dict:
    """Shared by olap_scan (no bursts) and dashboard_repeat."""
    platform, producer, table = state.platform, state.producer, state.table
    clock = phase.clock
    bursts = inputs["bursts"]
    ingested = len(inputs["table"])
    sampled: list[tuple[int, int, list[dict]]] = []
    failed = 0
    phase.query_ms = phase.latency_ms  # here the query is the operation
    phase.start()
    for number, (sql, __) in enumerate(inputs["query_list"]):
        phase.begin_step(number)
        try:
            burst = bursts.get(number)
            if burst is not None:
                _send_rides(producer, burst)
                platform.kafka.replicate()
                table.ingestion.run_step()
                ingested += len(burst)
            asked = clock()
            output = platform.sql(sql)
            phase.latency_ms.append((clock() - asked) * 1000)
            phase.observe(output.stats)
            if number % CHECK_EVERY == 0:
                sampled.append((number, ingested, output.rows))
        except Exception:
            failed += 1
            _report_failure(f"query {number}: {sql}")
        phase.end_step(1)
    return {"failed": failed, "sampled": sampled}


def table_check(state: State, inputs: dict, result: dict) -> tuple[int, int]:
    every_row = inputs["table"] + inputs["burst_rows"]
    failed = state.table.ingestion.lag()
    for number, ingested, got in result["sampled"]:
        query = inputs["query_list"][number][1]
        if not query.agrees(got, every_row[:ingested]):
            failed += 1
            print(
                f"FAILED OPERATION: query {number} disagrees with the reference "
                f"over {ingested} rows: {query.sql()}",
                file=sys.stderr,
            )
    return inputs["queries"] + inputs["records"], failed


# -- join_backfill --------------------------------------------------------------

JOIN_LOWER, JOIN_UPPER = -20.0, 0.0
ERROR_WINDOW_S = 10.0
OUT_OF_ORDER_S = 0.5
MODELS = 20


def join_generate(seed: int, scale: float) -> dict:
    predictions = max(2000, round(20_000 * scale))
    keys = max(100, predictions * 2 // 25)  # 20k keys per 250k predictions
    rng = _rng(seed, "join_backfill")
    spacing = 0.004
    lefts: list[tuple[float, dict]] = []  # (arrival, row)
    rights: list[tuple[float, dict]] = []
    for seq in range(predictions):
        ts = seq * spacing
        row = {
            "id": f"k{rng.randrange(keys)}",
            "seq": seq,
            "model": f"m{seq % MODELS:02d}",
            "val": rng.randrange(1024) / 1024,
            "ts": ts,
        }
        lefts.append((ts + rng.uniform(0.0, OUT_OF_ORDER_S), row))
        if rng.random() >= 0.10:  # 10% of outcomes never arrive
            outcome_ts = ts + rng.uniform(1.0, 15.0)
            outcome = {
                "id": row["id"],
                "seq": seq,
                "obs": rng.randrange(1024) / 1024,
                "ts": outcome_ts,
            }
            rights.append((outcome_ts + rng.uniform(0.0, OUT_OF_ORDER_S), outcome))
    lefts.sort(key=lambda pair: (pair[0], pair[1]["seq"]))
    rights.sort(key=lambda pair: (pair[0], pair[1]["seq"]))
    # Kafka sources never end, so a sentinel per partition, far in the
    # future and with a key nothing joins, moves the watermark past the
    # last real window; its own window stays open and emits nothing.
    horizon = predictions * spacing + 1000.0
    return {
        "predictions": [row for __, row in lefts],
        "outcomes": [row for __, row in rights],
        "horizon": horizon,
        "records": len(lefts) + len(rights),
        "queries": 0,
    }


JOIN_PARTITIONS = 4


def join_build(api: ModuleType, inputs: dict) -> State:
    windows = importlib.import_module("repro.flink.windows")
    platform = (
        api.Platform(tracing=False)
        .with_kafka()
        .topic("predictions", partitions=JOIN_PARTITIONS)
        .topic("outcomes", partitions=JOIN_PARTITIONS)
        .topic("model_error", partitions=2)
    )
    kafka = platform.kafka
    producer = platform.producer("replay")
    for topic in ("predictions", "outcomes"):
        for row in inputs[topic]:
            producer.send(topic, row, key=row["id"], event_time=row["ts"])
        producer.flush()
        # After the flush, so each sentinel is the last entry of its
        # partition (appended directly: a keyed send cannot aim).
        for partition in range(JOIN_PARTITIONS):
            key = f"end-{topic}-{partition}"
            sentinel = {"id": key, "seq": -1, "model": "none", "val": 0.0, "obs": 0.0}
            sentinel["ts"] = inputs["horizon"]
            kafka.append(
                topic, partition, api.Record(key, sentinel, inputs["horizon"], {})
            )
    kafka.replicate()
    env = api.StreamEnvironment()
    sources = [
        env.from_kafka(kafka, topic, "backfill", max_out_of_orderness=OUT_OF_ORDER_S)
        for topic in ("predictions", "outcomes")
    ]
    sources[0].interval_join(
        sources[1],
        key_fns=(lambda p: p["id"], lambda o: o["id"]),
        lower=JOIN_LOWER,
        upper=JOIN_UPPER,
        join_fn=lambda p, o: {"model": p["model"], "err": abs(p["val"] - o["obs"])},
        allowed_lateness=1.0,
        state_ttl=30.0,
        parallelism=2,
        name="join",
    ).key_by("model").window(windows.TumblingWindows(ERROR_WINDOW_S)).aggregate(
        windows.AvgAggregate("err")
    ).sink_to_kafka(kafka, "model_error")
    runtime = platform.job(env.build("join-backfill"))
    return State(platform, [], runtime=runtime)


def join_run(state: State, inputs: dict, phase: Any) -> dict:
    runtime = state.runtime
    clock = phase.clock
    source_ids = [spec.op_id for spec in runtime.graph.sources()]
    consumed = 0
    call = 0
    phase.start()
    while True:
        phase.begin_step(call)
        asked = clock()
        progressed = runtime.run_rounds(1)
        phase.latency_ms.append((clock() - asked) * 1000)
        counts = runtime.records_processed()
        now_consumed = sum(counts[op_id] for op_id in source_ids)
        phase.end_step(now_consumed - consumed)
        consumed = now_consumed
        call += 1
        if progressed == 0:
            break
    return {"failed": 0}


def join_check(state: State, inputs: dict, result: dict) -> tuple[int, int]:
    runtime, kafka = state.runtime, state.platform.kafka
    pairs, averages = reference.interval_join(
        inputs["predictions"],
        inputs["outcomes"],
        JOIN_LOWER,
        JOIN_UPPER,
        ERROR_WINDOW_S,
    )
    joined = records_by_kind([runtime])["window"]  # what the join emitted
    kafka.replicate()
    emitted: dict[tuple[str, float], float] = {}
    for partition in range(kafka.partition_count("model_error")):
        offset = kafka.start_offset("model_error", partition)
        end = kafka.end_offset("model_error", partition)
        while offset < end:
            for entry in kafka.fetch("model_error", partition, offset, 500):
                value = entry.record.value
                emitted[(value["key"], value["window_start"])] = value["value"]
                offset = entry.offset + 1
    wrong_windows = sum(
        1
        for key in averages.keys() | emitted.keys()
        if key not in averages
        or key not in emitted
        or not math.isclose(averages[key], emitted[key], rel_tol=1e-9)
    )
    failed = (
        abs(pairs - joined)
        + wrong_windows
        + late_dropped(runtime)
        + runtime.total_source_lag()
    )
    return inputs["records"] + len(averages), failed


# -- registry -------------------------------------------------------------------

WORKLOADS = {
    "pipeline_e2e": (pipeline_generate, pipeline_build, pipeline_run, pipeline_check),
    "olap_scan": (olap_generate, _table_build, table_run, table_check),
    "dashboard_repeat": (dashboard_generate, _table_build, table_run, table_check),
    "join_backfill": (join_generate, join_build, join_run, join_check),
}
