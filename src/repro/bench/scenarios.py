"""Seeded hot-path workloads for the counted-work gate.

Eight scenarios, one per hot layer of the stack:

* ``kafka_produce_fetch`` — batched, keyed produce with ``acks=all``
  (replica bookkeeping on the append path) followed by paged fetches of
  everything back: the storage hot path.
* ``flink_window`` — a keyed tumbling-window aggregation over a bounded
  source, driven to quiescence: the stream-runtime hot path (channel
  routing, backpressure probes, element dispatch), isolated from Kafka.
* ``stream_join`` — an interval join of out-of-order prediction and
  outcome streams (high key cardinality, duplicate deliveries) feeding a
  point-in-time feature store: the join-state and feature-platform hot
  path, with a crash-restore variant gated on byte-identical digests.
* ``pinot_ingest_query`` — Kafka → realtime consuming segments → sealed
  columnar segments, then a mixed query workload (inverted-index filter,
  group-by aggregation, selection scan) through the broker: the OLAP
  ingest and query-evaluation hot paths.
* ``pinot_selective_query`` — selective point/range queries over a table
  with many sealed segments, partition keying, blooms and a time column:
  the broker's segment-pruning and result-cache hot path.
* ``presto_scan`` — PrestoSQL over the Pinot connector at predicate-only
  pushdown, over a table fed as column chunks, so pages ship into the
  engine's kernels: the federated scan hot path.
* ``presto_federated_join`` — a Pinot fact table joined to a Hive
  dimension table through the stage scheduler, with query variants that
  share plan subtrees: the planner's stage-artifact reuse and epoch
  invalidation hot path.
* ``controlplane_surge`` — a million-user spiking workload against the
  whole serving path under SLO-tiered admission control and cross-layer
  autoscaling, with a broker failure mid-spike: the control plane's
  admission/shed/scale hot path.

Each scenario is a pure function of ``(params, seed)``: every workload
value comes from :func:`repro.common.rng.seeded_rng` and time from a
:class:`~repro.common.clock.SimulatedClock`, so the counted work — and
therefore the whole report — reproduces exactly.  The ``check`` value in
the outcome digests the scenario's *results* (window sums, query
answers), guarding against an "optimization" that changes semantics.
Each scenario is registered at one parameter set; tests that need a
smaller or a fault-injecting variant pass their own ``params``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.clock import SimulatedClock
from repro.common.rng import seeded_rng
from repro.common.serde import digest

PAD = "x" * 48


@dataclass(frozen=True)
class Outcome:
    """What a scenario reports back: its size and a results digest."""

    records: int
    check: int


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    fn: Callable[[dict, int], Outcome]
    params: dict


# -- kafka ---------------------------------------------------------------------


def kafka_produce_fetch(params: dict, seed: int) -> Outcome:
    from repro.kafka.cluster import KafkaCluster, TopicConfig
    from repro.kafka.producer import Producer

    n = params["records"]
    clock = SimulatedClock()
    cluster = KafkaCluster("bench", 3, clock=clock)
    cluster.create_topic(
        "events",
        TopicConfig(partitions=params["partitions"], replication_factor=2),
    )
    producer = Producer(
        cluster,
        "bench",
        acks=params["acks"],
        batch_size=params["batch_bytes"],
        clock=clock,
    )
    rng = seeded_rng(seed, "bench.kafka")
    keys = [f"k{rng.randrange(params['keys'])}" for __ in range(n)]
    for i in range(n):
        clock.advance(0.001)
        producer.send("events", {"i": i, "pad": PAD}, key=keys[i])
    producer.flush()
    cluster.replicate()
    fetched = 0
    checksum = 0
    for partition in range(params["partitions"]):
        offset = cluster.start_offset("events", partition)
        end = cluster.end_offset("events", partition)
        while offset < end:
            entries = cluster.fetch("events", partition, offset, 500)
            offset = entries[-1].offset + 1
            fetched += len(entries)
            checksum += sum(e.record.value["i"] for e in entries)
    return Outcome(records=n, check=digest([fetched, checksum]))


# -- flink ---------------------------------------------------------------------


def flink_window(params: dict, seed: int) -> Outcome:
    from repro.flink.graph import StreamEnvironment
    from repro.flink.operators import BoundedColumnarSource
    from repro.flink.runtime import JobRuntime
    from repro.flink.windows import SumAggregate, TumblingWindows

    n = params["records"]
    rng = seeded_rng(seed, "bench.flink")
    elements = [
        (
            {"city": f"c{rng.randrange(params['keys'])}", "amount": float(rng.randrange(100))},
            i * 0.01,
        )
        for i in range(n)
    ]
    clock = SimulatedClock()
    env = StreamEnvironment()
    out: list = []
    source = BoundedColumnarSource(
        columns={
            "city": [row["city"] for row, __ in elements],
            "amount": [row["amount"] for row, __ in elements],
        },
        timestamps=[ts for __, ts in elements],
        batch_size=200,
    )
    env.add_source(
        source, name="src",
        parallelism=params["parallelism"],
    ) \
        .key_by("city") \
        .window(TumblingWindows(params["window_s"])) \
        .aggregate(SumAggregate("amount")) \
        .sink_to_list(out)
    runtime = JobRuntime(env.build("bench-window"), clock=clock)
    while True:
        processed = runtime.run_rounds(1, budget_per_task=500)
        if processed == 0:
            break
    sums = sorted((r.key, r.window.start, r.value) for r in out)
    return Outcome(records=n, check=digest(sums))


def stream_join(params: dict, seed: int) -> Outcome:
    """Interval-joined prediction/outcome streams feeding a feature store.

    High key cardinality (``keys`` join keys over ``records`` lefts, so
    keys repeat — many-to-many pairs), seeded out-of-orderness
    (``ooo_s`` arrival jitter against event time) and seeded duplicate
    deliveries (``dup_rate`` of lefts arrive twice, exercising the
    store's idempotent writes and the join's duplicate pairs).  The left
    path logs per-prediction and per-model features *before* the join;
    the joined stream is enriched with a point-in-time read at the
    outcome's event time.  After quiescence a seeded batch of per-model
    point-in-time reads runs against the out-of-order version history.

    ``crash_restore=True`` switches the sink to 2PC-transactional and
    performs a seeded mid-run checkpoint + crash-restore; the outcome
    digest must be byte-identical to the plain run — the equality
    ``tests/bench/test_stream_join.py`` asserts over three seeds.
    """
    from repro.features import FeatureStore
    from repro.flink.graph import StreamEnvironment
    from repro.flink.operators import BoundedListSource
    from repro.flink.runtime import JobRuntime
    from repro.storage.blobstore import BlobStore

    n = params["records"]
    models = params["models"]
    delay_max = params["delay_max_s"]
    ooo_s = params["ooo_s"]
    dt = 0.05
    rng = seeded_rng(seed, "bench.stream_join")
    lefts: list[tuple[dict, float, float]] = []  # (row, event_ts, arrival)
    rights: list[tuple[dict, float, float]] = []
    for i in range(n):
        ts = i * dt
        row = {
            "id": f"k{rng.randrange(params['keys'])}",
            "seq": i,
            "model": f"m{i % models}",
            "val": rng.randrange(1000) / 1000.0,
            "ts": ts,
        }
        lefts.append((row, ts, ts + rng.uniform(0.0, ooo_s)))
        if rng.random() < params["dup_rate"]:
            # At-least-once upstream: the same prediction delivered twice.
            lefts.append((row, ts, ts + rng.uniform(0.0, ooo_s)))
        if rng.random() >= params["loss_rate"]:
            rts = ts + rng.uniform(1.0, delay_max)
            rights.append(
                (
                    {
                        "id": row["id"],
                        "seq": i,
                        "obs": rng.randrange(1000) / 1000.0,
                        "ts": rts,
                    },
                    rts,
                    rts + rng.uniform(0.0, ooo_s),
                )
            )
    lefts.sort(key=lambda e: (e[2], e[0]["seq"]))
    rights.sort(key=lambda e: (e[2], e[0]["seq"]))

    clock = SimulatedClock()
    store = FeatureStore("bench-features")
    env = StreamEnvironment()
    out: list = []

    def log_features(p: dict) -> dict:
        # Per-prediction request-time features (unique key: idempotent
        # under duplicate delivery) plus a high-cardinality per-model
        # series whose versions arrive out of event-time order.
        store.write_row(("pred", p["seq"]), {"val": p["val"]}, p["ts"])
        store.write(("model", p["model"]), "last_val", p["val"], p["ts"])
        return p

    def enrich(row: dict) -> dict:
        val = store.get_feature(("pred", row["ls"]), "val", row["rts"], -1.0)
        return {
            "id": row["id"],
            "ls": row["ls"],
            "rs": row["rs"],
            "err": abs(val - row["obs"]),
        }

    left = env.add_source(
        BoundedListSource(
            [(row, ts) for row, ts, __ in lefts],
            max_out_of_orderness=ooo_s,
            batch_size=200,
        ),
        name="predictions",
        parallelism=params["parallelism"],
    ).map(log_features, name="feature-log")
    right = env.add_source(
        BoundedListSource(
            [(row, ts) for row, ts, __ in rights],
            max_out_of_orderness=ooo_s,
            batch_size=200,
        ),
        name="outcomes",
        parallelism=params["parallelism"],
    )
    crash = params.get("crash_restore", False)
    left.interval_join(
        right,
        key_fns=(lambda p: p["id"], lambda o: o["id"]),
        lower=-delay_max,
        upper=0.0,
        join_fn=lambda p, o: {
            "id": p["id"],
            "ls": p["seq"],
            "rs": o["seq"],
            "obs": o["obs"],
            "rts": o["ts"],
        },
        allowed_lateness=params["lateness_s"],
        state_ttl=params["ttl_s"],
        spill_budget_bytes=params.get("spill_budget_bytes"),
        parallelism=params["parallelism"],
        name="ij",
    ).map(enrich, name="feature-enrich").sink_to_list(out, transactional=crash)

    runtime = JobRuntime(
        env.build("bench-stream-join"),
        blob_store=BlobStore(clock=clock),
        clock=clock,
    )
    rounds = 0
    restored = False
    while True:
        processed = runtime.run_rounds(1, budget_per_task=500)
        rounds += 1
        if crash:
            if rounds == params.get("checkpoint_round", 3):
                runtime.trigger_checkpoint()
            crash_now = rounds == params.get("crash_round", 6)
            if crash_now and runtime.completed_checkpoints():
                runtime.restore_from(runtime.completed_checkpoints()[-1])
                restored = True
                continue
        if processed == 0:
            break
    if crash:
        runtime.trigger_checkpoint()  # commit the final 2PC epoch
        assert restored, "crash_restore run never restored a checkpoint"

    join_ops = [task.operator for task in runtime.tasks["ij"]]
    late_dropped = sum(op.late_dropped for op in join_ops)
    evicted = sum(op.evicted for op in join_ops)
    # Offline half of the determinism gate: seeded per-model point-in-time
    # reads over the out-of-order version history.
    read_rng = seeded_rng(seed, "bench.stream_join.reads")
    read_digest = store.read_digest(
        (
            ("model", f"m{read_rng.randrange(models)}"),
            read_rng.uniform(0.0, n * dt),
        )
        for __ in range(params["reads"])
    )
    joined = sorted(out, key=lambda r: (r["id"], r["ls"], r["rs"]))
    return Outcome(
        records=n,
        check=digest(
            [joined, read_digest, late_dropped, evicted, store.version_count()]
        ),
    )


# -- pinot ---------------------------------------------------------------------


def _pinot_table(params: dict, seed: int, chunked: bool = False):
    """Produce and fully ingest the ``metrics`` table.  ``chunked`` ships
    the same rows as 200-row column chunks instead of one record each."""
    from repro.kafka.cluster import KafkaCluster, TopicConfig
    from repro.kafka.producer import Producer
    from repro.metadata.schema import Field, FieldRole, FieldType, Schema
    from repro.pinot.broker import PinotBroker
    from repro.pinot.controller import PinotController
    from repro.pinot.recovery import PeerToPeerBackup
    from repro.pinot.segment import IndexConfig
    from repro.pinot.server import PinotServer
    from repro.pinot.table import TableConfig
    from repro.storage.blobstore import BlobStore

    n = params["records"]
    clock = SimulatedClock()
    kafka = KafkaCluster("bench", 3, clock=clock)
    kafka.create_topic("metrics", TopicConfig(partitions=4))
    producer = Producer(kafka, "bench", clock=clock)
    rng = seeded_rng(seed, "bench.pinot")
    schema = Schema(
        "metrics",
        (
            Field("city", FieldType.STRING),
            Field("status", FieldType.STRING),
            Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )
    pending: list[dict] = []

    def flush_chunk() -> None:
        from repro.columnar import ColumnBatch

        batch = ColumnBatch.from_columns(
            {
                name: [row[name] for row in pending]
                for name in ("city", "status", "amount", "ts")
            }
        )
        producer.send_columnar(
            "metrics",
            batch,
            key_column="city",
            event_times=[row["ts"] for row in pending],
        )
        pending.clear()

    for __ in range(n):
        clock.advance(0.001)
        row = {
            "city": f"city-{rng.randrange(params['keys'])}",
            "status": rng.choice(["ok", "late", "cancelled"]),
            "amount": float(rng.randrange(100)),
            "ts": clock.now(),
        }
        if chunked:
            pending.append(row)
            if len(pending) >= 200:
                flush_chunk()
        else:
            producer.send("metrics", row, key=row["city"])
    if pending:
        flush_chunk()
    producer.flush()
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)],
        PeerToPeerBackup(BlobStore()),
    )
    state = controller.create_realtime_table(
        TableConfig(
            "metrics",
            schema,
            time_column="ts",
            index_config=IndexConfig(inverted=frozenset({"city"})),
            segment_rows_threshold=params["segment_rows"],
        ),
        kafka,
        "metrics",
    )
    while True:
        state.ingestion.run_step()
        controller.backup.run_step()
        if state.ingestion.lag() == 0 and not any(
            s.blocked() for s in state.ingestion.partitions.values()
        ):
            break
    return clock, PinotBroker(controller, clock=clock)


def pinot_ingest_query(params: dict, seed: int) -> Outcome:
    from repro.pinot.query import Aggregation, Filter, PinotQuery

    __, broker = _pinot_table(params, seed)
    n = params["records"]
    checks = []
    queries = [
        PinotQuery(
            table="metrics",
            aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
            filters=[Filter("city", "=", "city-3")],
            group_by=["status"],
        ),
        PinotQuery(
            table="metrics",
            aggregations=[Aggregation("SUM", "amount")],
            group_by=["city"],
            limit=100,
        ),
        PinotQuery(
            table="metrics",
            select_columns=["city", "amount"],
            filters=[Filter("amount", ">=", 95.0)],
            limit=1_000_000,
        ),
    ]
    for __ in range(params["query_rounds"]):
        for query in queries:
            result = broker.execute(query)
            checks.append(
                sorted(
                    tuple(sorted(row.items())) for row in result.rows
                )
            )
    return Outcome(records=n, check=digest(checks))


def pinot_selective_query(params: dict, seed: int) -> Outcome:
    """Selective queries over many segments: the pruning + cache hot path.

    A keyed-by-city stream lands in a table that declares its partition
    column, blooms its high-cardinality ``ride_id`` and has a monotonic
    time column, so every sealed segment carries pruning metadata.  The
    workload then repeats a small set of *selective* queries — point
    lookups by ride id, a partition-scoped recency window, a narrow time
    window — across rounds.  With ``pruning``/``cache`` enabled (the
    registered configuration) the first round scans a handful of segments
    and later rounds are epoch-validated cache hits; with both steps
    skipped (the bench tests' reference) every round full-scans every
    segment.
    """
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

    n = params["records"]
    clock = SimulatedClock()
    kafka = KafkaCluster("bench", 3, clock=clock)
    kafka.create_topic("rides", TopicConfig(partitions=4))
    producer = Producer(kafka, "bench", clock=clock)
    rng = seeded_rng(seed, "bench.pinot.selective")
    schema = Schema(
        "rides",
        (
            Field("city", FieldType.STRING),
            Field("ride_id", FieldType.STRING),
            Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )
    cities = [f"city-{i}" for i in range(params["keys"])]
    for i in range(n):
        clock.advance(0.001)
        row = {
            "city": cities[rng.randrange(params["keys"])],
            "ride_id": f"ride-{i:08d}",
            "amount": float(rng.randrange(100)),
            "ts": clock.now(),
        }
        producer.send("rides", row, key=row["city"])
    producer.flush()
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)],
        PeerToPeerBackup(BlobStore()),
    )
    state = controller.create_realtime_table(
        TableConfig(
            "rides",
            schema,
            time_column="ts",
            index_config=IndexConfig(bloom_filtered=frozenset({"ride_id"})),
            segment_rows_threshold=params["segment_rows"],
            partition_column="city",
        ),
        kafka,
        "rides",
    )
    while True:
        state.ingestion.run_step()
        controller.backup.run_step()
        if state.ingestion.lag() == 0 and not any(
            s.blocked() for s in state.ingestion.partitions.values()
        ):
            break
    broker = PinotBroker(
        controller,
        clock=clock,
        enable_pruning=params.get("pruning", True),
        enable_cache=params.get("cache", True),
    )
    span = n * 0.001  # ts covers (0, span]
    lookup_ids = sorted(f"ride-{rng.randrange(n):08d}" for __ in range(3))
    queries = [
        # Point lookups: the bloom filter proves absence per segment.
        *(
            PinotQuery(
                table="rides",
                select_columns=["city", "amount", "ts"],
                filters=[Filter("ride_id", "=", ride)],
            )
            for ride in lookup_ids
        ),
        # Partition-scoped recency: partition pruning (city is the stream
        # key) plus the time zone map cut the scatter down to the newest
        # segments of one partition.
        PinotQuery(
            table="rides",
            aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
            filters=[
                Filter("city", "=", cities[3]),
                Filter("ts", "BETWEEN", low=span * 0.9, high=span),
            ],
        ),
        # Narrow global time window: ts is monotonic, so zone maps prune
        # every segment outside the slice.
        PinotQuery(
            table="rides",
            aggregations=[Aggregation("COUNT")],
            filters=[Filter("ts", "BETWEEN", low=span * 0.45, high=span * 0.5)],
        ),
    ]
    checks = []
    for __ in range(params["query_rounds"]):
        for query in queries:
            result = broker.execute(query)
            checks.append(
                sorted(tuple(sorted(row.items())) for row in result.rows)
            )
    return Outcome(records=n, check=digest(checks))


# -- presto --------------------------------------------------------------------


def presto_scan(params: dict, seed: int) -> Outcome:
    from repro.sql.presto.connector import PinotConnector
    from repro.sql.presto.engine import PrestoEngine

    clock, broker = _pinot_table(params, seed, chunked=True)
    n = params["records"]
    engine = PrestoEngine(
        {"metrics": PinotConnector(broker, pushdown="predicate")},
        clock=clock,
    )
    sql = (
        "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM metrics "
        "WHERE status = 'ok' GROUP BY city ORDER BY total DESC LIMIT 10"
    )
    checks = []
    for __ in range(params["query_rounds"]):
        out = engine.execute(sql)
        checks.append([tuple(sorted(row.items())) for row in out.rows])
    return Outcome(records=n, check=digest(checks))


def presto_federated_join(params: dict, seed: int) -> Outcome:
    """Federated join with stage-artifact reuse: the planner's hot path.

    A Pinot realtime fact table (``rides``, keyed and partitioned by
    city) joins a small Hive dimension table (``cities`` → region)
    through the stage scheduler.  Every round runs four analytics
    queries sharing the scan → join (→ aggregate) plan prefix, so the
    first query computes the shared stages and the rest — and later
    rounds — are served from the stage artifact store.  Midway through,
    an ingest burst advances the rides TableEpoch, which must invalidate
    every rides-derived artifact; the results digest covers each round's
    rows and the bench tests pin it to the digest a run without any
    reuse produced, so a stale artifact fails them.
    """
    from repro.kafka.cluster import KafkaCluster, TopicConfig
    from repro.kafka.producer import Producer
    from repro.metadata.schema import Field, FieldRole, FieldType, Schema
    from repro.pinot.broker import PinotBroker
    from repro.pinot.controller import PinotController
    from repro.pinot.recovery import PeerToPeerBackup
    from repro.pinot.server import PinotServer
    from repro.pinot.table import TableConfig
    from repro.sql.presto.connector import HiveConnector, PinotConnector
    from repro.sql.presto.engine import PrestoEngine
    from repro.storage.blobstore import BlobStore
    from repro.storage.hive import HiveMetastore

    n = params["records"]
    keys = params["keys"]
    clock = SimulatedClock()
    kafka = KafkaCluster("bench", 3, clock=clock)
    kafka.create_topic("rides", TopicConfig(partitions=4))
    producer = Producer(kafka, "bench", clock=clock)
    rng = seeded_rng(seed, "bench.presto.join")
    cities = [f"city-{i}" for i in range(keys)]

    def send_rides(count: int) -> None:
        for __ in range(count):
            clock.advance(0.001)
            # partition_column="city" below promises the stream is keyed
            # by city, so key by the row's own city value.
            row = {
                "city": cities[rng.randrange(keys)],
                "amount": float(rng.randrange(100)),
                "ts": clock.now(),
            }
            producer.send("rides", row, key=row["city"])
        producer.flush()

    def ingest_until_caught_up() -> None:
        while True:
            state.ingestion.run_step()
            controller.backup.run_step()
            if state.ingestion.lag() == 0 and not any(
                s.blocked() for s in state.ingestion.partitions.values()
            ):
                break

    send_rides(n)
    schema = Schema(
        "rides",
        (
            Field("city", FieldType.STRING),
            Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)],
        PeerToPeerBackup(BlobStore()),
    )
    state = controller.create_realtime_table(
        TableConfig(
            "rides",
            schema,
            time_column="ts",
            segment_rows_threshold=params["segment_rows"],
            partition_column="city",
        ),
        kafka,
        "rides",
    )
    ingest_until_caught_up()
    broker = PinotBroker(controller, clock=clock)
    metastore = HiveMetastore(BlobStore())
    cities_schema = Schema(
        "cities",
        (
            Field("city", FieldType.STRING),
            Field("region", FieldType.STRING),
        ),
    )
    dim = metastore.create_table("cities", cities_schema)
    dim.add_rows(
        "p0",
        [
            {"city": city, "region": f"region-{i % 3}"}
            for i, city in enumerate(cities)
        ],
    )
    engine = PrestoEngine(
        {
            "rides": PinotConnector(broker, pushdown="full"),
            "cities": HiveConnector(metastore),
        },
        clock=clock,
    )
    # Four variants over one scan → join → aggregate prefix: the grouped
    # rollup, a HAVING refinement, a top-k cut, and a different aggregate
    # set (shares scan + join but not the aggregation).
    base = (
        "FROM rides f JOIN cities d ON f.city = d.city GROUP BY d.region"
    )
    rollup = f"SELECT d.region AS region, COUNT(*) AS n, SUM(f.amount) AS total {base}"
    queries = [
        rollup,
        rollup + " HAVING n > 0",
        rollup + " ORDER BY total DESC LIMIT 2",
        f"SELECT d.region AS region, MIN(f.amount) AS lo, MAX(f.amount) AS hi {base}",
    ]
    checks = []
    for round_no in range(params["query_rounds"]):
        if round_no == params["query_rounds"] // 2:
            # Freshness burst: new rows advance the rides TableEpoch, so
            # every artifact derived from the rides scan must recompute.
            send_rides(n // 8)
            ingest_until_caught_up()
        for sql in queries:
            out = engine.execute(sql)
            checks.append([tuple(sorted(row.items())) for row in out.rows])
    return Outcome(records=n, check=digest(checks))


# -- control plane -------------------------------------------------------------


def controlplane_surge(params: dict, seed: int) -> Outcome:
    """The million-user surge under SLO-tiered admission + autoscaling.

    Wraps :func:`repro.controlplane.surge.run_surge`: a skewed, diurnal,
    spiking arrival stream queries a sealed serving table while a
    telemetry firehose loads the write path and a broker dies mid-spike.
    The control plane (admission shedding + cross-layer scaling) must
    hold every tier's latency SLO; the ``check`` digests the admitted
    result digests *and* the decision log, so both query semantics and
    control decisions gate byte-identically in CI.
    """
    from repro.controlplane.surge import run_surge

    report = run_surge(params, seed)
    return Outcome(records=report.requests, check=report.check)


# -- registry --------------------------------------------------------------------


SCENARIOS: tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="kafka_produce_fetch",
        fn=kafka_produce_fetch,
        params={
            "records": 20_000,
            "partitions": 4,
            "keys": 256,
            "acks": "all",
            "batch_bytes": 16_384,
        },
    ),
    ScenarioSpec(
        name="flink_window",
        fn=flink_window,
        params={
            "records": 12_000,
            "keys": 64,
            "window_s": 5.0,
            "parallelism": 2,
        },
    ),
    ScenarioSpec(
        name="stream_join",
        fn=stream_join,
        # crash_restore stays off in the registered config;
        # tests/bench/test_stream_join.py runs the crash variant and
        # asserts digest equality against the fault-free run.
        params={
            "records": 8_000,
            "keys": 1_024,
            "models": 16,
            "delay_max_s": 8.0,
            "ooo_s": 2.0,
            "lateness_s": 1.0,
            "ttl_s": 8.0,
            "dup_rate": 0.05,
            "loss_rate": 0.05,
            "reads": 800,
            "parallelism": 2,
        },
    ),
    ScenarioSpec(
        name="pinot_ingest_query",
        fn=pinot_ingest_query,
        params={
            "records": 12_000,
            "keys": 20,
            "segment_rows": 1_000,
            "query_rounds": 4,
        },
    ),
    ScenarioSpec(
        name="pinot_selective_query",
        fn=pinot_selective_query,
        params={
            "records": 12_000,
            "keys": 16,
            "segment_rows": 1_000,
            "query_rounds": 4,
            "pruning": True,
            "cache": True,
        },
    ),
    ScenarioSpec(
        name="presto_scan",
        fn=presto_scan,
        params={
            "records": 8_000,
            "keys": 20,
            "segment_rows": 1_000,
            "query_rounds": 4,
        },
    ),
    ScenarioSpec(
        name="presto_federated_join",
        fn=presto_federated_join,
        params={
            "records": 6_000,
            "keys": 12,
            "segment_rows": 500,
            "query_rounds": 6,
        },
    ),
    ScenarioSpec(
        name="controlplane_surge",
        fn=controlplane_surge,
        params={
            "control": True,
            "records": 6_000,
            "segment_rows": 500,
            "users": 2_000_000,
            "base_rps": 10.0,
            "duration": 180.0,
            "spike_start": 60.0,
            "spike_end": 120.0,
            "broker_kill_at": 90.0,
            "broker_restart_at": 125.0,
        },
    ),
)


def scenario_names() -> list[str]:
    return [spec.name for spec in SCENARIOS]
