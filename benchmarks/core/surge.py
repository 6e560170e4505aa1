"""The million-user surge experiment: the control plane end to end.

One deterministic simulation exercises every control-plane mechanism at
once, against the ablation (``control=False``) that proves each is doing
work:

* a **stable serving table** (``rides``) is fully ingested and sealed
  before the first query, so the *results* of every admitted query are a
  pure function of the request — byte-identical between the controlled
  run and the unthrottled ablation (the admission-equivalence property);
* a **telemetry firehose** (its own topic + Pinot table + Flink
  windowing job) carries the surge's *write* load.  It is never queried
  by the digested workload, so the controller may expand its Kafka
  partitions, boost its ingest slots, add Pinot servers and boost the
  Flink job freely without perturbing query results;
* a :class:`~benchmarks.core.workload.SurgeWorkload` drives millions
  of distinct users through skewed/diurnal arrivals with a spike that
  pushes the serving layer far past capacity;
* admitted queries execute for real (broker scatter/gather or Presto
  over the connector) and flow through **two** queue models.  The
  *reference* queue prices every query by a routing-invariant planning
  estimate (:meth:`PinotBroker.estimate_rows` docs) and drives all
  decision-relevant state — admission pressure, the p99 guard, the
  worker scaler — so sticky routing and every cache are invisible in
  the decision log, byte for byte.  The *serving* queue prices each
  query by the work it counted (:data:`SERVICE_PRICE_US`), with sticky
  per-user worker subsets, and feeds the per-tier SLO report: that is
  where locality and scan sharing actually show up as lower latency;
* mid-spike **chaos**: a Kafka broker dies (and later restarts) in both
  the controlled run and the ablation, so the controller must scale
  while the write path is degraded.

The returned :class:`SurgeReport` carries per-tier latency percentiles,
per-request result digests and the rendered decision log; the bench
scenario and the property tests consume it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.common.clock import SimulatedClock
from repro.common.epochcache import combined_stats
from repro.common.perf import measured
from repro.common.rng import seeded_rng
from repro.common.serde import digest
from repro.controlplane.admission import (
    TIER_QUERY_SLOS,
    AdmissionController,
    DecisionLog,
)
from repro.controlplane.scaler import CrossLayerController, ResourcePolicy

from benchmarks.core.queueing import QueryQueue
from benchmarks.core.workload import SurgeSpike, SurgeWorkload, UserPopulation

#: Queue-pressure thresholds (queued seconds per worker) for the fast
#: shedding loop: crossing entry ``i`` forces shed level ``i + 1``.
PRESSURE_LEVELS = (0.25, 0.5, 1.0)

DEFAULT_PARAMS = {
    "control": True,
    # serving table
    "records": 6_000,
    "keys": 12,
    "segment_rows": 500,
    # population + arrivals
    "users": 2_000_000,
    "skew": 1.1,
    "base_rps": 10.0,
    "duration": 180.0,
    "spike_start": 60.0,
    "spike_end": 120.0,
    "spike_multiplier": 6.0,
    "param_space": 4096,
    # capacity model
    "workers": 4,
    "max_workers": 32,
    "service_floor_s": 0.02,
    "service_us_scale": 2.0e-4,  # sim seconds per priced microsecond
    # reference-queue pricing: priced microseconds per estimated doc
    # (routing- and cache-invariant, so decisions never see stickiness).
    # The two are sized together: their product is the reference price of
    # a doc in sim seconds, which the decision log is a function of, and
    # the scale alone is how far past capacity the counted work puts the
    # spike.  The segment kernel counts a quarter less work per doc than
    # when the pair was 1.5e-4 x 0.55; same product, same decisions.
    "service_est_us_per_row": 0.4125,
    # sticky per-user worker subsets of the serving queue
    "queue_subset": 2,
    "queue_spill_s": 0.25,
    # background cadence
    "telemetry_rps_factor": 6.0,
    "eval_interval": 2.0,
    "broker_kill_at": 90.0,
    "broker_restart_at": 125.0,
}


#: Serving-queue pricing: simulated microseconds of service time per
#: counted operation, for exactly the counters an admitted query can move.
#: A simulation parameter like ``service_floor_s`` above, not a measurement
#: of anything; a query that moves a counter missing here is a ``KeyError``,
#: so new query-path work gets priced deliberately rather than by default.
SERVICE_PRICE_US = {
    "kafka.key_hashes": 2.0,
    "pinot.cache_hits": 1.0,
    "pinot.cache_misses": 0.4,
    "pinot.cache_row_copies": 0.2,
    "pinot.cell_reads": 0.8,
    "pinot.cells_decoded": 0.15,
    "pinot.code_filter_evals": 0.1,
    "pinot.filter_evals": 0.5,
    "pinot.scanshare_docs_served": 0.02,
    "pinot.scanshare_hits": 0.6,
    "pinot.scanshare_misses": 0.3,
    "pinot.segments_pruned": 0.05,
    "pinot.segments_scanned": 0.05,
    "pinot.zonemap_checks": 0.3,
    "presto.artifact_rows_copied": 0.2,
    "presto.stage_artifact_hits": 1.0,
    "presto.stage_executions": 0.5,
}


def _rows_digest(rows: list[dict]) -> int:
    return digest(sorted(tuple(sorted(row.items())) for row in rows))


@dataclass(frozen=True)
class SurgeReport:
    """Everything the bench and the property tests assert on."""

    requests: int
    admitted: int
    shed: int
    scale_actions: int
    sim_s: float
    #: use_case -> {"p": percentile, "latency": observed, "target": s,
    #: "met": bool, "count": n}
    per_tier: dict
    #: request_id -> digest of the admitted query's (sorted) result rows
    query_digests: dict
    decision_log: str
    #: Cache-effectiveness observability: the three cache tiers in the one
    #: ``EpochCache.stats()`` shape (the broker's with a per-tier split
    #: beside it) plus the sticky queue's counts.  Diagnostic only — like
    #: ``per_tier`` it is deliberately outside ``check``, which covers
    #: exactly the state that must not depend on where a query ran.
    cache_stats: dict = field(default_factory=dict)

    @property
    def check(self) -> int:
        return digest(
            [
                self.admitted,
                self.shed,
                sorted(self.query_digests.items()),
                self.decision_log,
            ]
        )


def _build_rides(params: dict, seed: int, clock, kafka, controller):
    """Seed and fully ingest the stable serving table before the surge."""
    from repro.kafka.cluster import TopicConfig
    from repro.kafka.producer import Producer
    from repro.metadata.schema import Field, FieldRole, FieldType, Schema
    from repro.pinot.segment import IndexConfig
    from repro.pinot.table import TableConfig

    kafka.create_topic(
        "rides", TopicConfig(partitions=4, replication_factor=2)
    )
    producer = Producer(kafka, "rides-service", clock=clock)
    rng = seeded_rng(seed, "controlplane.surge.rides")
    cities = [f"city-{i}" for i in range(params["keys"])]
    schema = Schema(
        "rides",
        (
            Field("city", FieldType.STRING),
            Field("status", FieldType.STRING),
            Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )
    for __ in range(params["records"]):
        clock.advance(0.001)
        row = {
            "city": cities[rng.randrange(len(cities))],
            "status": rng.choice(["ok", "late", "cancelled"]),
            "amount": float(rng.randrange(100)),
            "ts": clock.now(),
        }
        producer.send("rides", row, key=row["city"])
    producer.flush()
    state = controller.create_realtime_table(
        TableConfig(
            "rides",
            schema,
            time_column="ts",
            index_config=IndexConfig(inverted=frozenset({"city"})),
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
            p.blocked() for p in state.ingestion.partitions.values()
        ):
            break
    return state, cities


def _build_telemetry(params: dict, clock, kafka, controller):
    """The surge's write-side: topic, Pinot table, Flink windowing job."""
    from repro.flink.graph import StreamEnvironment
    from repro.flink.operators import KafkaSource
    from repro.flink.runtime import JobRuntime
    from repro.flink.windows import SumAggregate, TumblingWindows
    from repro.kafka.cluster import TopicConfig
    from repro.metadata.schema import Field, FieldRole, FieldType, Schema
    from repro.pinot.table import TableConfig

    kafka.create_topic(
        "telemetry", TopicConfig(partitions=2, replication_factor=2)
    )
    schema = Schema(
        "telemetry",
        (
            Field("city", FieldType.STRING),
            Field("driver", FieldType.STRING),
            Field("speed", FieldType.DOUBLE, FieldRole.METRIC),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        ),
    )
    state = controller.create_realtime_table(
        TableConfig(
            "telemetry",
            schema,
            time_column="ts",
            segment_rows_threshold=2_000,
        ),
        kafka,
        "telemetry",
    )
    env = StreamEnvironment()
    out: list = []
    env.add_source(
        KafkaSource(kafka, "telemetry", group="surge-cp"), name="telemetry-src"
    ) \
        .key_by(lambda v: v["city"]) \
        .window(TumblingWindows(5.0)) \
        .aggregate(SumAggregate(lambda v: v["speed"])) \
        .sink_to_list(out)
    runtime = JobRuntime(env.build("telemetry-agg"), clock=clock)
    return state, runtime


def _exploration_floor(param: int) -> float:
    """The exploration tier's amount floor for one request param (shared
    with the reference-queue estimate, which must price the same scan)."""
    return ((param >> 4) % 180) / 2.0


def _query_for(request, cities, span_end: float):
    """The deterministic per-tier query template for one request.

    Every template reads only the sealed ``rides`` table and avoids
    row-limit truncation, so the result is a pure function of
    ``(use_case, param)`` — the admission-equivalence invariant.
    """
    from repro.pinot.query import Aggregation, Filter, PinotQuery

    # Filter constants are drawn from *independent* bit slices of the
    # request param: the city from the low bits, the time window from a
    # 64-step grid on bits 5..10 (dashboards round their windows to
    # bucket boundaries).  Distinct users therefore still ask distinct
    # questions — the broker result cache sees a realistic Zipf-skewed
    # hit rate, not the whole surge — while the *predicates* repeat
    # across cities and users, which is precisely the sharing the
    # per-server scan-share cache monetizes under sticky routing.
    wslot = (request.param >> 5) % 64
    city = cities[request.param % len(cities)]
    if request.use_case == "surge_pricing":
        lo = span_end * (0.35 + 0.6 * wslot / 64)
        return PinotQuery(
            table="rides",
            aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
            filters=[
                Filter("city", "=", city),
                Filter("ts", "BETWEEN", low=lo, high=span_end),
            ],
        )
    if request.use_case == "eats_dashboard":
        return PinotQuery(
            table="rides",
            aggregations=[Aggregation("SUM", "amount"), Aggregation("COUNT")],
            filters=[
                Filter("city", "=", city),
                Filter(
                    "ts", "BETWEEN", low=span_end * 0.7 * wslot / 64, high=span_end
                ),
            ],
            group_by=["status"],
            limit=100,
        )
    if request.use_case == "ads_attribution":
        lo = span_end * 0.85 * wslot / 64
        width = span_end * 0.15
        return PinotQuery(
            table="rides",
            aggregations=[Aggregation("COUNT"), Aggregation("AVG", "amount")],
            filters=[Filter("ts", "BETWEEN", low=lo, high=min(lo + width, span_end))],
        )
    # exploration: federated SQL through Presto (pushdown to the broker).
    floor = _exploration_floor(request.param)
    return (
        f"SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM rides "
        f"WHERE amount >= {floor} GROUP BY city"
    )


def run_surge(params: dict, seed: int) -> SurgeReport:
    """Run the surge simulation; see the module docstring."""
    from repro.kafka.cluster import KafkaCluster
    from repro.kafka.producer import Producer
    from repro.observability.slo import SloMonitor
    from repro.pinot.broker import PinotBroker
    from repro.pinot.controller import PinotController
    from repro.pinot.recovery import PeerToPeerBackup
    from repro.pinot.server import PinotServer
    from repro.pinot.query import Filter
    from repro.sql.presto.connector import PinotConnector
    from repro.sql.presto.engine import PrestoEngine
    from repro.storage.blobstore import BlobStore

    merged = dict(DEFAULT_PARAMS)
    merged.update(params)
    params = merged
    control = bool(params["control"])

    clock = SimulatedClock()
    kafka = KafkaCluster("surge", 3, clock=clock)
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)], PeerToPeerBackup(BlobStore())
    )

    rides, cities = _build_rides(params, seed, clock, kafka, controller)
    telemetry, flink = _build_telemetry(params, clock, kafka, controller)
    span_end = clock.now()
    broker = PinotBroker(controller, clock=clock)
    engine = PrestoEngine(
        {"rides": PinotConnector(broker, pushdown="full")},
        clock=clock,
        workers=params["workers"],
    )
    # Reference queue: estimate-priced, decision-driving (pressure,
    # p99 feedback, worker scaling), submitted to without a key.
    # Serving queue: measured-cost, sticky per-user subsets,
    # SLO-report-driving.  See module doc.
    ref_queue = QueryQueue(workers=params["workers"])
    serving_queue = QueryQueue(
        workers=params["workers"],
        subset_size=params["queue_subset"],
        spill_threshold_s=params["queue_spill_s"],
    )
    log = DecisionLog()
    slo = SloMonitor(TIER_QUERY_SLOS)

    # -- the control plane (absent in the ablation) ---------------------
    now_cell = {"t": 0.0}
    flink_boost = {"units": 1}
    ingest_slots = {"units": 1}
    admission = None
    scaler = None
    if control:
        admission = AdmissionController(
            hold_s=params["eval_interval"],
            pressure=lambda: ref_queue.backlog_per_worker(now_cell["t"]),
            pressure_levels=PRESSURE_LEVELS,
            log=log,
        )
        scaler = CrossLayerController(log=log)
        scaler.add_policy(
            ResourcePolicy(
                name="presto.workers",
                signal=lambda: ref_queue.backlog_per_worker(now_cell["t"]),
                current=lambda: ref_queue.workers,
                apply=lambda n: (
                    ref_queue.set_workers(n),
                    serving_queue.set_workers(n),
                    setattr(engine.scheduler, "workers", n),
                ),
                scale_up_threshold=0.2,
                scale_down_threshold=0.02,
                min_units=params["workers"],
                max_units=params["max_workers"],
                cooldown_s=2 * params["eval_interval"],
                stable_evals=4,
            )
        )
        produce_rate = {"last_total": 0.0, "last_t": 0.0}

        def telemetry_rate_per_partition() -> float:
            count = kafka.partition_count("telemetry")
            total = float(sum(kafka.end_offset("telemetry", p) for p in range(count)))
            now = now_cell["t"]
            dt = now - produce_rate["last_t"]
            rate = (total - produce_rate["last_total"]) / dt if dt > 0 else 0.0
            produce_rate["last_total"] = total
            produce_rate["last_t"] = now
            return rate / count

        scaler.add_policy(
            ResourcePolicy(
                name="kafka.telemetry.partitions",
                signal=telemetry_rate_per_partition,
                current=lambda: kafka.partition_count("telemetry"),
                apply=lambda n: kafka.expand_partitions(
                    "telemetry", n - kafka.partition_count("telemetry")
                ),
                scale_up_threshold=30.0,  # records/s per partition
                scale_down_threshold=None,  # kafka cannot shrink
                max_units=8,
                cooldown_s=5 * params["eval_interval"],
            )
        )
        scaler.add_policy(
            ResourcePolicy(
                name="pinot.telemetry.ingest_slots",
                signal=lambda: float(telemetry.ingestion.lag()),
                current=lambda: ingest_slots["units"],
                apply=lambda n: ingest_slots.update(units=n),
                scale_up_threshold=200.0,
                scale_down_threshold=20.0,
                max_units=8,
                cooldown_s=2 * params["eval_interval"],
                stable_evals=4,
            )
        )
        pinot_pool = {"target": len(controller.servers)}

        def grow_pinot_pool(n: int) -> None:
            while len(controller.servers) < n:
                controller.add_server(PinotServer(f"s-auto-{len(controller.servers)}"))
            pinot_pool["target"] = n

        scaler.add_policy(
            ResourcePolicy(
                name="pinot.servers",
                signal=lambda: float(telemetry.ingestion.lag()),
                current=lambda: pinot_pool["target"],
                scale_up_threshold=800.0,
                scale_down_threshold=None,  # joins are sticky here
                apply=grow_pinot_pool,
                max_units=6,
                cooldown_s=5 * params["eval_interval"],
            )
        )
        scaler.add_flink_job(
            "telemetry-agg",
            lag=lambda: float(flink.total_source_lag()),
            state_bytes=lambda: float(flink.total_state_bytes()),
            current=lambda: flink_boost["units"],
            apply=lambda n: flink_boost.update(units=n),
        )
        scaler.autoscaler.scale_up_lag_threshold = 300
        scaler.flink_cooldown_s = 2 * params["eval_interval"]

    # -- the surge ------------------------------------------------------
    workload = SurgeWorkload(
        seed=seed,
        population=UserPopulation(params["users"], skew=params["skew"]),
        base_rps=params["base_rps"],
        duration=params["duration"],
        spike=SurgeSpike(
            params["spike_start"],
            params["spike_end"],
            params["spike_multiplier"],
        ),
        param_space=params["param_space"],
    )
    telemetry_producer = Producer(kafka, "telemetry-service", clock=clock)
    telemetry_rng = seeded_rng(seed, "controlplane.surge.telemetry")
    start = clock.now()
    next_bg = 0.0
    next_eval = params["eval_interval"]
    killed = restarted = False
    completions: list[tuple[float, int, str, float]] = []
    ref_completions: list[tuple[float, int, str, float]] = []
    digests: dict[str, int] = {}
    tier_cache: dict[str, list[int]] = {}  # tier -> [hits, lookups]
    requests = admitted = shed = 0
    seq = 0
    scale_actions = {"n": 0}

    def background_tick(t: float) -> None:
        nonlocal killed, restarted, next_eval
        # surge telemetry: the write load tracks the arrival intensity
        count = int(workload.rate(t) * params["telemetry_rps_factor"])
        for __ in range(count):
            city = cities[telemetry_rng.randrange(len(cities))]
            telemetry_producer.send(
                "telemetry",
                {
                    "city": city,
                    "driver": f"d-{telemetry_rng.randrange(100_000):06d}",
                    "speed": float(telemetry_rng.randrange(140)),
                    "ts": clock.now(),
                },
                key=city,
            )
        telemetry_producer.flush()
        kafka.replicate()
        if not killed and t >= params["broker_kill_at"]:
            kafka.kill_broker(1)
            killed = True
        if killed and not restarted and t >= params["broker_restart_at"]:
            kafka.restart_broker(1)
            restarted = True
        telemetry.ingestion.run_step(
            max_records_per_partition=100 * ingest_slots["units"]
        )
        controller.backup.run_step()
        flink.run_rounds(flink_boost["units"], budget_per_task=200)
        if control and t >= next_eval:
            now_cell["t"] = t
            scale_actions["n"] += scaler.evaluate(t)
            next_eval += params["eval_interval"]

    def drain_completions(upto: float) -> None:
        # Serving completions (measured, sticky) -> the SLO report;
        # reference completions (estimated, routing-invariant) -> the
        # admission p99 guard, so shed decisions can't see routing.
        while completions and completions[0][0] <= upto:
            __, __, use_case, latency = heapq.heappop(completions)
            target = next(s for s in TIER_QUERY_SLOS if s.use_case == use_case)
            slo.observe(use_case, target.metric, latency)
        while ref_completions and ref_completions[0][0] <= upto:
            done_t, __, use_case, latency = heapq.heappop(ref_completions)
            if admission is not None:
                admission.observe_latency(use_case, latency, done_t)

    for request in workload.requests():
        t = request.arrival_time
        while next_bg <= t:
            clock.advance(start + next_bg - clock.now())
            background_tick(next_bg)
            next_bg += 1.0
        drain_completions(t)
        requests += 1
        now_cell["t"] = t
        if admission is not None and not admission.admit(request).admitted:
            shed += 1
            continue
        admitted += 1
        query = _query_for(request, cities, span_end)
        # Reference price: planning-time cardinality bound, identical
        # whichever replica serves the query and whatever the caches
        # hold.  The exploration SQL's only broker-visible predicate
        # is its amount floor.
        if isinstance(query, str):
            est_filters = [Filter("amount", ">=", _exploration_floor(request.param))]
        else:
            est_filters = list(query.filters)
        est_docs, __ = broker.estimate_rows("rides", est_filters)
        est_service_s = (
            params["service_floor_s"]
            + est_docs * params["service_est_us_per_row"] * params["service_us_scale"]
        )
        # The pricing window is a nested section: ``moved`` holds what
        # this query counted, and an enclosing section still gets it.
        with measured() as window:
            if isinstance(query, str):
                rows = engine.execute(query).rows
            else:
                rows = broker.execute(query).rows
            moved = window.counts
        cost_us = sum(n * SERVICE_PRICE_US[name] for name, n in moved.items())
        tier = tier_cache.setdefault(request.use_case, [0, 0])
        hits = moved.get("pinot.cache_hits", 0)
        tier[0] += hits
        tier[1] += hits + moved.get("pinot.cache_misses", 0)
        service_s = params["service_floor_s"] + cost_us * params["service_us_scale"]
        seq += 1
        __, ref_completion = ref_queue.submit(t, est_service_s)
        heapq.heappush(
            ref_completions,
            (ref_completion, seq, request.use_case, ref_completion - t),
        )
        __, completion = serving_queue.submit(
            t, service_s, key=request.user_id, tier=request.use_case
        )
        heapq.heappush(completions, (completion, seq, request.use_case, completion - t))
        digests[request.request_id] = _rows_digest(rows)
    while next_bg <= params["duration"]:
        clock.advance(start + next_bg - clock.now())
        background_tick(next_bg)
        next_bg += 1.0
    drain_completions(float("inf"))

    per_tier = {}
    for ev in slo.evaluate():
        per_tier[ev.target.use_case] = {
            "p": ev.target.percentile,
            "latency": ev.observed,
            "target": ev.target.target_seconds,
            "met": bool(ev.met),
            "count": ev.sample_count,
        }

    def _rate(hits: int, lookups: int) -> float:
        return hits / lookups if lookups else 0.0

    cache_stats = {
        "broker": {
            **broker.cache.stats(),
            "per_tier": {
                tier: {"hits": h, "lookups": n, "hit_rate": _rate(h, n)}
                for tier, (h, n) in sorted(tier_cache.items())
            },
        },
        "scan_share": combined_stats(s.scan_cache for s in controller.servers),
        "stage_artifacts": engine.scheduler.artifact_stats(),
        "queue": {
            "sticky_submits": serving_queue.sticky_submits,
            "spills": serving_queue.spills,
        },
    }
    return SurgeReport(
        requests=requests,
        admitted=admitted,
        shed=shed,
        scale_actions=scale_actions["n"],
        sim_s=clock.now(),
        per_tier=per_tier,
        query_digests=digests,
        decision_log=log.render(),
        cache_stats=cache_stats,
    )
