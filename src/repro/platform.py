"""The Platform facade: one object wiring the whole Figure 3 stack.

Every example and benchmark used to hand-assemble the same ~30 lines:
a :class:`SimulatedClock`, a seeded RNG, a Kafka cluster, a FlinkSQL
compiler, a Pinot controller + broker, a Presto engine over a connector
catalog — and with the observability layer each of those now also wants
the shared :class:`~repro.observability.trace.SpanCollector`.
:class:`Platform` owns the shared clock, RNG and collector and hands out
correctly-wired components; each component keeps its own counts as plain
attributes (``Producer.batches_sent``, ``JobRuntime.checkpoints_aborted``,
``RealtimeIngestion.rows_ingested``, ...)::

    p = (
        Platform(seed=2021)
        .with_kafka(num_brokers=3)
        .with_pinot(servers=3, backup="p2p")
        .with_presto(pushdown="full")
        .topic("rides", partitions=4)
    )
    producer = p.producer("rides-service")
    runtime = p.streaming_sql("SELECT ... FROM rides ...", sink_topic="city_stats")
    table = p.realtime_table(config, topic="city_stats")
    output = p.sql("SELECT ... FROM city_stats ...")
    report = p.freshness("city_stats")

Tracing is on by default (``tracing=False`` turns the whole layer off);
components built outside the facade keep their own independent defaults.
"""

from __future__ import annotations

import random
from typing import Any

from repro.common.clock import SimulatedClock
from repro.common.errors import PlatformError
from repro.flink.graph import JobGraph
from repro.flink.runtime import JobRuntime
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.observability.freshness import FreshnessReport
from repro.observability.slo import SloMonitor, SloTarget
from repro.observability.trace import SpanCollector
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController, TableState
from repro.pinot.recovery import CentralizedBackup, PeerToPeerBackup
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.sql.flinksql import FlinkSqlCompiler, StreamTableDef
from repro.sql.presto.connector import Connector, PinotConnector
from repro.sql.presto.engine import PrestoEngine, QueryOutput
from repro.storage.blobstore import BlobStore


class Platform:
    """Builder/facade over the clock, Kafka, Flink, Pinot and Presto."""

    def __init__(
        self,
        seed: int = 2021,
        name: str = "platform",
        tracing: bool = True,
    ) -> None:
        self.name = name
        self.seed = seed
        self.clock = SimulatedClock(0.0)
        self.rng = random.Random(seed)
        self.tracer: SpanCollector | None = SpanCollector() if tracing else None
        self.slo_monitor = SloMonitor()
        self.kafka: KafkaCluster | None = None
        self.pinot: PinotController | None = None
        self.broker: PinotBroker | None = None
        self.presto: PrestoEngine | None = None
        self.sql_compiler = FlinkSqlCompiler({})
        self.runtimes: list[JobRuntime] = []
        self.checkpoint_store = BlobStore("checkpoints")
        self.segment_store = BlobStore("segments")
        self._presto_catalog: dict[str, Connector] = {}
        self._pushdown = "full"
        self.control_plane = None  # set by with_control_plane()

    # -- builders -----------------------------------------------------------

    def with_kafka(
        self, name: str | None = None, num_brokers: int = 3
    ) -> "Platform":
        self.kafka = KafkaCluster(
            name or f"{self.name}-kafka",
            num_brokers=num_brokers,
            clock=self.clock,
            tracer=self.tracer,
        )
        return self

    def with_pinot(self, servers: int = 3, backup: str = "p2p") -> "Platform":
        if backup == "p2p":
            strategy = PeerToPeerBackup(self.segment_store)
        elif backup == "centralized":
            strategy = CentralizedBackup(self.segment_store)
        else:
            raise PlatformError(
                f"backup must be 'p2p' or 'centralized', got {backup!r}"
            )
        nodes = [PinotServer(f"{self.name}-pinot-{i}") for i in range(servers)]
        self.pinot = PinotController(nodes, strategy, tracer=self.tracer)
        self.broker = PinotBroker(
            self.pinot, clock=self.clock, tracer=self.tracer
        )
        return self

    def with_presto(self, pushdown: str = "full", workers: int = 2) -> "Platform":
        self._pushdown = pushdown
        # Tables registered before this call take the level too, so the
        # builder reads the same in either order.
        for name, connector in self._presto_catalog.items():
            if isinstance(connector, PinotConnector):
                self._presto_catalog[name] = PinotConnector(
                    connector.broker, pushdown=pushdown
                )
        self.presto = PrestoEngine(
            self._presto_catalog,
            clock=self.clock,
            tracer=self.tracer,
            workers=workers,
        )
        return self

    def with_control_plane(self, **knobs: Any) -> "Platform":
        """Attach SLO-tiered admission + cross-layer scaling (§3, §8).

        ``knobs`` pass through to
        :class:`~repro.controlplane.plane.ControlPlane` (targets,
        tier_rates, eval_interval, pressure probe).  After attaching,
        register resources via ``platform.control_plane.watch_*`` and
        route guarded queries through ``control_plane.sql`` /
        ``control_plane.pinot_query``; :meth:`step` evaluates the scaler
        on its cadence and applies Flink/Pinot capacity boosts.
        """
        from repro.controlplane.plane import ControlPlane

        self.control_plane = ControlPlane(self, **knobs)
        return self

    # -- kafka --------------------------------------------------------------

    def _require_kafka(self) -> KafkaCluster:
        if self.kafka is None:
            raise PlatformError("call with_kafka() first")
        return self.kafka

    def topic(self, name: str, partitions: int = 4, **config: Any) -> "Platform":
        self._require_kafka().create_topic(
            name, TopicConfig(partitions=partitions, **config)
        )
        return self

    def producer(
        self, service_name: str = "producer", acks: str = "1", **kwargs: Any
    ) -> Producer:
        return Producer(
            self._require_kafka(),
            service_name=service_name,
            acks=acks,
            clock=self.clock,
            tracer=self.tracer,
            **kwargs,
        )

    # -- flink --------------------------------------------------------------

    def stream_table(
        self,
        name: str,
        topic: str | None = None,
        timestamp_column: str | None = None,
        max_out_of_orderness: float = 0.0,
    ) -> "Platform":
        self.sql_compiler.register_stream_table(
            name,
            StreamTableDef(
                self._require_kafka(),
                topic or name,
                timestamp_column=timestamp_column,
                max_out_of_orderness=max_out_of_orderness,
            ),
        )
        return self

    def job(self, graph: JobGraph) -> JobRuntime:
        """Instantiate a hand-built job graph on the shared infrastructure."""
        runtime = JobRuntime(
            graph,
            blob_store=self.checkpoint_store,
            clock=self.clock,
            tracer=self.tracer,
        )
        self.runtimes.append(runtime)
        return runtime

    def streaming_sql(
        self,
        sql: str,
        sink_topic: str | None = None,
        sink_collector: list | None = None,
        job_name: str | None = None,
        allowed_lateness: float = 0.0,
        parallelism: int = 1,
        sink_transactional: bool = False,
    ) -> JobRuntime:
        """Compile a FlinkSQL query and run it on the shared runtime.

        ``sink_transactional=True`` makes the job's sinks 2PC/exactly-once:
        output is buffered per checkpoint epoch and committed only on
        checkpoint completion, so the job MUST checkpoint regularly (e.g.
        via the chaos harness) or nothing ever reaches the sink.
        """
        kafka = self._require_kafka()
        graph = self.sql_compiler.compile_streaming(
            sql,
            sink_collector=sink_collector,
            sink_kafka=(kafka, sink_topic) if sink_topic is not None else None,
            job_name=job_name,
            allowed_lateness=allowed_lateness,
            parallelism=parallelism,
            sink_transactional=sink_transactional,
        )
        return self.job(graph)

    # -- pinot / presto -----------------------------------------------------

    def _require_pinot(self) -> PinotController:
        if self.pinot is None:
            raise PlatformError("call with_pinot() first")
        return self.pinot

    def realtime_table(self, config: TableConfig, topic: str) -> TableState:
        """Create a Pinot realtime table and expose it to Presto."""
        state = self._require_pinot().create_realtime_table(
            config, self._require_kafka(), topic
        )
        # The Presto catalog dict is shared with the engine, so tables
        # registered after with_presto() are immediately queryable.
        assert self.broker is not None
        self._presto_catalog[config.name] = PinotConnector(
            self.broker, pushdown=self._pushdown
        )
        return state

    def sql(self, query: str) -> QueryOutput:
        if self.presto is None:
            raise PlatformError("call with_presto() first")
        return self.presto.execute(query)

    def explain(self, query: str) -> str:
        """Render the optimized logical plan and stage DAG for ``query``
        without executing it (byte-stable for a given catalog state)."""
        if self.presto is None:
            raise PlatformError("call with_presto() first")
        return self.presto.explain(query)

    # -- driving simulated time --------------------------------------------

    def step(self, dt: float = 1.0, flink_rounds: int = 4) -> None:
        """Advance the platform by ``dt`` simulated seconds.

        One tick of every background loop: the clock advances, followers
        replicate, every registered Flink job runs a few scheduler rounds,
        and every Pinot table ingests one step (plus one backup upload).
        With a control plane attached, its current capacity boosts apply
        (extra Flink rounds for lagging jobs, extra ingest slots for
        lagging tables) and the cross-layer scaler evaluates on its own
        cadence.
        """
        self.clock.advance(dt)
        cp = self.control_plane
        kafka = self.kafka
        if kafka is not None:
            kafka.replicate()
        for runtime in self.runtimes:
            boost = cp.flink_boost(runtime.graph.name) if cp is not None else 1
            runtime.run_rounds(flink_rounds * boost)
        if self.pinot is not None:
            for name, state in self.pinot.tables.items():
                slots = cp.ingest_slots(name) if cp is not None else 1
                state.ingestion.run_step(max_records_per_partition=500 * slots)
            self.pinot.backup.run_step()
        if cp is not None:
            cp.tick(self.clock.now())

    def run_until_caught_up(self) -> None:
        """Drain the pipeline without moving the clock.

        Every registered Flink job runs to quiescence, in registration
        order (so a job feeding a later job's topic drains first), then
        every Pinot table ingests until each partition with a live owner
        has lag zero.
        """
        for runtime in self.runtimes:
            runtime.run_until_quiescent()
        if self.pinot is not None:
            for state in self.pinot.tables.values():
                state.ingestion.run_until_caught_up()

    # -- chaos --------------------------------------------------------------

    def chaos(self, seed: int | None = None) -> "ChaosHarness":
        """A seeded fault scheduler over this platform's components.

        Defaults to the platform seed, so ``Platform(seed=7).chaos()``
        replays byte-identically; pass ``seed`` to explore a different
        fault schedule on the same pipeline.  See
        :class:`repro.chaos.harness.ChaosHarness`.
        """
        from repro.chaos.harness import ChaosHarness

        return ChaosHarness(self, seed=seed)

    # -- observability ------------------------------------------------------

    def freshness(self, table: str) -> FreshnessReport:
        """Append → queryable intervals of ``table``'s rows, read off the
        stored ``ingest`` spans: one sample per row each time it became
        queryable, its ingest time minus its entry's ``append_time``.  A
        row consumed again after its owner was replaced (its consuming
        segment died with the owner) counts again.  Covers what the
        tracer's ring still holds; raises :class:`PlatformError` when
        tracing is off."""
        if self.tracer is None:
            raise PlatformError(
                "freshness is read off the ingest spans; build the Platform "
                "with tracing=True"
            )
        self._require_pinot().table(table)
        return FreshnessReport.from_samples(self.tracer.ingest_durations(table))

    def slo(self, target: SloTarget) -> "Platform":
        self.slo_monitor.add_target(target)
        return self

    def dashboard(self) -> str:
        """Spans-by-hop summary plus the SLO table, as one text block."""
        sections = []
        if self.tracer is not None and self.tracer.span_count():
            sections.append(self.tracer.summary())
            anomalies = self.tracer.anomalies()
            if anomalies:
                sections.append(
                    "TRACE ANOMALIES:\n" + "\n".join(f"  {a}" for a in anomalies)
                )
        if self.slo_monitor.targets():
            sections.append(self.slo_monitor.render())
        return "\n\n".join(sections) if sections else "(no observability data)"
