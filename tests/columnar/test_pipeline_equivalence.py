"""Seeded end-to-end equivalence: column-fed pipelines vs row-fed ones.

For the same seeded workload, the vectorized pipeline — columnar Flink
sources and window kernels, chunked Kafka transport into Pinot — must
produce results identical to the same pipeline fed row by row,
including late/out-of-order data and null-bearing rows.  Past ingestion
there is one query path (pages from the segment scan to the engine's
kernels), so the Presto tests compare the two *feeds* and pin what that
one path ships.
"""

from __future__ import annotations

from repro.columnar import pages_to_rows
from repro.common.clock import SimulatedClock
from repro.common.perf import PERF, measured
from repro.common.rng import seeded_rng
from repro.flink.graph import StreamEnvironment
from repro.flink.operators import BoundedColumnarSource, BoundedListSource
from repro.flink.runtime import JobRuntime
from repro.flink.windows import AvgAggregate, SumAggregate, TumblingWindows
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.query import PinotQuery
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.sql.presto.connector import PinotConnector
from repro.sql.presto.engine import PrestoEngine
from repro.storage.blobstore import BlobStore


def window_results(columnar: bool, aggregate, lateness: float = 2.0):
    """Run one keyed tumbling-window job; late data included by design."""
    rng = seeded_rng(77, "pipeline.flink")
    rows, timestamps = [], []
    for i in range(600):
        ts = i * 0.05
        if rng.random() < 0.15:
            ts = max(0.0, ts - rng.random() * lateness)  # late arrival
        rows.append(
            {
                "city": f"c{rng.randrange(8)}",
                "amount": float(rng.randrange(50)),
                # A null-bearing carried column: rides through the keyed
                # exchange (validity bitmaps in the columnar plane) even
                # though the aggregate never reads it.
                "note": None if i % 9 == 0 else f"n{i % 4}",
            }
        )
        timestamps.append(ts)
    env = StreamEnvironment()
    out: list = []
    if columnar:
        source = BoundedColumnarSource(
            columns={
                "city": [r["city"] for r in rows],
                "amount": [r["amount"] for r in rows],
                "note": [r["note"] for r in rows],
            },
            timestamps=timestamps,
            max_out_of_orderness=lateness,
            batch_size=64,
        )
    else:
        source = BoundedListSource(
            list(zip(rows, timestamps)),
            max_out_of_orderness=lateness,
            batch_size=64,
        )
    env.add_source(source, name="src", parallelism=2) \
        .key_by("city") \
        .window(TumblingWindows(1.0)) \
        .aggregate(aggregate) \
        .sink_to_list(out)
    runtime = JobRuntime(env.build("equiv"), clock=SimulatedClock())
    while runtime.run_rounds(1, budget_per_task=200):
        pass
    return sorted((r.key, r.window.start, r.value) for r in out)


class TestFlinkWindowEquivalence:
    def test_sum_with_late_data_and_null_column(self):
        row = window_results(False, SumAggregate("amount"))
        col = window_results(True, SumAggregate("amount"))
        assert row == col
        assert row  # the job produced windows

    def test_avg_with_late_data(self):
        row = window_results(False, AvgAggregate("amount"))
        col = window_results(True, AvgAggregate("amount"))
        assert row == col


def build_pinot(columnar_transport: bool):
    clock = SimulatedClock()
    kafka = KafkaCluster("test", 3, clock=clock)
    kafka.create_topic("metrics", TopicConfig(partitions=2))
    producer = Producer(kafka, "test", clock=clock)
    rng = seeded_rng(13, "pipeline.presto")
    rows = [
        {
            "city": f"city-{rng.randrange(5)}",
            "status": rng.choice(["ok", "late", None]),
            "amount": float(rng.randrange(100)),
            "ts": (i + 1) * 0.25,
        }
        for i in range(400)
    ]
    if columnar_transport:
        from repro.columnar import ColumnBatch

        for start in range(0, len(rows), 80):
            part = rows[start : start + 80]
            batch = ColumnBatch.from_columns(
                {
                    name: [row[name] for row in part]
                    for name in ("city", "status", "amount", "ts")
                }
            )
            producer.send_columnar(
                "metrics",
                batch,
                key_column="city",
                event_times=[row["ts"] for row in part],
            )
    else:
        for row in rows:
            producer.send("metrics", row, key=row["city"])
    producer.flush()
    schema = Schema(
        "metrics",
        (
            Field("city", FieldType.STRING),
            Field("status", FieldType.STRING),
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
            "metrics", schema, time_column="ts", segment_rows_threshold=100
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


SQL = (
    "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM metrics "
    "WHERE status = 'ok' GROUP BY city ORDER BY total DESC LIMIT 3"
)


class TestPrestoEquivalence:
    def test_columnar_pipeline_matches_row_pipeline(self):
        row_clock, row_broker = build_pinot(columnar_transport=False)
        col_clock, col_broker = build_pinot(columnar_transport=True)
        row_engine = PrestoEngine(
            {"metrics": PinotConnector(row_broker, pushdown="predicate")},
            clock=row_clock,
        )
        col_engine = PrestoEngine(
            {"metrics": PinotConnector(col_broker, pushdown="predicate")},
            clock=col_clock,
        )
        row_out = row_engine.execute(SQL)
        col_out = col_engine.execute(SQL)
        assert row_out.rows == col_out.rows
        assert row_out.rows  # real results, not vacuous equality

    def test_columnar_scan_really_ships_pages(self):
        clock, broker = build_pinot(columnar_transport=True)
        engine = PrestoEngine(
            {"metrics": PinotConnector(broker, pushdown="predicate")},
            clock=clock,
        )
        with measured():
            engine.execute(SQL)
            counters = PERF.snapshot()
        # Pages were gathered at the segment scan and aggregated by the
        # vectorized kernel — no row materialization before the sink.
        assert counters.get("columnar.cells_gathered", 0) > 0
        assert counters.get("columnar.agg_rows", 0) > 0
        assert counters.get("columnar.rows_adapted", 0) == 0

    def test_row_only_connector_unaffected_by_planner_request(self):
        # A connector that answers in rows needs no flag to stay that
        # way: the engine takes pages only when a scan returns them.
        class RowOnly(PinotConnector):
            def scan(self, request):
                result = super().scan(request)
                result.rows, result.pages = result.as_rows(), None
                return result

        clock, broker = build_pinot(columnar_transport=True)
        paged = PrestoEngine(
            {"metrics": PinotConnector(broker, pushdown="predicate")}, clock=clock
        )
        row_only = PrestoEngine(
            {"metrics": RowOnly(broker, pushdown="predicate")}, clock=clock
        )
        with measured():
            out = row_only.execute(SQL)
            counters = PERF.snapshot()
        assert len(out.rows) == 3
        assert out.rows == paged.execute(SQL).rows
        assert counters.get("columnar.agg_rows", 0) == 0  # the row operators ran
        assert counters.get("presto.agg_rows", 0) > 0


class TestBrokerPages:
    def test_selection_pages_cached_and_served_zero_copy(self):
        clock, broker = build_pinot(columnar_transport=True)
        query = PinotQuery(
            table="metrics",
            select_columns=["city", "amount"],
            limit=0,
        )
        first = broker.execute(query)
        assert first.pages
        again = broker.execute(query)
        assert again.cache_hit
        assert again.pages
        assert all(a is b for a, b in zip(again.pages, first.pages))  # shared
        assert again.pages is not first.pages  # but not the caller's list
        assert again.rows == first.rows == pages_to_rows(first.pages)
        assert len(again.rows) == 400

    def test_order_by_falls_back_to_rows(self):
        clock, broker = build_pinot(columnar_transport=True)
        query = PinotQuery(
            table="metrics",
            select_columns=["city", "amount"],
            order_by=[("amount", True)],
            limit=5,
        )
        result = broker.execute(query)
        assert result.rows and not result.pages
        assert len(result.rows) == 5
