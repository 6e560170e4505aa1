"""FlinkSQL: compile SQL into Flink jobs (Section 4.2.1, AthenaX).

"The SQL processor compiles the queries to reliable, efficient,
distributed Flink applications ... users of all technical levels can run
their streaming processing applications in production in a span of mere
hours."

Two compilation targets, which is also the paper's backfill story
(Section 7, "SQL based"): the *same* query text compiles to

* a **streaming job** reading a Kafka-backed stream table
  (``compile_streaming``), and
* a **batch job** reading a bounded dataset such as a Hive slice
  (``compile_batch``) — the DataSet-API path,

so the user never maintains two implementations of the logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import SqlPlanError
from repro.flink.graph import JobGraph, StreamEnvironment
from repro.flink.operators import BoundedListSource
from repro.flink.windows import SlidingWindows, TumblingWindows, WindowResult
from repro.kafka.cluster import KafkaCluster
from repro.sql.parser import (
    Column,
    FuncCall,
    HopSpec,
    Select,
    SelectItem,
    Star,
    TableRef,
    TumbleSpec,
    parse,
)
from repro.sql.planner.rowops import bind_aggs, compile_condition


@dataclass
class StreamTableDef:
    """Catalog entry mapping a SQL table name to a Kafka topic."""

    cluster: KafkaCluster
    topic: str
    timestamp_column: str | None = None  # None -> Kafka record event time
    max_out_of_orderness: float = 0.0


class SqlWindowAggregate:
    """Multi-aggregation AggregateFunction compiled from the SELECT list;
    each accumulator slot is one shared aggregate state."""

    def __init__(self, aggs: list[tuple[FuncCall, str | None]]) -> None:
        self._aliases, self._reads, self._rules = bind_aggs(aggs)

    def create_accumulator(self) -> list[Any]:
        return [rule.init() for rule in self._rules]

    def add(self, value: dict[str, Any], accumulator: list[Any]) -> list[Any]:
        return [
            rule.add(state, read(value))
            for rule, read, state in zip(self._rules, self._reads, accumulator)
        ]

    def get_result(self, accumulator: list[Any]) -> dict[str, Any]:
        return {
            alias: rule.final(state)
            for alias, rule, state in zip(self._aliases, self._rules, accumulator)
        }

    def merge(self, a: list[Any], b: list[Any]) -> list[Any]:
        return [rule.merge(sa, sb) for rule, sa, sb in zip(self._rules, a, b)]


class FlinkSqlCompiler:
    """Compiles the SQL dialect into Flink job graphs."""

    def __init__(self, catalog: dict[str, StreamTableDef] | None = None) -> None:
        self.catalog = catalog or {}

    def register_stream_table(self, name: str, definition: StreamTableDef) -> None:
        self.catalog[name] = definition

    # -- streaming target -------------------------------------------------------

    def compile_streaming(
        self,
        sql: str,
        sink_collector: list | None = None,
        sink_kafka: tuple[KafkaCluster, str] | None = None,
        group: str = "flinksql",
        job_name: str | None = None,
        allowed_lateness: float = 0.0,
        parallelism: int = 1,
        sink_transactional: bool = False,
    ) -> JobGraph:
        select = parse(sql)
        source_name = self._source_table(select)
        if source_name not in self.catalog:
            raise SqlPlanError(f"stream table {source_name!r} is not registered")
        definition = self.catalog[source_name]
        env = StreamEnvironment()
        stream = env.from_kafka(
            definition.cluster,
            definition.topic,
            group=group,
            max_out_of_orderness=definition.max_out_of_orderness,
            timestamp_fn=(
                (lambda row, c=definition.timestamp_column: row[c])
                if definition.timestamp_column is not None
                else None
            ),
        )
        stream = self._attach_pipeline(
            select, stream, allowed_lateness, parallelism
        )
        self._attach_sink(
            stream, sink_collector, sink_kafka, transactional=sink_transactional
        )
        return env.build(job_name or f"flinksql-{source_name}")

    # -- batch target (the DataSet path of Section 7) ------------------------------

    def compile_batch(
        self,
        sql: str,
        rows: list[dict[str, Any]],
        sink_collector: list,
        timestamp_column: str | None = None,
        job_name: str | None = None,
    ) -> JobGraph:
        """Compile the same SQL over a bounded dataset (e.g. a Hive scan)."""
        select = parse(sql)
        window = select.window()
        ts_col = timestamp_column or (window.time_column if window else None)
        if ts_col is None:
            raise SqlPlanError(
                "batch compilation needs a timestamp column (explicit or "
                "from the window spec)"
            )
        elements = [(row, float(row[ts_col])) for row in rows]
        env = StreamEnvironment()
        stream = env.add_source(
            BoundedListSource(elements), name="bounded-source"
        )
        stream = self._attach_pipeline(select, stream, 0.0, 1)
        stream.sink_to_list(sink_collector)
        name = job_name or f"flinksql-batch-{self._source_table(select)}"
        return env.build(name)

    # -- shared pipeline construction -------------------------------------------

    def _source_table(self, select: Select) -> str:
        if select.joins:
            raise SqlPlanError("FlinkSQL compilation supports a single stream")
        if not isinstance(select.source, TableRef):
            raise SqlPlanError("FlinkSQL requires a named stream table in FROM")
        return select.source.name

    def _attach_pipeline(
        self,
        select: Select,
        stream,
        allowed_lateness: float,
        parallelism: int,
    ):
        condition = select.where
        if condition is not None:
            stream = stream.filter(compile_condition(condition))
        window = select.window()
        aggs = select.aggregations()
        group_cols = [c.name for c in select.group_columns()]
        if window is None:
            if aggs:
                raise SqlPlanError(
                    "continuous (un-windowed) aggregation is not supported; "
                    "add TUMBLE(...) or HOP(...) to the GROUP BY"
                )
            items = select.items
            return stream.map(lambda row, i=items: _project(i, row))
        if not aggs:
            raise SqlPlanError("windowed query needs aggregate functions")
        if isinstance(window, TumbleSpec):
            assigner = TumblingWindows(window.size)
        elif isinstance(window, HopSpec):
            assigner = SlidingWindows(window.size, window.slide)
        else:  # pragma: no cover - parser only produces the two
            raise SqlPlanError(f"unknown window spec {window!r}")
        key_fn = (lambda row, g=tuple(group_cols): tuple(row[c] for c in g))
        aggregator = SqlWindowAggregate(aggs)
        windowed = (
            stream.key_by(key_fn)
            .window(assigner)
            .allow_lateness(allowed_lateness)
            .aggregate(aggregator, parallelism=parallelism)
        )
        return windowed.map(
            lambda result, g=tuple(group_cols): _flatten_window_result(result, g)
        )

    @staticmethod
    def _attach_sink(
        stream, sink_collector, sink_kafka, transactional: bool = False
    ) -> None:
        if sink_collector is None and sink_kafka is None:
            raise SqlPlanError("a sink (collector or Kafka topic) is required")
        if sink_collector is not None:
            stream.sink_to_list(sink_collector, transactional=transactional)
        if sink_kafka is not None:
            cluster, topic = sink_kafka
            stream.sink_to_kafka(
                cluster,
                topic,
                key_fn=lambda row: row.get("__key__"),
                transactional=transactional,
            )


def _project(items: list[SelectItem], row: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for item in items:
        if isinstance(item.expr, Star):
            out.update(row)
        elif isinstance(item.expr, Column):
            out[item.alias or item.expr.name] = row.get(item.expr.name)
        else:
            raise SqlPlanError(f"unsupported projection {item.expr!r}")
    return out


def _flatten_window_result(
    result: WindowResult, group_cols: tuple[str, ...]
) -> dict[str, Any]:
    """WindowResult -> flat row: group columns, window bounds, aggregates."""
    row: dict[str, Any] = {}
    key = result.key if isinstance(result.key, tuple) else (result.key,)
    for name, value in zip(group_cols, key):
        row[name] = value
    row["window_start"] = result.window.start
    row["window_end"] = result.window.end
    row.update(result.value)
    return row
