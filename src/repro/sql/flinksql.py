"""FlinkSQL: compile SQL into Flink jobs (Section 4.2.1, AthenaX).

"The SQL processor compiles the queries to reliable, efficient,
distributed Flink applications ... users of all technical levels can run
their streaming processing applications in production in a span of mere
hours."

One compilation path, which is also the paper's backfill story
(Section 7, "SQL based"): the *same* query text compiles against a
Kafka-backed stream table (:class:`StreamTableDef`) or a bounded Hive
slice (:class:`HiveTableDef`, Kappa+), so the user never maintains two
implementations of the logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable

from repro.common.errors import SqlPlanError
from repro.flink.graph import DataStream, JobGraph, StreamEnvironment
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
from repro.storage.hive import HiveTable


@dataclass
class StreamTableDef:
    """Catalog entry mapping a SQL table name to a Kafka topic."""

    cluster: KafkaCluster
    topic: str
    timestamp_column: str | None = None  # None -> Kafka record event time
    max_out_of_orderness: float = 0.0

    def source(self, env: StreamEnvironment) -> DataStream:
        return env.from_kafka(
            self.cluster,
            self.topic,
            group="flinksql",
            max_out_of_orderness=self.max_out_of_orderness,
            timestamp_fn=(
                itemgetter(self.timestamp_column)
                if self.timestamp_column is not None
                else None
            ),
        )


@dataclass
class HiveTableDef:
    """Catalog entry mapping a SQL table name to the rows of a Hive table
    with ``start_time <= time_column < end_time`` (Kappa+ backfill)."""

    table: HiveTable
    time_column: str
    start_time: float
    end_time: float

    def source(self, env: StreamEnvironment) -> DataStream:
        return env.from_hive(
            self.table, self.time_column, self.start_time, self.end_time
        )


class SqlWindowAggregate:
    """Multi-aggregation AggregateFunction compiled from the SELECT list;
    each accumulator slot is one shared aggregate state."""

    def __init__(self, aggs: list[tuple[FuncCall, str | None]]) -> None:
        self._aliases, reads, self._rules = bind_aggs(aggs)
        self._adds = [(rule.add, read) for rule, read in zip(self._rules, reads)]

    def create_accumulator(self) -> list[Any]:
        return [rule.init() for rule in self._rules]

    def add(self, value: dict[str, Any], accumulator: list[Any]) -> list[Any]:
        """Fold one row into ``accumulator`` in place; it is returned."""
        for i, (add, read) in enumerate(self._adds):
            accumulator[i] = add(accumulator[i], read(value))
        return accumulator

    def get_result(self, accumulator: list[Any]) -> dict[str, Any]:
        return {
            alias: rule.final(state)
            for alias, rule, state in zip(self._aliases, self._rules, accumulator)
        }

    def merge(self, a: list[Any], b: list[Any]) -> list[Any]:
        return [rule.merge(sa, sb) for rule, sa, sb in zip(self._rules, a, b)]


class FlinkSqlCompiler:
    """Compiles the SQL dialect into Flink job graphs."""

    def __init__(
        self, catalog: dict[str, StreamTableDef | HiveTableDef] | None = None
    ) -> None:
        self.catalog = catalog or {}

    def register_stream_table(
        self, name: str, definition: StreamTableDef | HiveTableDef
    ) -> None:
        self.catalog[name] = definition

    def compile_streaming(
        self,
        sql: str,
        sink_collector: list | None = None,
        sink_kafka: tuple[KafkaCluster, str] | None = None,
        job_name: str | None = None,
        allowed_lateness: float = 0.0,
        parallelism: int = 1,
        sink_transactional: bool = False,
    ) -> JobGraph:
        select = parse(sql)
        source_name = self._source_table(select)
        if source_name not in self.catalog:
            raise SqlPlanError(f"stream table {source_name!r} is not registered")
        env = StreamEnvironment()
        stream = self.catalog[source_name].source(env)
        stream = self._attach_pipeline(
            select, stream, allowed_lateness, parallelism
        )
        self._attach_sink(
            stream, sink_collector, sink_kafka, transactional=sink_transactional
        )
        return env.build(job_name or f"flinksql-{source_name}")

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
        aggregator = SqlWindowAggregate(aggs)
        windowed = (
            stream.key_by(_group_key(group_cols))
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


def _group_key(group_cols: list[str]) -> Callable[[dict[str, Any]], tuple]:
    """``row -> tuple of its group-column cells``, built without a
    per-row generator: ``itemgetter`` already returns a tuple for two or
    more columns."""
    if not group_cols:
        return lambda row: ()
    if len(group_cols) == 1:
        column = group_cols[0]
        return lambda row: (row[column],)
    return itemgetter(*group_cols)


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
