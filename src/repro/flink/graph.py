"""Job graph and the fluent DataStream-style builder API.

This is the "low-level API" surface of Section 4.2 that advanced users
program against (FlinkSQL compiles to it, Section 4.2.1).  A
:class:`StreamEnvironment` accumulates operator specs; ``build()``
validates and returns an immutable :class:`JobGraph` that the runtime
instantiates.  A job reads a Kafka topic (``from_kafka``) or a bounded
Hive slice (``from_hive``, Kappa+ backfill, Section 7) with the same
downstream code.

Example::

    env = StreamEnvironment()
    env.from_kafka(cluster, "trips", group="surge") \\
       .key_by(lambda trip: trip["hex_id"]) \\
       .window(TumblingWindows(60)) \\
       .aggregate(CountAggregate()) \\
       .sink_to_list(results)
    job_graph = env.build("demand-counter")
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable

from repro.common.errors import BackfillError, JobValidationError
from repro.common.relational import Predicate
from repro.flink.windows import AggregateFunction, WindowAssigner

Partitioning = str  # 'forward' | 'hash' | 'rebalance' | 'broadcast'


@dataclass
class OperatorSpec:
    """One node of the job graph."""

    op_id: str
    # source | map | filter | flat_map | window | join | interval_join |
    # sink | process
    kind: str
    parallelism: int = 1
    # operator payloads (exactly the ones the kind uses):
    fn: Callable | None = None
    key_fn: Callable | None = None
    assigner: WindowAssigner | None = None
    aggregator: AggregateFunction | None = None
    allowed_lateness: float = 0.0
    source: Any = None  # SourceFunction for kind == 'source'
    sink: Any = None  # SinkFunction for kind == 'sink'
    join_key_fns: tuple[Callable, Callable] | None = None
    join_fn: Callable | None = None
    # Interval joins (kind == 'interval_join'): pair (left, right) iff
    # ``left.ts - right.ts ∈ [join_lower, join_upper]``.  state_ttl
    # extends buffered-entry retention past the join horizon;
    # spill_budget_bytes arms the operator's spill-pressure signal.
    join_lower: float | None = None
    join_upper: float | None = None
    state_ttl: float | None = None
    spill_budget_bytes: int | None = None
    # Exactly-once sinks (kind == 'sink' only): writes are buffered per
    # checkpoint epoch and two-phase committed on checkpoint completion
    # instead of written eagerly.  Without checkpoints nothing commits, so
    # a transactional sink only makes sense on a checkpointed job.
    transactional: bool = False


@dataclass
class Edge:
    src: str
    dst: str
    partitioning: Partitioning = "forward"
    # For joins: which logical input of dst this edge feeds (0 or 1).
    input_index: int = 0


@dataclass
class JobGraph:
    """Validated, immutable description of a streaming job."""

    name: str
    operators: dict[str, OperatorSpec]
    edges: list[Edge]

    def downstream_of(self, op_id: str) -> list[Edge]:
        return [e for e in self.edges if e.src == op_id]

    def sources(self) -> list[OperatorSpec]:
        return [op for op in self.operators.values() if op.kind == "source"]

    def sinks(self) -> list[OperatorSpec]:
        return [op for op in self.operators.values() if op.kind == "sink"]

    def topological_order(self) -> list[OperatorSpec]:
        indegree = {op_id: 0 for op_id in self.operators}
        for edge in self.edges:
            indegree[edge.dst] += 1
        ready = sorted(op_id for op_id, deg in indegree.items() if deg == 0)
        order: list[OperatorSpec] = []
        while ready:
            op_id = ready.pop(0)
            order.append(self.operators[op_id])
            for edge in self.downstream_of(op_id):
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self.operators):
            raise JobValidationError(f"job {self.name!r} contains a cycle")
        return order


def validate_graph(graph: JobGraph) -> None:
    """Raise :class:`JobValidationError` on structural problems.

    Checks: at least one source and one sink, no cycles, no dangling
    edges, at most one edge from one operator to another, every
    non-source reachable from a source, window/join payloads present.
    This is the job-management layer's validation step (Section 4.2.2).
    """
    if not graph.sources():
        raise JobValidationError(f"job {graph.name!r} has no source")
    if not graph.sinks():
        raise JobValidationError(f"job {graph.name!r} has no sink")
    for edge in graph.edges:
        for end in (edge.src, edge.dst):
            if end not in graph.operators:
                raise JobValidationError(
                    f"edge {edge.src}->{edge.dst} references unknown operator {end!r}"
                )
    # A subtask keeps one input channel per upstream subtask, so a second
    # edge between the same operators (a stream joined with itself) would
    # share, and silently overwrite, the first one's channel.
    linked: set[tuple[str, str]] = set()
    for edge in graph.edges:
        if (edge.src, edge.dst) in linked:
            raise JobValidationError(
                f"operator {edge.dst!r} reads {edge.src!r} on two inputs; "
                "a stream cannot be joined with itself"
            )
        linked.add((edge.src, edge.dst))
    graph.topological_order()  # raises on cycles
    # Reachability from sources.
    reachable = {op.op_id for op in graph.sources()}
    frontier = list(reachable)
    while frontier:
        current = frontier.pop()
        for edge in graph.downstream_of(current):
            if edge.dst not in reachable:
                reachable.add(edge.dst)
                frontier.append(edge.dst)
    unreachable = set(graph.operators) - reachable
    if unreachable:
        raise JobValidationError(
            f"operators unreachable from any source: {sorted(unreachable)}"
        )
    for op in graph.operators.values():
        if op.kind == "window" and (op.assigner is None or op.aggregator is None):
            raise JobValidationError(f"window operator {op.op_id} incomplete")
        if op.kind == "join" and (op.join_key_fns is None or op.join_fn is None):
            raise JobValidationError(f"join operator {op.op_id} incomplete")
        if op.kind == "interval_join":
            if op.join_key_fns is None or op.join_fn is None:
                raise JobValidationError(
                    f"interval join operator {op.op_id} incomplete"
                )
            if op.join_lower is None or op.join_upper is None:
                raise JobValidationError(
                    f"interval join operator {op.op_id} is missing its bounds"
                )
            if op.join_lower > op.join_upper:
                raise JobValidationError(
                    f"interval join operator {op.op_id} has inverted bounds "
                    f"[{op.join_lower}, {op.join_upper}]"
                )
        if op.parallelism < 1:
            raise JobValidationError(
                f"operator {op.op_id} has parallelism {op.parallelism}"
            )


class StreamEnvironment:
    """Builder accumulating operators and edges."""

    def __init__(self) -> None:
        self._operators: dict[str, OperatorSpec] = {}
        self._edges: list[Edge] = []
        self._ids = itertools.count()

    def _new_id(self, kind: str) -> str:
        return f"{kind}-{next(self._ids)}"

    def _add(self, spec: OperatorSpec) -> None:
        self._operators[spec.op_id] = spec

    def add_source(self, source: Any, name: str | None = None, parallelism: int = 1) -> "DataStream":
        op_id = name or self._new_id("source")
        self._add(OperatorSpec(op_id, "source", parallelism=parallelism, source=source))
        return DataStream(self, op_id)

    def from_kafka(
        self,
        cluster,
        topic: str,
        group: str,
        parallelism: int | None = None,
        max_out_of_orderness: float = 0.0,
        timestamp_fn: Callable | None = None,
    ) -> "DataStream":
        """Convenience: a Kafka source with one subtask per partition."""
        from repro.flink.operators import KafkaSource

        if parallelism is None:
            parallelism = cluster.partition_count(topic)
        source = KafkaSource(
            cluster,
            topic,
            group,
            max_out_of_orderness=max_out_of_orderness,
            timestamp_fn=timestamp_fn,
        )
        return self.add_source(source, name=f"kafka-{topic}", parallelism=parallelism)

    def from_hive(
        self,
        table,
        time_column: str,
        start_time: float,
        end_time: float,
        max_out_of_orderness: float = 300.0,
        batch_size: int = 500,
    ) -> "DataStream":
        """Kappa+ (Section 7): the rows of a Hive table with
        ``start_time <= time_column < end_time``, as a bounded source.

        The time range is the input's boundary: files whose column stats
        miss it are not read, and a row with a NULL time is outside it.
        ``batch_size`` is the source's poll size, which throttles the
        historic read while downstream operators run at the job's normal
        budget; ``max_out_of_orderness`` is the watermark slack that
        shuffled offline files need.
        """
        from repro.flink.operators import BoundedListSource

        if end_time <= start_time:
            raise BackfillError("end_time must be after start_time")
        if time_column not in table.schema.field_names():
            raise BackfillError(
                f"Hive table {table.name!r} has no time column {time_column!r}"
            )
        rows, __, __, __ = table.scan_with_pruning(
            [
                Predicate(time_column, ">=", start_time),
                Predicate(time_column, "<", end_time),
            ]
        )
        source = BoundedListSource(
            [(row, float(row[time_column])) for row in rows],
            max_out_of_orderness=max_out_of_orderness,
            batch_size=batch_size,
        )
        return self.add_source(source, name=f"hive-{table.name}")

    def build(self, name: str) -> JobGraph:
        graph = JobGraph(name, dict(self._operators), list(self._edges))
        validate_graph(graph)
        return graph


@dataclass
class DataStream:
    """A handle to one operator's output within the builder."""

    env: StreamEnvironment
    op_id: str
    keyed_by: Callable | None = None

    def _chain(
        self,
        spec: OperatorSpec,
        partitioning: Partitioning,
        input_index: int = 0,
    ) -> "DataStream":
        self.env._add(spec)
        self.env._edges.append(Edge(self.op_id, spec.op_id, partitioning, input_index))
        return DataStream(self.env, spec.op_id)

    def map(self, fn: Callable, parallelism: int = 1, name: str | None = None) -> "DataStream":
        spec = OperatorSpec(
            name or self.env._new_id("map"), "map", parallelism=parallelism, fn=fn
        )
        return self._chain(spec, "rebalance" if parallelism > 1 else "forward")

    def filter(self, fn: Callable, parallelism: int = 1, name: str | None = None) -> "DataStream":
        spec = OperatorSpec(
            name or self.env._new_id("filter"), "filter", parallelism=parallelism, fn=fn
        )
        return self._chain(spec, "rebalance" if parallelism > 1 else "forward")

    def flat_map(self, fn: Callable, parallelism: int = 1, name: str | None = None) -> "DataStream":
        spec = OperatorSpec(
            name or self.env._new_id("flat_map"),
            "flat_map",
            parallelism=parallelism,
            fn=fn,
        )
        return self._chain(spec, "rebalance" if parallelism > 1 else "forward")

    def key_by(self, key_fn: Callable | str) -> "DataStream":
        """Logical re-keying; realized as hash partitioning on the next edge.

        A field name instead of a callable keys by ``value[name]``.
        """
        if isinstance(key_fn, str):
            key_fn = itemgetter(key_fn)
        return DataStream(self.env, self.op_id, keyed_by=key_fn)

    def window(self, assigner: WindowAssigner) -> "WindowedStream":
        if self.keyed_by is None:
            raise JobValidationError("window() requires key_by() first")
        return WindowedStream(self, assigner)

    def join(
        self,
        other: "DataStream",
        key_fns: tuple[Callable, Callable],
        assigner: WindowAssigner,
        join_fn: Callable,
        allowed_lateness: float = 0.0,
        parallelism: int = 1,
        name: str | None = None,
    ) -> "DataStream":
        """Window join: pairs elements of both inputs sharing a key within
        the same window (the prediction-monitoring join of Section 5.3).
        ``allowed_lateness`` follows WindowOperator semantics: a window
        admits late records until ``end + lateness <= watermark``."""
        spec = OperatorSpec(
            name or self.env._new_id("join"),
            "join",
            parallelism=parallelism,
            assigner=assigner,
            join_key_fns=key_fns,
            join_fn=join_fn,
            allowed_lateness=allowed_lateness,
        )
        self.env._add(spec)
        self.env._edges.append(Edge(self.op_id, spec.op_id, "hash", input_index=0))
        self.env._edges.append(Edge(other.op_id, spec.op_id, "hash", input_index=1))
        return DataStream(self.env, spec.op_id)

    def interval_join(
        self,
        other: "DataStream",
        key_fns: tuple[Callable, Callable],
        lower: float,
        upper: float,
        join_fn: Callable,
        allowed_lateness: float = 0.0,
        state_ttl: float | None = None,
        spill_budget_bytes: int | None = None,
        parallelism: int = 1,
        name: str | None = None,
    ) -> "DataStream":
        """Interval join: pairs ``(left, right)`` sharing a key with
        ``left.ts ∈ [right.ts + lower, right.ts + upper]`` — no window
        boundary, so a prediction at 11:59 still joins its outcome at
        12:04.  ``self`` is the left input, ``other`` the right.  Join
        state is TTL'd and evicted by watermark (see
        :class:`~repro.flink.operators.IntervalJoinOperator`)."""
        spec = OperatorSpec(
            name or self.env._new_id("interval_join"),
            "interval_join",
            parallelism=parallelism,
            join_key_fns=key_fns,
            join_fn=join_fn,
            join_lower=lower,
            join_upper=upper,
            allowed_lateness=allowed_lateness,
            state_ttl=state_ttl,
            spill_budget_bytes=spill_budget_bytes,
        )
        self.env._add(spec)
        self.env._edges.append(Edge(self.op_id, spec.op_id, "hash", input_index=0))
        self.env._edges.append(Edge(other.op_id, spec.op_id, "hash", input_index=1))
        return DataStream(self.env, spec.op_id)

    def process(self, fn: Callable, parallelism: int = 1, name: str | None = None) -> "DataStream":
        """Low-level operator: fn(record, state_backend, emit) for custom logic."""
        spec = OperatorSpec(
            name or self.env._new_id("process"),
            "process",
            parallelism=parallelism,
            fn=fn,
        )
        partitioning = "hash" if self.keyed_by is not None else "forward"
        stream = self._chain(spec, partitioning)
        if self.keyed_by is not None:
            spec.key_fn = self.keyed_by
        return stream

    def add_sink(
        self, sink: Any, name: str | None = None, transactional: bool = False
    ) -> "DataStream":
        spec = OperatorSpec(
            name or self.env._new_id("sink"),
            "sink",
            sink=sink,
            transactional=transactional,
        )
        return self._chain(spec, "forward")

    def sink_to_list(
        self,
        collector: list,
        name: str | None = None,
        transactional: bool = False,
    ) -> "DataStream":
        from repro.flink.operators import CollectSink

        return self.add_sink(
            CollectSink(collector), name=name, transactional=transactional
        )

    def sink_to_kafka(self, cluster, topic: str, key_fn: Callable | None = None,
                      name: str | None = None, transactional: bool = False,
                      transactional_id: str | None = None) -> "DataStream":
        """Kafka sink; ``transactional=True`` gives end-to-end exactly-once:
        records are 2PC-buffered by the runtime and produced with an
        idempotent, epoch-fenced producer (pass ``transactional_id`` when
        several jobs sink to the same topic)."""
        from repro.flink.operators import KafkaSink

        return self.add_sink(
            KafkaSink(
                cluster, topic, key_fn,
                transactional=transactional,
                transactional_id=transactional_id,
            ),
            name=name,
            transactional=transactional,
        )


@dataclass
class WindowedStream:
    stream: DataStream
    assigner: WindowAssigner
    allowed_lateness: float = 0.0

    def allow_lateness(self, seconds: float) -> "WindowedStream":
        self.allowed_lateness = seconds
        return self

    def aggregate(
        self,
        aggregator: AggregateFunction,
        parallelism: int = 1,
        name: str | None = None,
    ) -> DataStream:
        env = self.stream.env
        spec = OperatorSpec(
            name or env._new_id("window"),
            "window",
            parallelism=parallelism,
            key_fn=self.stream.keyed_by,
            assigner=self.assigner,
            aggregator=aggregator,
            allowed_lateness=self.allowed_lateness,
        )
        env._add(spec)
        env._edges.append(Edge(self.stream.op_id, spec.op_id, "hash"))
        return DataStream(env, spec.op_id)
