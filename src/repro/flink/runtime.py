"""The streaming runtime: tasks, channels, backpressure, checkpoints.

A :class:`JobRuntime` instantiates a validated job graph into subtasks
connected by bounded in-memory channels and drives them with a cooperative
scheduler.  The design reproduces the two Flink properties the paper leans
on (Section 4.2):

* **Backpressure.**  Channels have finite capacity.  A task only runs when
  every output channel has space, so pressure propagates upstream until the
  *sources stop consuming from Kafka* — lag accumulates in the broker (which
  is built for it) instead of ballooning operator memory.  The Storm
  foil (``benchmarks/foils/backlog.py``) lacks exactly this property.
* **Barrier checkpointing.**  The coordinator injects numbered barriers at
  the sources; tasks align barriers across input channels, snapshot their
  state, and forward the barrier.  Source offsets plus aligned operator
  snapshots give an exactly-once-consistent recovery point in the storage
  layer.
* **Transactional (2PC) sinks.**  A sink marked ``transactional`` buffers
  writes per checkpoint epoch: records are *pre-committed* when the sink
  aligns a barrier and *committed* — actually written — only once every
  sink acknowledged that checkpoint.  ``restore_from`` aborts uncommitted
  epochs and bumps the Kafka producer epoch (zombie fencing), so sink
  output is exactly-once under crash-restore; eager (non-transactional)
  sinks keep the classic at-least-once replay semantics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.common import serde
from repro.common.clock import Clock, SystemClock
from repro.common.errors import (
    BlobNotFoundError,
    CheckpointError,
    FlinkError,
    StorageUnavailableError,
)
from repro.common.perf import PERF
from repro.kafka.producer import hash_partitioner
from repro.flink.graph import Edge, JobGraph, OperatorSpec, validate_graph
from repro.flink.operators import KeysOwnOutput, build_operator
from repro.flink.time import (
    CheckpointBarrier,
    StreamRecord,
    StreamStatus,
    Watermark,
)
from repro.observability.trace import Hop, SpanCollector

DEFAULT_CHANNEL_CAPACITY = 1000

#: Longest run of data records drained from one channel under a single
#: backpressure probe.  Bounds channel overshoot to one micro-batch's
#: worth of emissions past capacity.
MICRO_BATCH = 32


@dataclass
class InputChannel:
    """One upstream-subtask -> downstream-subtask queue."""

    capacity: int
    input_index: int
    queue: deque = field(default_factory=deque)
    last_watermark: float = float("-inf")
    blocked_for: int | None = None  # checkpoint id currently aligning
    idle: bool = False  # excluded from the watermark minimum while True

    def has_space(self) -> bool:
        return len(self.queue) < self.capacity


class SubTask:
    """One parallel instance of an operator."""

    def __init__(self, spec: OperatorSpec, index: int, runtime: "JobRuntime") -> None:
        self.spec = spec
        self.index = index
        self.runtime = runtime
        self.operator = (
            build_operator(spec) if spec.kind not in ("source", "sink") else None
        )
        self.reader = (
            spec.source.create_reader(index, spec.parallelism)
            if spec.kind == "source"
            else None
        )
        # (src_op_id, src_subtask_index) -> channel
        self.inputs: dict[tuple[str, int], InputChannel] = {}
        self.records_processed = 0
        self.completed_checkpoints: set[int] = set()
        self._out_watermark = float("-inf")
        # 2PC sink transaction buffers (spec.transactional sinks only):
        # the open transaction collects records since the last barrier;
        # pre-committed transactions (closed at barrier alignment) wait,
        # keyed and committed in checkpoint-id order.
        self._txn_open: list[StreamRecord] = []
        self._txn_pre: dict[int, list[StreamRecord]] = {}
        # Cached output wiring, built lazily on first emit/space probe:
        # (partitioning, dst channels, dst key_fn, key -> target memo,
        # rank among the rebalance edges) per out edge.
        self._out: list | None = None
        self._out_channels: list[InputChannel] = []
        # One round-robin cursor per rebalance edge, indexed by its rank.
        self._rebalance_cursors: list[int] = []
        # A traced sink's process hop, bound at its first traced write.
        self._process_hop: Hop | None = None

    # -- wiring -------------------------------------------------------------

    def add_input(self, src_key: tuple[str, int], input_index: int) -> None:
        self.inputs[src_key] = InputChannel(
            self.runtime.channel_capacity, input_index
        )

    # -- output routing -------------------------------------------------------

    def _output_wiring(self) -> list:
        """Per-edge destination wiring, resolved once.

        The job graph is immutable after ``validate_graph``, so the
        per-record graph and task-table lookups of the naive routing path
        collapse into cached channel lists; each hash edge also carries a
        key -> target memo so a key is partition-hashed only the first
        time it is seen.

        A task that builds its own output records (a source reader, a
        map, a flat_map, an interval join: :class:`KeysOwnOutput`) whose
        only out edge is a hash edge is handed that edge's key function
        and builds each record keyed by it, so the edge routes by the key
        the record carries and copies nothing.  ``step`` probes output
        space, which builds the wiring, before its first poll or
        delivery, so no record is built before the hand-over.
        """
        if self._out is None:
            self._out = []
            self._out_channels = []
            emitter = self.reader if self.reader is not None else self.operator
            edges = self.runtime.graph.downstream_of(self.spec.op_id)
            for edge in edges:
                dst_spec = self.runtime.graph.operators[edge.dst]
                channels = [
                    task.inputs[(self.spec.op_id, self.index)]
                    for task in self.runtime.tasks[edge.dst]
                ]
                key_fn = self._dst_key_fn(dst_spec, edge)
                if (
                    key_fn is not None
                    and len(edges) == 1
                    and edge.partitioning == "hash"
                    and isinstance(emitter, KeysOwnOutput)
                ):
                    emitter.out_key_fn, key_fn = key_fn, None
                rank = len(self._rebalance_cursors)
                self._out.append((edge.partitioning, channels, key_fn, {}, rank))
                if edge.partitioning == "rebalance":
                    self._rebalance_cursors.append(0)
                self._out_channels.extend(channels)
        return self._out

    @staticmethod
    def _dst_key_fn(dst_spec: OperatorSpec, edge: Edge):
        if (
            dst_spec.kind in ("join", "interval_join")
            and dst_spec.join_key_fns is not None
        ):
            return dst_spec.join_key_fns[edge.input_index]
        return dst_spec.key_fn

    def _broadcast_control(self, element: Any) -> None:
        """Watermarks and barriers go to every downstream subtask."""
        self._output_wiring()
        for channel in self._out_channels:
            channel.queue.append(element)

    def emit(self, elements: list[Any]) -> int:
        """Send a source's poll downstream; returns the records among it.

        Each stretch of records between control elements is routed by
        :meth:`_route`; a control element (a watermark or an idleness
        marker) goes to every out channel at its place in the poll.
        """
        routed = start = 0
        for i, element in enumerate(elements):
            if not isinstance(element, StreamRecord):
                routed += self._route(elements[start:i])
                self._broadcast_control(element)
                start = i + 1
        return routed + self._route(elements[start:] if start else elements)

    def _route(self, records: list[StreamRecord]) -> int:
        """Route a run of records: one pass over the run per out edge,
        appending each record straight onto its target channel's queue.

        A channel is fed by exactly one edge (``validate_graph``), so
        edge-major routing keeps every channel's order; each rebalance
        edge deals its records round-robin from a cursor of its own.
        Returns ``len(records)``.
        """
        count = len(records)
        if not count:
            return 0
        wiring = self._output_wiring()
        cursors = self._rebalance_cursors
        pushes = 0
        for partitioning, channels, key_fn, key_targets, rank in wiring:
            queues = [channel.queue for channel in channels]
            width = len(queues)
            if partitioning == "hash":
                for record in records:
                    if key_fn is None:
                        key = record.key
                    else:
                        key = key_fn(record.value)
                        # Re-stamp only a key that changed.  Identity, never
                        # ``==``: 5 == 5.0, and the type a key function
                        # returns is the type downstream state is keyed by.
                        if key is not record.key:
                            record = StreamRecord(
                                record.value,
                                record.timestamp,
                                key,
                                record.trace,
                                record.scope,
                            )
                    try:
                        target = key_targets.get(key)
                    except TypeError:  # unhashable key: hash every time
                        target = hash_partitioner(key, width)
                    else:
                        if target is None:
                            target = key_targets[key] = hash_partitioner(key, width)
                    queues[target].append(record)
                pushes += count
            elif partitioning == "broadcast":
                for queue in queues:
                    queue.extend(records)
                pushes += count * width
            elif partitioning == "rebalance":
                cursor = cursors[rank]
                for record in records:
                    queues[cursor % width].append(record)
                    cursor += 1
                cursors[rank] = cursor
                pushes += count
            else:  # forward
                queues[self.index % width].extend(records)
                pushes += count
        if PERF.enabled and pushes:
            PERF.inc("flink.cached_routes", count * len(wiring))
            PERF.inc("flink.channel_pushes", pushes)
        return count

    # -- backpressure ------------------------------------------------------------

    def output_has_space(self) -> bool:
        self._output_wiring()
        channels = self._out_channels
        if PERF.enabled:
            PERF.inc("flink.space_channel_checks", len(channels))
        for channel in channels:
            if not channel.has_space():
                return False
        return True

    # -- execution -----------------------------------------------------------------

    def run_source_step(self, max_records: int) -> int:
        assert self.reader is not None
        if not self.output_has_space():
            self.runtime.backpressure_stalls += 1
            return 0
        # A traced job stamps what it reads with the time it entered; the
        # sink its (possibly aggregated) descendant reaches records the
        # process span from there.
        runtime = self.runtime
        entered = runtime.clock.now() if runtime.tracer is not None else None
        records = self.emit(self.reader.poll(max_records, entered))
        self.records_processed += records
        return records

    def step(self, budget: int) -> int:
        """Process up to ``budget`` elements from input channels."""
        if self.spec.kind == "source":
            return self.run_source_step(budget)
        if not self.output_has_space():
            self.runtime.backpressure_stalls += 1
            return 0
        processed = 0
        progress = True
        while processed < budget and progress:
            progress = False
            for channel in self.inputs.values():
                if processed >= budget:
                    break
                queue = channel.queue
                if channel.blocked_for is not None or not queue:
                    continue
                if isinstance(queue[0], StreamRecord):
                    # Micro-batch: drain a run of consecutive data records
                    # from this channel under a single backpressure probe.
                    # Control elements (watermarks, barriers, status) are
                    # never part of a run, so alignment and watermark
                    # propagation behave exactly as in the singly-stepped
                    # path.
                    limit = min(budget - processed, MICRO_BATCH)
                    run = [queue.popleft()]
                    while len(run) < limit and queue and isinstance(
                        queue[0], StreamRecord
                    ):
                        run.append(queue.popleft())
                    self._deliver(run, channel)
                    processed += len(run)
                else:
                    self._handle_control(queue.popleft(), channel)
                    processed += 1
                progress = True
                if not self.output_has_space():
                    return processed
        return processed

    def _deliver(self, data: list[StreamRecord], channel: InputChannel) -> None:
        """The one place data reaches a sink or an operator.

        ``data`` is a micro-batched run of records from one channel: a
        sink writes it as one delivery (or buffers it in its open 2PC
        transaction); an operator takes it in one ``process`` call, and
        what that returns is routed in one pass per out edge.
        """
        if PERF.enabled:
            PERF.inc("flink.batch_elements", len(data))
        self.records_processed += len(data)
        if self.spec.kind == "sink":
            if self.spec.transactional:
                self._txn_open.extend(data)
            else:
                self._write_to_sink(data)
            return
        assert self.operator is not None
        out = self.operator.process(data, channel.input_index)
        if out:
            self._route(out)

    def _handle_control(self, element: Any, channel: InputChannel) -> None:
        if PERF.enabled:
            PERF.inc("flink.elements")
        if isinstance(element, Watermark):
            channel.idle = False
            channel.last_watermark = max(channel.last_watermark, element.timestamp)
            self._maybe_advance_watermark()
        elif isinstance(element, CheckpointBarrier):
            channel.blocked_for = element.checkpoint_id
            self._maybe_complete_alignment(element.checkpoint_id)
        elif isinstance(element, StreamStatus):
            channel.idle = element.idle
            if self.spec.kind != "sink":
                # This task is idle to its downstreams only when *every*
                # input is idle; re-activation propagates immediately.
                all_idle = all(c.idle for c in self.inputs.values())
                if element.idle and all_idle:
                    self._broadcast_control(StreamStatus(idle=True))
                elif not element.idle:
                    self._broadcast_control(StreamStatus(idle=False))
            self._maybe_advance_watermark()
        else:
            raise FlinkError(f"unknown stream element {element!r}")

    def _maybe_advance_watermark(self) -> None:
        active = [c for c in self.inputs.values() if not c.idle]
        if not active:
            return
        minimum = min(c.last_watermark for c in active)
        if minimum <= self._out_watermark:
            return
        self._out_watermark = minimum
        if self.spec.kind == "sink":
            return
        assert self.operator is not None
        self._route(self.operator.on_watermark(Watermark(minimum)))
        self._broadcast_control(Watermark(minimum))

    # -- 2PC sink transactions ------------------------------------------------

    def _write_to_sink(self, records: list[StreamRecord]) -> None:
        """Physically write one delivery (the only path into
        ``sink.write``), then ``sink.flush()`` it, also after a failed
        write; each traced record's ``process`` span ends here."""
        sink = self.spec.sink
        write = sink.write
        try:
            for record in records:
                write(record)
        finally:
            sink.flush()
        runtime = self.runtime
        if runtime.tracer is None:
            return
        # The rows keep the traces, not the records: a written record's
        # value is garbage once the sink is done with it.
        traces = [r.trace for r in records if r.trace is not None]
        if traces:
            if self._process_hop is None:
                self._process_hop = runtime.tracer.hop(
                    "elements", "process", "flink",
                    job=runtime.graph.name, sink=self.spec.op_id,
                )
            scopes = [r.scope for r in records if r.trace is not None]
            self._process_hop.record(traces, scopes, runtime.clock.now())

    def _precommit(self, checkpoint_id: int) -> None:
        """2PC phase one, at barrier alignment: close the open transaction
        under this checkpoint's epoch.  Nothing is written yet."""
        self._txn_pre[checkpoint_id] = self._txn_open
        self._txn_open = []
        self.runtime._txn_event(
            "precommit", self, checkpoint_id, len(self._txn_pre[checkpoint_id])
        )

    def commit_through(self, checkpoint_id: int) -> int:
        """2PC phase two: write every pre-committed transaction with an
        epoch at or below ``checkpoint_id``, in checkpoint order.  Returns
        records written."""
        written = 0
        for epoch in sorted(self._txn_pre):
            if epoch > checkpoint_id:
                break
            records = self._txn_pre.pop(epoch)
            self._write_to_sink(records)
            written += len(records)
            self.runtime._txn_event("commit", self, epoch, len(records))
        return written

    def rollback_precommit(self, checkpoint_id: int) -> None:
        """Aborted checkpoint: its pre-committed records re-join the front
        of the open transaction (they precede it in stream order), so the
        next successful checkpoint commits them — no loss, no duplication."""
        records = self._txn_pre.pop(checkpoint_id, None)
        if records:
            self._txn_open[:0] = records

    def abort_transactions(self) -> int:
        """Crash-restore: discard every uncommitted transaction (the
        rewound sources will regenerate those records) and fence the sink's
        producer identity if it has one.  Returns records discarded."""
        discarded = len(self._txn_open)
        self._txn_open = []
        for epoch in sorted(self._txn_pre):
            discarded += len(self._txn_pre[epoch])
            self.runtime._txn_event(
                "abort", self, epoch, len(self._txn_pre[epoch])
            )
        self._txn_pre = {}
        on_restore = getattr(self.spec.sink, "on_restore", None)
        if on_restore is not None:
            on_restore()
        return discarded

    def pending_txn_records(self) -> int:
        """Buffered-but-uncommitted records (open + pre-committed)."""
        return len(self._txn_open) + sum(
            len(records) for records in self._txn_pre.values()
        )

    def _maybe_complete_alignment(self, checkpoint_id: int) -> None:
        if any(c.blocked_for != checkpoint_id for c in self.inputs.values()):
            return
        if self.spec.kind == "sink":
            if self.spec.transactional:
                self._precommit(checkpoint_id)
            self.completed_checkpoints.add(checkpoint_id)
            self.runtime._sink_acked(checkpoint_id, self)
        else:
            assert self.operator is not None
            self.runtime._store_snapshot(
                checkpoint_id, self.spec.op_id, self.index, self.operator.snapshot()
            )
            self._broadcast_control(CheckpointBarrier(checkpoint_id))
        self.completed_checkpoints.add(checkpoint_id)
        for c in self.inputs.values():
            c.blocked_for = None

    def inject_barrier(self, checkpoint_id: int) -> None:
        """Source-side barrier injection: snapshot offsets, forward barrier."""
        assert self.reader is not None
        self.runtime._store_snapshot(
            checkpoint_id,
            self.spec.op_id,
            self.index,
            serde.encode(self.reader.snapshot()),
        )
        self.completed_checkpoints.add(checkpoint_id)
        self._broadcast_control(CheckpointBarrier(checkpoint_id))

    # -- introspection ----------------------------------------------------------------

    def buffered_elements(self) -> int:
        return sum(len(c.queue) for c in self.inputs.values())

    def state_size_bytes(self) -> int:
        if self.operator is None:
            return 0
        return self.operator.state.size_bytes()


class JobRuntime:
    """Instantiated job: tasks + channels + scheduler + checkpointing."""

    def __init__(
        self,
        graph: JobGraph,
        blob_store=None,
        channel_capacity: int = DEFAULT_CHANNEL_CAPACITY,
        clock: Clock | None = None,
        tracer: SpanCollector | None = None,
    ) -> None:
        validate_graph(graph)
        self.graph = graph
        self.blob_store = blob_store
        self.channel_capacity = channel_capacity
        self.clock = clock or self._infer_clock(graph)
        self.tracer = tracer
        # Times a task stalled on a full output channel, and checkpoints
        # this runtime aborted.
        self.backpressure_stalls = 0
        self.checkpoints_aborted = 0
        if tracer is not None:
            # Kafka sinks re-produce results; hand them the tracer so the
            # derived record's second produce hop is spanned too.
            for spec in graph.sinks():
                if hasattr(spec.sink, "set_tracer"):
                    spec.sink.set_tracer(tracer)
        self.tasks: dict[str, list[SubTask]] = {}
        for spec in graph.operators.values():
            self.tasks[spec.op_id] = [
                SubTask(spec, i, self) for i in range(spec.parallelism)
            ]
        for edge in graph.edges:
            for src_task in self.tasks[edge.src]:
                for dst_task in self.tasks[edge.dst]:
                    dst_task.add_input(
                        (edge.src, src_task.index), edge.input_index
                    )
        self._topo = [spec.op_id for spec in graph.topological_order()]
        self._next_checkpoint_id = 1
        self._pending_sink_acks: dict[int, set[tuple[str, int]]] = {}
        self._completed_checkpoints: list[int] = []

    @staticmethod
    def _infer_clock(graph: JobGraph) -> Clock:
        """Default to the Kafka sources' cluster clock so span timestamps
        share one timeline with the produce/ingest hops."""
        for spec in graph.sources():
            cluster = getattr(spec.source, "cluster", None)
            if cluster is not None and getattr(cluster, "clock", None) is not None:
                return cluster.clock
        return SystemClock()

    # -- scheduling --------------------------------------------------------------

    def run_rounds(self, rounds: int = 1, budget_per_task: int = 200) -> int:
        """Run the cooperative scheduler; returns elements processed."""
        total = 0
        for __ in range(rounds):
            progress = 0
            for op_id in self._topo:
                for task in self.tasks[op_id]:
                    progress += task.step(budget_per_task)
            total += progress
            if progress == 0:
                break
        return total

    def run_until_quiescent(self, max_rounds: int = 100_000) -> int:
        """Run until no task can make progress (drained bounded input or
        fully caught up with Kafka)."""
        total = 0
        for __ in range(max_rounds):
            progress = self.run_rounds(1)
            total += progress
            if progress == 0:
                return total
        raise FlinkError(
            f"job {self.graph.name!r} did not quiesce in {max_rounds} rounds"
        )

    # -- checkpointing ------------------------------------------------------------

    def _checkpoint_key(self, checkpoint_id: int, op_id: str, index: int) -> str:
        return f"checkpoints/{self.graph.name}/{checkpoint_id}/{op_id}/{index}"

    def _checkpoint_prefix(self, checkpoint_id: int) -> str:
        return f"checkpoints/{self.graph.name}/{checkpoint_id}/"

    def _completion_marker_key(self, checkpoint_id: int) -> str:
        """Durable completion record: written only after every sink acked
        and every transactional sink committed, so a *fresh* runtime (job
        manager recovery) can tell completed checkpoints from debris."""
        return self._checkpoint_prefix(checkpoint_id) + "__complete__"

    def _txn_event(
        self, phase: str, task: SubTask, checkpoint_id: int, records: int
    ) -> None:
        """An instantaneous span per 2PC transition, so the dashboard
        shows precommit/commit/abort next to the data spans."""
        if self.tracer is not None:
            now = self.clock.now()
            self.tracer.record_span(
                f"2pc-{self.graph.name}",
                phase,
                "flink",
                start=now,
                end=now,
                op=task.spec.op_id,
                subtask=task.index,
                checkpoint=checkpoint_id,
                records=records,
            )

    def _store_snapshot(
        self, checkpoint_id: int, op_id: str, index: int, data: bytes
    ) -> None:
        if self.blob_store is None:
            raise CheckpointError("no blob store configured for checkpoints")
        self.blob_store.put(self._checkpoint_key(checkpoint_id, op_id, index), data)

    def _sink_acked(self, checkpoint_id: int, task: SubTask) -> None:
        pending = self._pending_sink_acks.get(checkpoint_id)
        if pending is None:
            return
        pending.discard((task.spec.op_id, task.index))
        if not pending:
            # Every sink aligned: commit phase.  Transactional sinks write
            # their pre-committed epochs now (in deterministic sink order),
            # then the completion marker makes the checkpoint durable.  A
            # commit failure propagates and aborts the checkpoint — the
            # uncommitted sinks' buffers roll back into their open
            # transactions, so nothing is lost for the next checkpoint.
            for spec in self.graph.sinks():
                if not spec.transactional:
                    continue
                for sink_task in self.tasks[spec.op_id]:
                    sink_task.commit_through(checkpoint_id)
            if self.blob_store is not None:
                self.blob_store.put(
                    self._completion_marker_key(checkpoint_id), b"complete"
                )
            self._completed_checkpoints.append(checkpoint_id)
            del self._pending_sink_acks[checkpoint_id]

    def trigger_checkpoint(self, max_rounds: int = 100_000) -> int:
        """Take a barrier-aligned checkpoint; returns its id.

        Injects barriers at every source subtask, then drives the scheduler
        until every sink subtask has acknowledged the barrier.  A checkpoint
        that stalls or fails mid-flight (snapshot store down, commit error)
        is *aborted*: its pending acks, per-task completion markers,
        in-flight barriers and partial snapshot blobs are all cleaned up,
        and pre-committed sink transactions roll back into the open
        transaction so the next checkpoint commits those records instead.
        """
        checkpoint_id = self._next_checkpoint_id
        self._next_checkpoint_id += 1
        self._pending_sink_acks[checkpoint_id] = {
            (spec.op_id, task.index)
            for spec in self.graph.sinks()
            for task in self.tasks[spec.op_id]
        }
        try:
            for spec in self.graph.sources():
                for task in self.tasks[spec.op_id]:
                    task.inject_barrier(checkpoint_id)
            # Alignment only needs the in-flight channel data ahead of the
            # barriers to drain; sources are NOT stepped, so a checkpoint
            # never pulls new input (and its position is exactly where it
            # was triggered).
            source_ids = {spec.op_id for spec in self.graph.sources()}
            for __ in range(max_rounds):
                if checkpoint_id in self._completed_checkpoints:
                    return checkpoint_id
                progress = 0
                for op_id in self._topo:
                    if op_id in source_ids:
                        continue
                    for task in self.tasks[op_id]:
                        progress += task.step(200)
                if progress == 0:
                    break
            if checkpoint_id in self._completed_checkpoints:
                return checkpoint_id
        except BaseException:
            self._abort_checkpoint(checkpoint_id)
            raise
        self._abort_checkpoint(checkpoint_id)
        raise CheckpointError(
            f"checkpoint {checkpoint_id} did not complete in {max_rounds} rounds"
        )

    def _abort_checkpoint(self, checkpoint_id: int) -> None:
        """Undo every trace of a failed/stalled checkpoint.

        Leaves the job able to keep running and to take (and complete) the
        next checkpoint: no dangling pending-ack entry, no per-task
        completion marker, no blocked channel or queued barrier for the
        aborted id, no orphaned snapshot blobs, and no sink records stranded
        in a pre-committed transaction that would never commit.
        """
        self._pending_sink_acks.pop(checkpoint_id, None)
        for tasks in self.tasks.values():
            for task in tasks:
                task.completed_checkpoints.discard(checkpoint_id)
                task.rollback_precommit(checkpoint_id)
                for channel in task.inputs.values():
                    if channel.blocked_for == checkpoint_id:
                        channel.blocked_for = None
                    if any(
                        isinstance(e, CheckpointBarrier)
                        and e.checkpoint_id == checkpoint_id
                        for e in channel.queue
                    ):
                        channel.queue = deque(
                            e
                            for e in channel.queue
                            if not (
                                isinstance(e, CheckpointBarrier)
                                and e.checkpoint_id == checkpoint_id
                            )
                        )
        if self.blob_store is not None:
            try:
                for key in self.blob_store.list(
                    self._checkpoint_prefix(checkpoint_id)
                ):
                    self.blob_store.delete(key)
            except StorageUnavailableError:
                # Storage being down is likely *why* we are aborting; the
                # orphaned partial blobs are harmless debris (restore only
                # trusts checkpoints with a completion marker).
                pass
        self.checkpoints_aborted += 1

    def completed_checkpoints(self) -> list[int]:
        return list(self._completed_checkpoints)

    def restore_from(self, checkpoint_id: int) -> None:
        """Reset all tasks to the checkpointed state (after a failure).

        In-flight channel contents are discarded; sources rewind to the
        checkpointed offsets, so every record after the checkpoint is
        reprocessed — exactly-once for internal state, and exactly-once into
        *transactional* sinks too: their uncommitted transactions are
        aborted here (the rewound sources will regenerate those records)
        and the Kafka producer epoch is bumped, fencing any zombie
        pre-failure task that might still try to commit.  Eager
        (non-transactional) sinks keep at-least-once replay semantics.

        Only *completed* checkpoints are restorable.  An id that is neither
        in this runtime's completed list nor durably marked complete in the
        blob store (the ``__complete__`` marker written at commit) raises
        :class:`CheckpointError` before any task state is touched — a
        failed restore must not leave the job half-mutated.
        """
        if self.blob_store is None:
            raise CheckpointError("no blob store configured for checkpoints")
        if checkpoint_id not in self._completed_checkpoints:
            # Fresh runtime (job-manager recovery): fall back to the
            # durable completion marker.
            if not self.blob_store.exists(self._completion_marker_key(checkpoint_id)):
                raise CheckpointError(
                    f"checkpoint {checkpoint_id} was never completed; refusing "
                    f"to restore (completed: {self._completed_checkpoints})"
                )
        # Prefetch every snapshot before mutating anything, so a missing or
        # unreadable blob cannot leave the job partially restored.
        snapshots: dict[tuple[str, int], Any] = {}
        try:
            for op_id, tasks in self.tasks.items():
                for task in tasks:
                    if task.spec.kind == "sink":
                        continue
                    key = self._checkpoint_key(checkpoint_id, op_id, task.index)
                    data = self.blob_store.get(key)
                    snapshots[(op_id, task.index)] = (
                        serde.decode(data) if task.spec.kind == "source" else data
                    )
        except BlobNotFoundError as exc:
            raise CheckpointError(
                f"checkpoint {checkpoint_id} is incomplete: {exc}"
            ) from exc
        for op_id, tasks in self.tasks.items():
            for task in tasks:
                for channel in task.inputs.values():
                    channel.queue.clear()
                    channel.blocked_for = None
                    channel.last_watermark = float("-inf")
                    channel.idle = False
                task._out_watermark = float("-inf")
                if task.spec.kind == "source":
                    assert task.reader is not None
                    task.reader.restore(snapshots[(op_id, task.index)])
                elif task.spec.kind == "sink":
                    task.abort_transactions()
                else:
                    assert task.operator is not None
                    task.operator.restore(snapshots[(op_id, task.index)])
        # Abandon any checkpoint that was mid-flight when we crashed, and
        # never reuse an id (a zombie's stale barrier must not collide).
        self._pending_sink_acks.clear()
        self._next_checkpoint_id = max(self._next_checkpoint_id, checkpoint_id + 1)
        if checkpoint_id not in self._completed_checkpoints:
            self._completed_checkpoints.append(checkpoint_id)

    # -- introspection ------------------------------------------------------------

    def total_source_lag(self) -> int:
        return sum(
            task.reader.lag()
            for spec in self.graph.sources()
            for task in self.tasks[spec.op_id]
            if task.reader is not None
        )

    def total_state_bytes(self) -> int:
        return sum(
            task.state_size_bytes()
            for tasks in self.tasks.values()
            for task in tasks
        )

    def join_spill_pressure(self) -> float:
        """Worst spill pressure across the job's interval-join subtasks.

        0.0 when the job has no budgeted join state; >= 1.0 means some
        join subtask's buffered state would spill — the AutoScaler scales
        up on that signal before lag or utilization ever move.
        """
        pressure = 0.0
        for tasks in self.tasks.values():
            for task in tasks:
                gauge = getattr(task.operator, "spill_pressure", None)
                if gauge is not None:
                    pressure = max(pressure, gauge())
        return pressure

    def total_buffered_elements(self) -> int:
        return sum(
            task.buffered_elements()
            for tasks in self.tasks.values()
            for task in tasks
        )

    def records_processed(self) -> dict[str, int]:
        return {
            op_id: sum(t.records_processed for t in tasks)
            for op_id, tasks in self.tasks.items()
        }
