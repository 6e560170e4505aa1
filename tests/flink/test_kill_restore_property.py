"""One seeded kill/restore property over everything in Flink that holds
event-time state: the window, window-join and interval-join operators and
the Kafka, bounded-list and bounded-columnar readers.

The property, at three altitudes:

* **Operator.**  snapshot -> fresh instance -> restore -> replay the rest
  of the script yields byte-identical output to the uninterrupted run:
  same fires, same ``late_dropped``/``evicted``, same watermark, and the
  fires keep the trace of the records that fed them.
* **Reader.**  Rewinding a reader (in place, as ``restore_from`` does, or
  into a fresh instance) replays byte-identical data, re-propagates the
  watermark instead of swallowing it, and re-sends the end marker — the
  final ``+inf`` of a bounded reader, the idle status of a Kafka one.
* **Job.**  Every source x operator pipeline under a seeded schedule of
  checkpoints and crashes (restored in place or into a fresh
  ``JobRuntime``) writes byte-identical output through a 2PC sink.
"""

import pytest

from repro.common import serde
from repro.common.clock import SimulatedClock
from repro.common.rng import seeded_rng
from repro.flink.graph import StreamEnvironment
from repro.flink.operators import (
    BoundedColumnarSource,
    BoundedListSource,
    IntervalJoinOperator,
    KafkaSource,
    WindowJoinOperator,
    WindowOperator,
)
from repro.flink.runtime import JobRuntime
from repro.flink.time import (
    RecordBatch,
    StreamRecord,
    StreamStatus,
    Watermark,
)
from repro.flink.windows import (
    SessionWindows,
    SlidingWindows,
    SumAggregate,
    TumblingWindows,
    WindowResult,
)
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.observability.trace import TraceContext
from repro.storage.blobstore import BlobStore

SEEDS = [1, 2, 3, 7, 11, 42]
OUT_OF_ORDERNESS = 2.0
FLUSH_TS = 1e9


def _join_row(left, right):
    return {"k": left["k"], "l": left["i"], "r": right["i"]}


def _amount(row):
    return row["v"]


OPERATORS = {
    "tumbling": lambda: WindowOperator(
        TumblingWindows(10.0), SumAggregate(_amount), allowed_lateness=2.0
    ),
    "sliding": lambda: WindowOperator(
        SlidingWindows(10.0, 5.0), SumAggregate(_amount), allowed_lateness=2.0
    ),
    "session": lambda: WindowOperator(
        SessionWindows(4.0), SumAggregate(_amount), allowed_lateness=2.0
    ),
    "window_join": lambda: WindowJoinOperator(
        TumblingWindows(10.0), _join_row, allowed_lateness=2.0
    ),
    "interval_join": lambda: IntervalJoinOperator(
        -20.0, 0.0, _join_row, allowed_lateness=2.0, state_ttl=20.0
    ),
}
TWO_INPUT = {"window_join", "interval_join"}


def _plain(value):
    if isinstance(value, WindowResult):
        return {
            "k": value.key,
            "start": value.window.start,
            "end": value.window.end,
            "value": value.value,
        }
    return value


# -- operators -----------------------------------------------------------------


def _script(seed, two_input, steps=160):
    """Seeded records (out of order, some hopelessly late, half of them
    traced) interleaved with monotone watermarks, closed by ``+inf``."""
    rng = seeded_rng(seed, "kill-restore-script")
    script, high = [], 0.0
    for i in range(steps):
        if rng.random() < 0.2:
            script.append(Watermark(high - OUT_OF_ORDERNESS))
            continue
        ts = i * 0.7 - rng.choice([0.0, 0.0, 1.5, 6.0, 30.0])
        high = max(high, ts)
        trace = TraceContext(f"trace-{i}", ts) if rng.random() < 0.5 else None
        row = {"k": f"k{rng.randrange(4)}", "i": i, "v": rng.random() * 10}
        input_index = rng.randrange(2) if two_input else 0
        script.append((StreamRecord(row, ts, row["k"], trace), input_index))
    script.append(Watermark(float("inf")))
    return script


def _run_operator(kind, script, kill_points=()):
    """Feed the script; at every kill point swap in a fresh operator
    restored from a snapshot.  Returns (output bytes, final operator);
    each output row leads with the script position that emitted it."""
    op = OPERATORS[kind]()
    rows = []
    for position, step in enumerate(script):
        if position in kill_points:
            snapshot = op.snapshot()
            op = OPERATORS[kind]()
            op.restore(snapshot)
        if isinstance(step, Watermark):
            emitted = op.on_watermark(step)
        else:
            emitted = op.process(*step)
        for r in emitted:
            trace = r.trace and r.trace.to_headers()
            rows.append([position, _plain(r.value), r.timestamp, r.key, trace])
    return serde.encode(rows), op


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", OPERATORS)
class TestOperatorKillRestore:
    def test_replay_after_restore_is_byte_identical(self, kind, seed):
        script = _script(seed, kind in TWO_INPUT)
        rng = seeded_rng(seed, "kill-restore-points")
        kill_points = set(rng.sample(range(1, len(script) - 1), 4))
        baseline, reference = _run_operator(kind, script)
        faulty, survivor = _run_operator(kind, script, kill_points)
        assert faulty == baseline
        assert survivor.late_dropped == reference.late_dropped > 0
        assert survivor.current_watermark == reference.current_watermark
        assert getattr(survivor, "evicted", 0) == getattr(reference, "evicted", 0)
        assert survivor.snapshot() == reference.snapshot()

    def test_restored_fires_keep_their_trace(self, kind, seed):
        script = _script(seed, kind in TWO_INPUT)
        if kind == "interval_join":
            # Pairs are emitted on arrival, not on a watermark: restore
            # midway, so buffered records pair after it.
            kill = len(script) // 2
        else:
            kill = len(script) - 1  # everything open fires on the closing +inf
        restored = [
            row[4]
            for row in serde.decode(_run_operator(kind, script, {kill})[0])
            if row[0] >= kill
        ]
        uninterrupted = [
            row[4]
            for row in serde.decode(_run_operator(kind, script)[0])
            if row[0] >= kill
        ]
        assert restored == uninterrupted
        assert any(trace is not None for trace in restored)


@pytest.mark.parametrize("kind", OPERATORS)
def test_untouched_operator_round_trips(kind):
    restored = OPERATORS[kind]()
    restored.restore(OPERATORS[kind]().snapshot())
    assert restored.current_watermark == float("-inf")
    assert restored.snapshot() == OPERATORS[kind]().snapshot()


# -- readers -------------------------------------------------------------------


def _reader_rows(seed, count=60):
    rng = seeded_rng(seed, "kill-restore-rows")
    return [
        {"k": f"k{rng.randrange(4)}", "i": i, "ts": i * 1.0 - rng.choice([0, 0, 3])}
        for i in range(count)
    ]


def _list_reader(rows):
    source = BoundedListSource(
        [(row, row["ts"], row["k"]) for row in rows], OUT_OF_ORDERNESS, batch_size=7
    )
    return lambda: source.create_reader(0, 1)


def _columnar_reader(rows):
    source = BoundedColumnarSource(
        {name: [row[name] for row in rows] for name in ("k", "i", "ts")},
        [row["ts"] for row in rows],
        OUT_OF_ORDERNESS,
        batch_size=7,
    )
    return lambda: source.create_reader(0, 1)


def _kafka_reader(rows):
    cluster = KafkaCluster(clock=SimulatedClock())
    cluster.create_topic("rows", TopicConfig(partitions=2))
    producer = Producer(cluster, "workload")
    for row in rows:
        producer.produce("rows", row, key=row["k"], event_time=row["ts"])
    source = KafkaSource(cluster, "rows", "g", OUT_OF_ORDERNESS)
    return lambda: source.create_reader(0, 1)


READERS = {
    "list": (_list_reader, Watermark(float("inf"))),
    "columnar": (_columnar_reader, Watermark(float("inf"))),
    "kafka": (_kafka_reader, StreamStatus(idle=True)),
}


def _poll(reader):
    return reader.poll(14)


def _drain(reader):
    """Poll until the reader has nothing more to say."""
    elements, quiet = [], 0
    while quiet < 3:
        polled = _poll(reader)
        quiet = 0 if polled else quiet + 1
        elements.extend(polled)
    return elements


def _data(elements):
    """The data rows of a poll stream, in order, as bytes."""
    rows = []
    for element in elements:
        if isinstance(element, StreamRecord):
            rows.append([element.value, element.timestamp])
        elif isinstance(element, RecordBatch):
            rows.extend(
                [element.batch.row(i), element.timestamps[i]]
                for i in element.row_indices()
            )
    return serde.encode(rows)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fresh", [False, True], ids=["in-place", "fresh-instance"])
@pytest.mark.parametrize("kind", READERS)
class TestReaderKillRestore:
    def test_rewind_replays_data_and_progress(self, kind, fresh, seed):
        make_reader, end_marker = READERS[kind]
        make = make_reader(_reader_rows(seed))
        baseline = _drain(make())
        assert baseline[-1] == end_marker

        rng = seeded_rng(seed, "kill-restore-reader")
        reader = make()
        before = []
        for __ in range(rng.randrange(1, 5)):
            before.extend(_poll(reader))
        snapshot = reader.snapshot()
        # Work past the checkpoint is lost in the crash — on even seeds
        # that includes the end marker, which must then come again.
        lost = _drain(reader) if seed % 2 == 0 else _poll(reader)
        assert lost
        if fresh:
            reader = make()
        reader.restore(snapshot)
        after = _drain(reader)

        assert _data(before + after) == _data(baseline)
        # Watermarks re-propagate: the first replayed poll carries the
        # watermark its own records imply, however far the pre-crash
        # reader had already advanced.
        replayed = [e for e in after if isinstance(e, Watermark)]
        assert replayed and replayed[0].timestamp < float("inf")
        assert after[-1] == end_marker
        assert after.count(end_marker) == 1


# -- whole jobs ------------------------------------------------------------------


def _job_events(seed, hopelessly_late, count=90):
    """``(lefts, rights)``: keyed rows with out-of-order event times; the
    right side trails the left like an outcome trails its prediction.

    ``hopelessly_late`` puts a sixth of the lefts 40 s behind, to be
    dropped.  Whether such a record is late depends on how far the
    watermark got before it was polled, so only a source that replays in
    the poll batches of the first run — the bounded ones — can promise
    the same drops after a restore; Kafka replays a backlog in one poll.
    """
    rng = seeded_rng(seed, "kill-restore-job")
    jitter = [0.0, 0.0, 0.0, 1.0, 1.5] + ([40.0] if hopelessly_late else [])
    lefts, rights = [], []
    for i in range(count):
        ts = i * 1.3 - rng.choice(jitter)
        key = f"k{rng.randrange(5)}"
        lefts.append({"k": key, "i": i, "v": float(rng.randrange(100)), "ts": ts})
        if rng.random() < 0.9:
            delay = rng.uniform(0.5, 15.0)
            rights.append({"k": key, "i": i, "v": 0.0, "ts": ts + delay})
    return lefts, rights


class _Job:
    """One source x operator pipeline plus the means to advance it."""

    def __init__(self, source_kind, op_kind, seed):
        self.clock = SimulatedClock()
        self.store = BlobStore(clock=self.clock)
        self.out = []
        self.source_kind = source_kind
        if source_kind == "kafka":
            self.cluster = KafkaCluster(clock=self.clock)
            self.producer = Producer(self.cluster, "workload")
        lefts, rights = _job_events(seed, hopelessly_late=source_kind != "kafka")
        self.pending = {"lefts": lefts, "rights": rights}
        env = StreamEnvironment()
        left = self._source(env, "lefts", lefts)
        if op_kind in TWO_INPUT:
            right = self._source(env, "rights", rights)
            by_key = (lambda row: row["k"], lambda row: row["k"])
            if op_kind == "window_join":
                joined = left.join(
                    right,
                    by_key,
                    TumblingWindows(10.0),
                    _join_row,
                    allowed_lateness=2.0,
                )
            else:
                joined = left.interval_join(
                    right,
                    by_key,
                    lower=-20.0,
                    upper=0.0,
                    join_fn=_join_row,
                    allowed_lateness=2.0,
                    state_ttl=20.0,
                )
            stream = joined
        else:
            del self.pending["rights"]
            assigner = {
                "tumbling": TumblingWindows(10.0),
                "sliding": SlidingWindows(10.0, 5.0),
                "session": SessionWindows(4.0),
            }[op_kind]
            keyed = left.key_by("k" if source_kind == "columnar" else lambda r: r["k"])
            aggregate = SumAggregate("v" if source_kind == "columnar" else _amount)
            windowed = keyed.window(assigner).allow_lateness(2.0)
            stream = windowed.aggregate(aggregate).map(_plain)
        stream.sink_to_list(self.out, transactional=True)
        self.graph = env.build(f"kill-restore-{source_kind}-{op_kind}-{seed}")
        self.runtime = self._runtime()

    def _source(self, env, topic, rows):
        if self.source_kind == "kafka":
            self.cluster.create_topic(topic, TopicConfig(partitions=2))
            return env.from_kafka(
                self.cluster,
                topic,
                group="kill-restore",
                max_out_of_orderness=OUT_OF_ORDERNESS,
                timestamp_fn=lambda row: row["ts"],
            )
        if self.source_kind == "list":
            source = BoundedListSource(
                [(row, row["ts"]) for row in rows], OUT_OF_ORDERNESS, batch_size=8
            )
        else:
            source = BoundedColumnarSource(
                {name: [row[name] for row in rows] for name in ("k", "i", "v", "ts")},
                [row["ts"] for row in rows],
                OUT_OF_ORDERNESS,
                batch_size=8,
            )
        return env.add_source(source)

    def _runtime(self):
        return JobRuntime(self.graph, blob_store=self.store, clock=self.clock)

    def advance(self) -> bool:
        """One unit of work; False once the input is exhausted."""
        if self.source_kind != "kafka":
            # Bounded input is all there from the start: one scheduler
            # round moves one source batch through the job.
            return self.runtime.run_rounds(1) > 0
        more = False
        for topic, rows in self.pending.items():
            for row in rows[:8]:
                self.producer.produce(topic, row, key=row["k"], event_time=row["ts"])
            del rows[:8]
            more = more or bool(rows)
        self.runtime.run_until_quiescent()
        return more

    def crash(self, fresh: bool) -> None:
        checkpoint = self.runtime.completed_checkpoints()[-1]
        if fresh:
            self.runtime = self._runtime()  # job-manager recovery
        self.runtime.restore_from(checkpoint)

    def finish(self) -> bytes:
        if self.source_kind == "kafka":
            # A far-future event per topic closes every real window; the
            # bounded readers send +inf on their own.
            for topic in self.pending:
                flush = {"k": "flush", "i": -1, "v": 0.0, "ts": FLUSH_TS}
                self.producer.produce(topic, flush, key="flush", event_time=FLUSH_TS)
        self.runtime.run_until_quiescent()
        self.runtime.trigger_checkpoint()  # commits the last transaction
        return serde.encode(sorted(self.out, key=serde.encode))


def _drive(source_kind, op_kind, seed, chaos):
    """Returns (canonical sink output, crashes performed, late drops)."""
    job = _Job(source_kind, op_kind, seed)
    rng = seeded_rng(seed, "kill-restore-faults")
    crashes = 0
    more = True
    while more:
        more = job.advance()
        if chaos and rng.random() < 0.4:
            job.runtime.trigger_checkpoint()
        if chaos and rng.random() < 0.3 and job.runtime.completed_checkpoints():
            job.crash(fresh=rng.random() < 0.5)
            crashes += 1
            more = True
    output = job.finish()
    late = sum(
        getattr(task.operator, "late_dropped", 0)
        for tasks in job.runtime.tasks.values()
        for task in tasks
    )
    return output, crashes, late


@pytest.mark.parametrize("op_kind", OPERATORS)
@pytest.mark.parametrize("source_kind", ["kafka", "list", "columnar"])
class TestJobKillRestore:
    def test_sink_output_byte_identical_under_random_kill_restore(
        self, source_kind, op_kind
    ):
        crashes = 0
        for seed in SEEDS:
            baseline, __, late = _drive(source_kind, op_kind, seed, chaos=False)
            faulty, crashed, late_after = _drive(source_kind, op_kind, seed, chaos=True)
            assert faulty == baseline, f"seed {seed}"
            assert late_after == late, f"seed {seed}"
            assert (late > 0) == (source_kind != "kafka")
            assert len(serde.decode(baseline)) > 10  # real output made it out
            crashes += crashed
        # Guard against a vacuous property: the schedule really crashes.
        assert crashes >= 3


@pytest.mark.parametrize("op_kind", OPERATORS)
def test_row_and_columnar_sources_feed_the_same_job(op_kind):
    """Where the records come from is the reader's business only: the
    same rows as a list or as column batches (adapted to records, and
    keyed, by the runtime wherever an operator has no columnar kernel)
    produce byte-identical output."""
    for seed in SEEDS[:3]:
        rows, __, late = _drive("list", op_kind, seed, chaos=False)
        batches, __, late_columnar = _drive("columnar", op_kind, seed, chaos=False)
        assert batches == rows
        assert late_columnar == late
