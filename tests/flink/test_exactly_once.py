"""Exactly-once sink delivery under crash-restore.

The 2PC transactional-sink property: for ANY seeded schedule of
checkpoints and kill/restore faults, a keyed-aggregation job's sink
output is byte-identical to the fault-free run — no window emission
lost, duplicated, or reordered.  Plus the surrounding hygiene: restoring
an unknown checkpoint must fail without touching state, and an aborted
checkpoint must leave no debris behind.
"""

import pytest

from repro.common import serde
from repro.common.clock import SimulatedClock
from repro.common.errors import CheckpointError, StorageUnavailableError
from repro.common.rng import seeded_rng
from repro.flink.graph import StreamEnvironment
from repro.flink.runtime import JobRuntime
from repro.flink.windows import SumAggregate, TumblingWindows
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.platform import Platform
from repro.storage.blobstore import BlobStore

WINDOW = 10.0
FLUSH_TS = 1e9


def _events(seed, count=120):
    rng = seeded_rng(seed, "xonce-workload")
    return [
        {
            "k": f"k{rng.randrange(5)}",
            "v": float(rng.randrange(100)),
            "ts": i * 1.3,
        }
        for i in range(count)
    ]


def _build(seed, transactional=True):
    clock = SimulatedClock()
    cluster = KafkaCluster(clock=clock)
    cluster.create_topic("events", TopicConfig(partitions=2))
    out = []
    env = StreamEnvironment()
    (
        env.from_kafka(cluster, "events", group="xonce",
                       timestamp_fn=lambda row: row["ts"])
        .key_by(lambda row: row["k"])
        .window(TumblingWindows(WINDOW))
        .aggregate(SumAggregate(lambda row: row["v"]))
        .map(lambda r: {"k": r.key, "start": r.window.start, "sum": r.value})
        .sink_to_list(out, transactional=transactional)
    )
    runtime = JobRuntime(
        env.build(f"xonce-{seed}"), blob_store=BlobStore(clock=clock),
        clock=clock,
    )
    return cluster, runtime, out


def _drive(seed, chaos):
    """Produce in chunks; under ``chaos``, checkpoint and crash-restore at
    seeded random points.  Returns (encoded output, crashes performed)."""
    cluster, runtime, out = _build(seed)
    producer = Producer(cluster, "workload")
    rng = seeded_rng(seed, "xonce-faults")
    crashes = 0
    events = _events(seed)
    for start in range(0, len(events), 10):
        for event in events[start:start + 10]:
            producer.produce("events", event, key=event["k"],
                             event_time=event["ts"])
        runtime.run_until_quiescent()
        if chaos and rng.random() < 0.4:
            runtime.trigger_checkpoint()
        if chaos and rng.random() < 0.3 and runtime.completed_checkpoints():
            runtime.restore_from(runtime.completed_checkpoints()[-1])
            runtime.run_until_quiescent()
            crashes += 1
    # A far-future event closes every real window; the final checkpoint
    # commits the emissions.
    producer.produce("events", {"k": "flush", "v": 0.0, "ts": FLUSH_TS},
                     key="flush", event_time=FLUSH_TS)
    runtime.run_until_quiescent()
    runtime.trigger_checkpoint()
    return out, crashes


def _per_key_bytes(rows):
    """Canonical per-key encoding: the delivery order a keyed stream
    guarantees.  Cross-key interleaving may legally differ after a
    restore (several windows close in one watermark jump)."""
    grouped = {}
    for row in rows:
        grouped.setdefault(row["k"], []).append(row)
    return {k: serde.encode(v) for k, v in grouped.items()}


class TestExactlyOnceProperty:
    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 11, 42])
    def test_sink_output_byte_identical_under_random_kill_restore(self, seed):
        baseline, __ = _drive(seed, chaos=False)
        faulty, crashes = _drive(seed, chaos=True)
        assert _per_key_bytes(faulty) == _per_key_bytes(baseline)
        # And as a whole (modulo the cross-key interleave): byte-identical
        # after a canonical sort — nothing lost, duplicated or altered.
        canonical = lambda rows: serde.encode(  # noqa: E731
            sorted(rows, key=lambda r: (r["k"], r["start"]))
        )
        assert canonical(faulty) == canonical(baseline)
        assert len(baseline) > 10  # real windows made it out

    def test_the_schedule_actually_crashes(self):
        """Guard against a vacuous property: across the seeds, the fault
        schedule performs real crash-restores."""
        total = sum(_drive(seed, chaos=True)[1] for seed in [1, 2, 3, 7, 11, 42])
        assert total >= 3

    def test_old_duplicate_behaviour_is_gone(self):
        """The pre-2PC behaviour — crash-restore re-emitting already-written
        windows into the sink — must not occur with a transactional sink.
        The eager sink still shows it (documented at-least-once), which
        proves the scenario genuinely provokes duplicates."""
        outputs = {}
        for transactional in (False, True):
            cluster, runtime, out = _build(5, transactional=transactional)
            producer = Producer(cluster, "workload")
            for event in _events(5, count=40):
                producer.produce("events", event, key=event["k"],
                                 event_time=event["ts"])
            runtime.run_until_quiescent()
            # Checkpoint BEFORE the watermark-closing flush: the windows
            # fire after the snapshot, so the crash-restore rewinds the
            # sources past the flush and re-fires every one of them.
            checkpoint_id = runtime.trigger_checkpoint()
            producer.produce("events", {"k": "flush", "v": 0.0, "ts": FLUSH_TS},
                             key="flush", event_time=FLUSH_TS)
            runtime.run_until_quiescent()
            runtime.restore_from(checkpoint_id)
            runtime.run_until_quiescent()
            runtime.trigger_checkpoint()
            outputs[transactional] = out
        eager, txn = outputs[False], outputs[True]
        key = lambda row: (row["k"], row["start"])  # noqa: E731
        assert len(eager) > len({key(r) for r in eager})  # duplicates!
        assert len(txn) == len({key(r) for r in txn})  # exactly once
        assert {key(r) for r in txn} == {key(r) for r in eager}


class TestRestoreValidation:
    def test_restore_from_unknown_checkpoint_raises_without_mutation(self):
        cluster, runtime, out = _build(21)
        producer = Producer(cluster, "workload")
        for event in _events(21, count=30):
            producer.produce("events", event, key=event["k"],
                             event_time=event["ts"])
        runtime.run_until_quiescent()
        checkpoint_id = runtime.trigger_checkpoint()
        committed = list(out)
        state_before = runtime.total_state_bytes()
        with pytest.raises(CheckpointError):
            runtime.restore_from(checkpoint_id + 17)
        # Nothing was touched: committed output intact, operator state and
        # pending transactions preserved, and the job still runs.
        assert out == committed
        assert runtime.total_state_bytes() == state_before
        producer.produce("events", {"k": "flush", "v": 0.0, "ts": FLUSH_TS},
                         key="flush", event_time=FLUSH_TS)
        runtime.run_until_quiescent()
        runtime.trigger_checkpoint()
        assert len(out) > len(committed)

    def test_fresh_runtime_restores_via_durable_completion_marker(self):
        """Job-manager recovery: a brand-new runtime (empty in-memory
        completed list) may restore a checkpoint proven complete by its
        ``__complete__`` marker blob — and nothing else."""
        clock = SimulatedClock()
        cluster = KafkaCluster(clock=clock)
        cluster.create_topic("events", TopicConfig(partitions=2))
        store = BlobStore(clock=clock)

        def make(out):
            env = StreamEnvironment()
            (
                env.from_kafka(cluster, "events", group="xonce",
                               timestamp_fn=lambda row: row["ts"])
                .key_by(lambda row: row["k"])
                .window(TumblingWindows(WINDOW))
                .aggregate(SumAggregate(lambda row: row["v"]))
                .map(lambda r: {"k": r.key, "start": r.window.start,
                                "sum": r.value})
                .sink_to_list(out, transactional=True)
            )
            return JobRuntime(env.build("marker-job"), blob_store=store,
                              clock=clock)

        first_out = []
        first = make(first_out)
        producer = Producer(cluster, "workload")
        for event in _events(9, count=30):
            producer.produce("events", event, key=event["k"],
                             event_time=event["ts"])
        first.run_until_quiescent()
        checkpoint_id = first.trigger_checkpoint()

        second = make([])
        second.restore_from(checkpoint_id)  # marker-backed: accepted
        with pytest.raises(CheckpointError):
            second.restore_from(checkpoint_id + 1)  # no marker: refused


class TestCheckpointAbort:
    def test_failed_checkpoint_cleans_up_and_next_one_succeeds(self):
        cluster, runtime, out = _build(33)
        producer = Producer(cluster, "workload")
        for event in _events(33, count=40):
            producer.produce("events", event, key=event["k"],
                             event_time=event["ts"])
        producer.produce("events", {"k": "flush", "v": 0.0, "ts": FLUSH_TS},
                         key="flush", event_time=FLUSH_TS)
        runtime.run_until_quiescent()
        buffered = sum(
            task.pending_txn_records()
            for tasks in runtime.tasks.values()
            for task in tasks
        )
        assert buffered > 0  # windows fired into the open transaction
        runtime.blob_store.set_available(False)
        with pytest.raises((CheckpointError, StorageUnavailableError)):
            runtime.trigger_checkpoint()
        # Aborted cleanly: no pending acks, no per-task completion markers,
        # no stranded barriers, records still buffered for the next epoch.
        assert runtime._pending_sink_acks == {}
        assert runtime.checkpoints_aborted == 1
        for tasks in runtime.tasks.values():
            for task in tasks:
                assert not task.completed_checkpoints
                for channel in task.inputs.values():
                    assert channel.blocked_for is None
        assert sum(
            task.pending_txn_records()
            for tasks in runtime.tasks.values()
            for task in tasks
        ) == buffered
        runtime.blob_store.set_available(True)
        checkpoint_id = runtime.trigger_checkpoint()
        assert checkpoint_id in runtime.completed_checkpoints()
        # The rolled-back records committed exactly once.
        key = lambda row: (row["k"], row["start"])  # noqa: E731
        assert len(out) == len({key(r) for r in out}) > 0
        # No partial snapshot blobs from the aborted id survived.
        aborted_prefix = runtime._checkpoint_prefix(checkpoint_id - 1)
        assert list(runtime.blob_store.list(aborted_prefix)) == []

    def test_an_abort_counts_on_its_own_runtime_only(self):
        # Two jobs on one Platform share its checkpoint store, not counts.
        platform = Platform(seed=33).with_kafka().topic("events", partitions=2)
        runtimes = []
        for name in ("first", "second"):
            env = StreamEnvironment()
            env.from_kafka(platform.kafka, "events", group=name).sink_to_list([])
            runtimes.append(platform.job(env.build(name)))
        failing, healthy = runtimes
        platform.checkpoint_store.set_available(False)
        with pytest.raises(StorageUnavailableError):
            failing.trigger_checkpoint()
        platform.checkpoint_store.set_available(True)
        healthy.trigger_checkpoint()
        assert failing.checkpoints_aborted == 1
        assert healthy.checkpoints_aborted == 0
