import pytest

from repro.common.errors import JobValidationError
from repro.common.records import Record
from repro.flink.graph import StreamEnvironment, validate_graph
from repro.flink.operators import BoundedListSource
from repro.flink.runtime import JobRuntime, SubTask
from repro.flink.windows import CountAggregate, SumAggregate, TumblingWindows
from repro.kafka.cluster import TopicConfig
from repro.storage.blobstore import BlobStore

from tests.conftest import produce_events


def bounded(elements):
    return BoundedListSource(elements)


class TestGraphValidation:
    def test_requires_source_and_sink(self):
        env = StreamEnvironment()
        stream = env.add_source(bounded([(1, 0.0)]))
        with pytest.raises(JobValidationError):
            env.build("no-sink")
        stream.sink_to_list([])
        env.build("ok")

    def test_window_requires_key_by(self):
        env = StreamEnvironment()
        stream = env.add_source(bounded([(1, 0.0)]))
        with pytest.raises(JobValidationError):
            stream.window(TumblingWindows(60.0))

    def test_topological_order(self):
        env = StreamEnvironment()
        out = []
        env.add_source(bounded([(1, 0.0)])).map(lambda v: v).sink_to_list(out)
        graph = env.build("j")
        kinds = [op.kind for op in graph.topological_order()]
        assert kinds == ["source", "map", "sink"]

    def test_zero_parallelism_rejected(self):
        env = StreamEnvironment()
        out = []
        env.add_source(bounded([(1, 0.0)])).map(
            lambda v: v, parallelism=1
        ).sink_to_list(out)
        graph = env.build("j")
        map_op = next(op for op in graph.operators.values() if op.kind == "map")
        map_op.parallelism = 0
        with pytest.raises(JobValidationError):
            validate_graph(graph)


    @pytest.mark.parametrize("kind", ["interval_join", "join"])
    def test_a_stream_joined_with_itself_is_rejected(self, kind):
        # Both edges would feed one channel per upstream subtask, and the
        # second overwrote the first: the left side was silently lost.
        env = StreamEnvironment()
        stream = env.add_source(bounded([({"id": 1}, 0.0)]), name="events")
        key = (lambda v: v["id"], lambda v: v["id"])
        if kind == "join":
            joined = stream.join(stream, key, TumblingWindows(60.0), lambda a, b: a)
        else:
            joined = stream.interval_join(stream, key, -1.0, 1.0, lambda a, b: a)
        joined.sink_to_list([])
        with pytest.raises(JobValidationError, match=f"'{kind}-0' reads 'events'"):
            env.build("self-join")


class TestRuntimeBasics:
    def test_map_filter_pipeline(self):
        env = StreamEnvironment()
        out = []
        env.add_source(bounded([(i, float(i)) for i in range(10)])) \
            .map(lambda v: v * 10) \
            .filter(lambda v: v >= 50) \
            .sink_to_list(out)
        JobRuntime(env.build("j")).run_until_quiescent()
        assert out == [50, 60, 70, 80, 90]

    def test_each_rebalance_edge_deals_its_own_round_robin(self, monkeypatch):
        # Two rebalance edges of one subtask: each deals its records in
        # turn from a cursor of its own, so each target gets within one
        # record of an even share (one shared cursor fed the
        # parallelism-2 map's subtask 1 all 20 records).
        seen = {}
        deliver = SubTask._deliver

        def spy(self, data, channel):
            if self.spec.kind == "map":
                values = seen.setdefault((self.spec.op_id, self.index), [])
                values.extend(r.value for r in data)
            return deliver(self, data, channel)

        monkeypatch.setattr(SubTask, "_deliver", spy)
        env = StreamEnvironment()
        source = env.add_source(bounded([(i, float(i)) for i in range(20)]))
        source.map(lambda v: v, parallelism=3, name="a").sink_to_list([])
        source.map(lambda v: v, parallelism=2, name="b").sink_to_list([])
        JobRuntime(env.build("fan-out")).run_until_quiescent()
        expected = {}
        for op_id, width in (("a", 3), ("b", 2)):
            for value in range(20):
                expected.setdefault((op_id, value % width), []).append(value)
        assert seen == expected
        for op_id, width in (("a", 3), ("b", 2)):
            shares = [len(seen[(op_id, i)]) for i in range(width)]
            assert max(shares) - min(shares) <= 1 and sum(shares) == 20

    def test_windowed_count(self):
        env = StreamEnvironment()
        out = []
        elements = [({"k": "a"}, float(t)) for t in range(0, 130, 10)]
        env.add_source(bounded(elements)) \
            .key_by(lambda v: v["k"]) \
            .window(TumblingWindows(60.0)) \
            .aggregate(CountAggregate()) \
            .sink_to_list(out)
        JobRuntime(env.build("j")).run_until_quiescent()
        # Bounded source emits +inf watermark: ALL windows fire.
        assert sorted(r.window.start for r in out) == [0.0, 60.0, 120.0]
        assert sum(r.value for r in out) == 13

    def test_parallel_window_operator_partitions_keys(self):
        env = StreamEnvironment()
        out = []
        elements = [({"k": f"key-{i % 7}", "x": 1.0}, float(i)) for i in range(70)]
        env.add_source(bounded(elements)) \
            .key_by(lambda v: v["k"]) \
            .window(TumblingWindows(1000.0)) \
            .aggregate(SumAggregate(lambda v: v["x"]), parallelism=3) \
            .sink_to_list(out)
        JobRuntime(env.build("j")).run_until_quiescent()
        assert len(out) == 7
        assert all(r.value == 10.0 for r in out)

    def test_kafka_source_consumes_all_partitions(self, kafka, producer, clock):
        produce_events(producer, clock, "events", 200)
        env = StreamEnvironment()
        out = []
        env.from_kafka(kafka, "events", group="g").sink_to_list(out)
        JobRuntime(env.build("j")).run_until_quiescent()
        assert len(out) == 200

    def test_source_lag_reaches_zero(self, kafka, producer, clock):
        produce_events(producer, clock, "events", 50)
        env = StreamEnvironment()
        env.from_kafka(kafka, "events", group="g").sink_to_list([])
        runtime = JobRuntime(env.build("j"))
        assert runtime.total_source_lag() == 50
        runtime.run_until_quiescent()
        assert runtime.total_source_lag() == 0

    def test_a_poll_that_resumes_from_idle_routes_every_record(self, kafka):
        # Such a poll leads with a control element (the end of idleness),
        # and with event time not advancing it ends on a record: every
        # record behind the control is routed, in order.
        kafka.create_topic("ticks", TopicConfig(partitions=1))
        env = StreamEnvironment()
        out = []
        env.from_kafka(kafka, "ticks", group="g").sink_to_list(out)
        runtime = JobRuntime(env.build("j"))
        [reader] = _source_readers(runtime)
        kafka.append_batch("ticks", 0, [Record(None, {"i": -1}, 10.0)])
        while not reader._idle:  # one empty poll per round after the first
            runtime.run_rounds(1)
        kafka.append_batch(
            "ticks", 0, [Record(None, {"i": i}, float(i)) for i in range(3)]
        )
        runtime.run_until_quiescent()
        assert out == [{"i": i} for i in range(-1, 3)]
        [source] = runtime.graph.sources()
        assert runtime.records_processed()[source.op_id] == 4

    def test_records_processed_counters(self):
        env = StreamEnvironment()
        out = []
        env.add_source(bounded([(i, float(i)) for i in range(5)]), name="src") \
            .map(lambda v: v, name="m") \
            .sink_to_list(out, name="snk")
        runtime = JobRuntime(env.build("j"))
        runtime.run_until_quiescent()
        processed = runtime.records_processed()
        assert processed["src"] == 5
        assert processed["m"] == 5
        assert processed["snk"] == 5


def _source_readers(runtime):
    return [
        task.reader
        for tasks in runtime.tasks.values()
        for task in tasks
        if task.reader is not None
    ]


class TestKafkaPollBookkeeping:
    """A poll commits its offsets and event time once, whole: a poll that
    raises consumes nothing, and a NaN timestamp is skipped as the
    watermark generator skips it."""

    @pytest.mark.parametrize("fail_at", [3, 6])  # partition 0, partition 1
    def test_a_raising_timestamp_fn_loses_no_record(self, kafka, fail_at):
        kafka.create_topic("ticks", TopicConfig(partitions=2))
        for partition in (0, 1):
            kafka.append_batch(
                "ticks",
                partition,
                [
                    Record(None, {"id": f"{partition}-{i}", "ts": 10.0 * i}, 0.0)
                    for i in range(4)
                ],
            )
        calls = []

        def timestamp_fn(row):
            calls.append(row["id"])
            if len(calls) == fail_at:
                raise ValueError("bad timestamp")
            return row["ts"]

        env = StreamEnvironment()
        out = []
        env.from_kafka(
            kafka, "ticks", group="g", parallelism=1, timestamp_fn=timestamp_fn
        ).sink_to_list(out)
        runtime = JobRuntime(env.build("j"))
        [reader] = _source_readers(runtime)
        with pytest.raises(ValueError):
            runtime.run_rounds(1)
        positions = dict(reader.positions)
        watermark = reader.watermarks.current_watermark()
        runtime.run_until_quiescent()
        assert sorted(row["id"] for row in out) == sorted(
            f"{p}-{i}" for p in (0, 1) for i in range(4)
        )
        assert positions == {0: 0, 1: 0}
        assert watermark == float("-inf")
        assert reader.positions == {0: 4, 1: 4}
        assert reader.watermarks.current_watermark() == 30.0

    def test_a_nan_timestamp_does_not_hold_the_watermark(self, kafka):
        nan = float("nan")
        kafka.create_topic("ticks", TopicConfig(partitions=1))
        kafka.append_batch(
            "ticks",
            0,
            [Record(None, {"ts": ts}, 0.0) for ts in (nan, 0.0, 20.0, 10.0, nan)],
        )
        env = StreamEnvironment()
        out = []
        env.from_kafka(
            kafka, "ticks", group="g", timestamp_fn=lambda row: row["ts"]
        ).sink_to_list(out)
        runtime = JobRuntime(env.build("j"))
        [reader] = _source_readers(runtime)
        runtime.run_until_quiescent()
        assert len(out) == 5
        assert reader.watermarks.current_watermark() == 20.0


class TestBackpressure:
    def test_bounded_channels_throttle_source(self, kafka, producer, clock):
        produce_events(producer, clock, "events", 2000)
        env = StreamEnvironment()
        out = []
        env.from_kafka(kafka, "events", group="g") \
            .map(lambda v: v) \
            .sink_to_list(out)
        runtime = JobRuntime(env.build("j"), channel_capacity=50)
        runtime.run_rounds(1, budget_per_task=10)
        # Source cannot run ahead of the bounded channels.
        assert runtime.total_buffered_elements() <= 4 * (50 + 110)
        stalls_before = runtime.backpressure_stalls
        runtime.run_until_quiescent()
        assert len(out) == 2000
        assert runtime.backpressure_stalls >= stalls_before


class TestCheckpoints:
    def _job(self, kafka):
        env = StreamEnvironment()
        out = []
        env.from_kafka(kafka, "events", group="g") \
            .key_by(lambda v: f"k{v['i'] % 3}") \
            .window(TumblingWindows(60.0)) \
            .aggregate(CountAggregate()) \
            .sink_to_list(out)
        return env.build("ckpt-job"), out

    def test_checkpoint_completes_and_persists(self, kafka, producer, clock):
        produce_events(producer, clock, "events", 100)
        graph, __ = self._job(kafka)
        store = BlobStore()
        runtime = JobRuntime(graph, blob_store=store)
        runtime.run_until_quiescent()
        checkpoint = runtime.trigger_checkpoint()
        assert checkpoint in runtime.completed_checkpoints()
        assert store.list(f"checkpoints/{graph.name}/{checkpoint}/")

    def test_restore_resumes_from_offsets(self, kafka, producer, clock):
        produce_events(producer, clock, "events", 100)
        graph, out = self._job(kafka)
        runtime = JobRuntime(graph, blob_store=BlobStore())
        runtime.run_until_quiescent()
        checkpoint = runtime.trigger_checkpoint()
        results_at_checkpoint = len(out)
        produce_events(producer, clock, "events", 60)
        runtime.restore_from(checkpoint)
        runtime.run_until_quiescent()
        # New windows fired after restore; nothing was lost.
        assert len(out) > results_at_checkpoint
        total = sum(r.value for r in out[results_at_checkpoint:])
        assert total >= 60  # every post-checkpoint record counted

    def test_restore_is_consistent_for_state(self, kafka, producer, clock):
        """Counts never go missing: restore + reprocess >= exactly-once
        for internal state (sinks are at-least-once)."""
        produce_events(producer, clock, "events", 30)
        graph, out = self._job(kafka)
        runtime = JobRuntime(graph, blob_store=BlobStore())
        checkpoint = runtime.trigger_checkpoint()  # before any processing
        runtime.run_until_quiescent()
        first_total = sum(r.value for r in out)
        out.clear()
        runtime.restore_from(checkpoint)
        runtime.run_until_quiescent()
        assert sum(r.value for r in out) == first_total

    def test_checkpoint_without_store_fails(self, kafka, producer, clock):
        produce_events(producer, clock, "events", 10)
        graph, __ = self._job(kafka)
        runtime = JobRuntime(graph)
        from repro.common.errors import CheckpointError

        with pytest.raises(CheckpointError):
            runtime.trigger_checkpoint()
