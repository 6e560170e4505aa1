"""Job server, autoscaler, watchdog and engine baselines."""

import pytest

from benchmarks.foils.backlog import (
    recovery_comparison,
    simulate_flink_recovery,
    simulate_storm_recovery,
)
from benchmarks.foils.spark import MicroBatchEngine
from repro.common.errors import JobValidationError
from repro.flink.autoscaler import (
    AutoScaler,
    JobProfile,
    classify_job,
    estimate_resources,
)
from repro.flink.graph import StreamEnvironment
from repro.flink.jobserver import JobPriority, JobServer, JobState
from repro.flink.operators import BoundedListSource
from repro.flink.watchdog import Rule, Watchdog
from repro.flink.windows import CountAggregate, SumAggregate, TumblingWindows

from tests.conftest import produce_events


def stateless_graph(name="stateless"):
    env = StreamEnvironment()
    env.add_source(BoundedListSource([(i, float(i)) for i in range(10)])) \
        .map(lambda v: v + 1) \
        .sink_to_list([])
    return env.build(name)


def windowed_graph(name="windowed"):
    env = StreamEnvironment()
    env.add_source(BoundedListSource([({"k": "a"}, float(i)) for i in range(10)])) \
        .key_by(lambda v: v["k"]) \
        .window(TumblingWindows(60.0)) \
        .aggregate(CountAggregate()) \
        .sink_to_list([])
    return env.build(name)


def join_graph(name="joined"):
    env = StreamEnvironment()
    left = env.add_source(BoundedListSource([({"id": 1}, 0.0)]))
    right = env.add_source(BoundedListSource([({"id": 1}, 1.0)]))
    left.join(
        right,
        key_fns=(lambda l: l["id"], lambda r: r["id"]),
        assigner=TumblingWindows(60.0),
        join_fn=lambda l, r: (l, r),
    ).sink_to_list([])
    return env.build(name)


class TestJobServer:
    def _server(self):
        server = JobServer()
        server.add_cluster("main", total_slots=10)
        return server

    def test_submit_runs_and_lists(self):
        server = self._server()
        job_id = server.submit(stateless_graph())
        assert server.get(job_id).state is JobState.RUNNING
        assert [j.job_id for j in server.list_jobs(JobState.RUNNING)] == [job_id]
        progress = server.run_all(rounds=100)
        assert progress[job_id] > 0

    def test_no_cluster_rejected(self):
        server = JobServer()
        with pytest.raises(JobValidationError):
            server.submit(stateless_graph())

    def test_capacity_enforced_for_normal_jobs(self):
        server = JobServer()
        server.add_cluster("small", total_slots=2)
        server.submit(stateless_graph("a"), slots=2)
        with pytest.raises(JobValidationError):
            server.submit(stateless_graph("b"), slots=2)

    def test_critical_jobs_oversubscribe(self):
        server = JobServer()
        server.add_cluster("small", total_slots=2)
        server.submit(stateless_graph("a"), slots=2)
        job_id = server.submit(
            stateless_graph("b"), priority=JobPriority.CRITICAL, slots=2
        )
        assert server.get(job_id).state is JobState.RUNNING

    def test_stop_with_savepoint_releases_slots(self, kafka, producer, clock):
        produce_events(producer, clock, "events", 20)
        env = StreamEnvironment()
        env.from_kafka(kafka, "events", group="g").sink_to_list([])
        server = self._server()
        job_id = server.submit(env.build("k-job"))
        server.run_all(rounds=100)
        savepoint = server.stop(job_id)
        assert savepoint is not None
        assert server.get(job_id).state is JobState.STOPPED
        assert server.clusters["main"].used_slots == 0

    def test_recover_restores_from_checkpoint(self, kafka, producer, clock):
        produce_events(producer, clock, "events", 50)
        env = StreamEnvironment()
        out = []
        env.from_kafka(kafka, "events", group="g").sink_to_list(out)
        server = self._server()
        job_id = server.submit(env.build("rec-job"))
        server.run_all(rounds=200)
        server.checkpoint(job_id)
        server.mark_failed(job_id)
        assert server.recover(job_id)
        job = server.get(job_id)
        assert job.state is JobState.RUNNING
        assert job.restarts == 1
        server.run_all(rounds=200)

    def test_health_snapshot_shape(self):
        server = self._server()
        job_id = server.submit(stateless_graph())
        snapshot = server.health_snapshot()
        assert {"state_bytes", "buffered_elements", "source_lag", "running"} \
            <= set(snapshot[job_id])


class TestAutoscaler:
    def test_classification(self):
        assert classify_job(stateless_graph()) is JobProfile.STATELESS_CPU_BOUND
        assert classify_job(windowed_graph()) is JobProfile.WINDOWED_MIXED
        assert classify_job(join_graph()) is JobProfile.JOIN_MEMORY_BOUND

    def test_join_estimates_more_memory_than_stateless(self):
        stateless = estimate_resources(stateless_graph(), expected_rate=10_000,
                                       expected_keys=50_000)
        join = estimate_resources(join_graph(), expected_rate=10_000,
                                  expected_keys=50_000)
        assert join.memory_mb > stateless.memory_mb

    def test_cpu_scales_with_rate(self):
        low = estimate_resources(stateless_graph(), expected_rate=1000)
        high = estimate_resources(stateless_graph(), expected_rate=50_000)
        assert high.cpu_cores > low.cpu_cores
        assert high.parallelism > low.parallelism

    def test_scale_up_on_growing_lag(self):
        scaler = AutoScaler(scale_up_lag_threshold=100)
        scaler.evaluate(parallelism=2, source_lag=150, state_bytes=0)
        decision = scaler.evaluate(parallelism=2, source_lag=300, state_bytes=0)
        assert decision.action == "scale_up"
        assert decision.new_parallelism == 4

    def test_scale_up_on_memory_pressure(self):
        scaler = AutoScaler(memory_budget_bytes=1000)
        decision = scaler.evaluate(parallelism=2, source_lag=0, state_bytes=5000)
        assert decision.action == "scale_up"
        assert "memory" in decision.reason

    def test_scale_down_off_peak(self):
        scaler = AutoScaler()
        decision = scaler.evaluate(
            parallelism=8, source_lag=0, state_bytes=0,
            input_rate=100.0, capacity_per_subtask=5000.0,
        )
        assert decision.action == "scale_down"
        assert decision.new_parallelism == 4

    def test_hold_within_targets(self):
        scaler = AutoScaler()
        decision = scaler.evaluate(
            parallelism=4, source_lag=0, state_bytes=0,
            input_rate=10_000.0, capacity_per_subtask=5000.0,
        )
        assert decision.action == "hold"

    def test_respects_max_parallelism(self):
        scaler = AutoScaler(memory_budget_bytes=1, max_parallelism=4)
        decision = scaler.evaluate(
            parallelism=4, source_lag=0, state_bytes=100,
            input_rate=10_000.0, capacity_per_subtask=5000.0,
        )
        assert decision.action == "hold"

    def test_first_evaluation_above_threshold_scales_up(self):
        # A job that is already drowning must not get a free pass just
        # because the scaler has no earlier sample to compare against.
        scaler = AutoScaler(scale_up_lag_threshold=100)
        decision = scaler.evaluate(parallelism=2, source_lag=500, state_bytes=0)
        assert decision.action == "scale_up"

    def test_shrinking_lag_above_threshold_holds(self):
        # With history, a draining backlog (lag shrinking) means current
        # parallelism is winning: no scale-up.
        scaler = AutoScaler(scale_up_lag_threshold=100)
        scaler.evaluate(parallelism=2, source_lag=500, state_bytes=0)
        decision = scaler.evaluate(parallelism=2, source_lag=300, state_bytes=0)
        assert decision.action == "hold"

    def test_lag_history_is_per_job(self):
        # Job A's huge lag must not make job B's smaller-but-growing lag
        # look like it is shrinking (the shared-scalar contamination bug).
        scaler = AutoScaler(scale_up_lag_threshold=100)
        scaler.evaluate(parallelism=2, source_lag=150, state_bytes=0, job_id="a")
        scaler.evaluate(
            parallelism=2, source_lag=10_000, state_bytes=0, job_id="b"
        )
        decision = scaler.evaluate(
            parallelism=2, source_lag=300, state_bytes=0, job_id="a"
        )
        assert decision.action == "scale_up"


class TestWatchdog:
    def test_restarts_stuck_job(self, kafka, producer, clock):
        produce_events(producer, clock, "events", 100)
        env = StreamEnvironment()
        env.from_kafka(kafka, "events", group="g").sink_to_list([])
        server = JobServer()
        server.add_cluster("main", 10)
        job_id = server.submit(env.build("stuck-job"))
        watchdog = Watchdog(server, stuck_cycles_before_restart=2)
        # Never run the job: lag stays pinned -> watchdog restarts it.
        for __ in range(4):
            watchdog.evaluate_once()
        assert any(e.rule == "stuck-job" for e in watchdog.events)
        assert server.get(job_id).restarts >= 1

    def test_healthy_job_untouched(self, kafka, producer, clock):
        produce_events(producer, clock, "events", 50)
        env = StreamEnvironment()
        env.from_kafka(kafka, "events", group="g").sink_to_list([])
        server = JobServer()
        server.add_cluster("main", 10)
        job_id = server.submit(env.build("healthy"))
        watchdog = Watchdog(server, stuck_cycles_before_restart=2)
        for __ in range(5):
            server.run_all(rounds=50)
            watchdog.evaluate_once()
        assert server.get(job_id).restarts == 0

    def test_custom_rule_fires(self):
        server = JobServer()
        server.add_cluster("main", 10)
        job_id = server.submit(stateless_graph())
        watchdog = Watchdog(server)
        watchdog.add_rule(
            Rule("always", condition=lambda m: True, action="alert")
        )
        events = watchdog.evaluate_once()
        assert any(e.rule == "always" and e.job_id == job_id for e in events)


class TestBacklogRecovery:
    def test_flink_recovery_time_is_backlog_over_rate(self):
        result = simulate_flink_recovery(backlog=100_000, service_rate=1000.0)
        assert result.recovery_seconds == pytest.approx(100.0, rel=0.05)
        assert result.wasted_work == 0

    def test_storm_replay_much_slower_with_wasted_work(self):
        results = recovery_comparison(
            backlog=200_000, service_rate=1000.0, ack_timeout=30.0
        )
        flink, storm = results["flink"], results["storm-replay"]
        assert storm.recovery_seconds > 3 * flink.recovery_seconds
        assert storm.wasted_work > 0
        assert storm.completed == 200_000  # no loss, just waste
        assert storm.goodput_fraction() < 0.8

    def test_storm_drop_is_fast_but_lossy(self):
        result = simulate_storm_recovery(
            backlog=200_000, service_rate=1000.0, ack_timeout=30.0, replay=False
        )
        assert result.lost > 0
        assert result.completed + result.lost == 200_000

    def test_flink_requires_headroom(self):
        with pytest.raises(ValueError):
            simulate_flink_recovery(
                backlog=1000, service_rate=100.0, arrival_rate=200.0
            )

    def test_flink_peak_queue_bounded_by_credits(self):
        result = simulate_flink_recovery(
            backlog=1_000_000, service_rate=1000.0, buffer_capacity=5000
        )
        assert result.peak_queue_length <= 5000


class TestMicroBatchBaseline:
    def _events(self, n=2000, keys=5):
        return [
            ({"k": f"key-{i % keys}", "x": 1.0}, float(i) * 0.1, None)
            for i in range(n)
        ]

    def test_same_results_as_streaming_semantics(self):
        engine = MicroBatchEngine(
            key_fn=lambda v: v["k"],
            window_size=60.0,
            aggregator=CountAggregate(),
            batch_interval=10.0,
        )
        for value, timestamp, __ in self._events():
            engine.ingest(value, timestamp)
        engine.flush()
        total = sum(r.value for r in engine.results)
        assert total == 2000

    def test_micro_batching_uses_more_memory_than_state_only(self):
        engine = MicroBatchEngine(
            key_fn=lambda v: v["k"],
            window_size=60.0,
            aggregator=SumAggregate(lambda v: v["x"]),
            batch_interval=30.0,
            retained_batches=2,
        )
        for value, timestamp, __ in self._events(5000):
            engine.ingest(value, timestamp)
        engine.flush()
        # Peak memory must reflect buffered raw batches, far above the
        # handful of per-key accumulators.
        from repro.common.memory import deep_sizeof

        accumulators_only = deep_sizeof(
            {f"key-{i}": 0.0 for i in range(5)}
        )
        assert engine.memory_bytes() > 20 * accumulators_only
