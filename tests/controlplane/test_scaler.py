"""Unit tests for the cross-layer controller and the queue model."""

from repro.controlplane.admission import DecisionLog
from benchmarks.core.queueing import QueryQueue
from repro.controlplane.scaler import CrossLayerController, ResourcePolicy


class _Resource:
    """A fake scalable resource with a settable load signal."""

    def __init__(self, units: int = 2) -> None:
        self.units = units
        self.load = 0.0

    def policy(self, **overrides) -> ResourcePolicy:
        kwargs = dict(
            name="fake",
            signal=lambda: self.load,
            current=lambda: self.units,
            apply=lambda n: setattr(self, "units", n),
            scale_up_threshold=10.0,
            scale_down_threshold=1.0,
            cooldown_s=5.0,
            stable_evals=3,
        )
        kwargs.update(overrides)
        return ResourcePolicy(**kwargs)


class TestResourcePolicies:
    def test_scale_up_doubles_units(self):
        res = _Resource(units=2)
        ctrl = CrossLayerController()
        ctrl.add_policy(res.policy())
        res.load = 50.0
        assert ctrl.evaluate(0.0) == 1
        assert res.units == 4

    def test_cooldown_blocks_consecutive_actions(self):
        res = _Resource(units=2)
        ctrl = CrossLayerController()
        ctrl.add_policy(res.policy(cooldown_s=10.0))
        res.load = 50.0
        ctrl.evaluate(0.0)
        assert ctrl.evaluate(5.0) == 0  # inside cooldown
        assert res.units == 4
        assert ctrl.evaluate(10.0) == 1  # cooldown elapsed
        assert res.units == 8

    def test_scale_down_needs_stable_quiet_evals(self):
        res = _Resource(units=8)
        ctrl = CrossLayerController()
        ctrl.add_policy(res.policy(stable_evals=3, cooldown_s=0.0))
        res.load = 0.5
        assert ctrl.evaluate(1.0) == 0
        assert ctrl.evaluate(2.0) == 0
        assert ctrl.evaluate(3.0) == 1  # third consecutive quiet eval
        assert res.units == 4

    def test_load_blip_resets_the_quiet_streak(self):
        res = _Resource(units=8)
        ctrl = CrossLayerController()
        ctrl.add_policy(res.policy(stable_evals=3, cooldown_s=0.0))
        res.load = 0.5
        ctrl.evaluate(1.0)
        ctrl.evaluate(2.0)
        res.load = 5.0  # neither band: resets the streak
        ctrl.evaluate(3.0)
        res.load = 0.5
        ctrl.evaluate(4.0)
        assert ctrl.evaluate(5.0) == 0
        assert res.units == 8

    def test_max_units_caps_growth(self):
        res = _Resource(units=6)
        ctrl = CrossLayerController()
        ctrl.add_policy(res.policy(max_units=8, cooldown_s=0.0))
        res.load = 50.0
        ctrl.evaluate(0.0)
        assert res.units == 8
        assert ctrl.evaluate(1.0) == 0  # already at the cap

    def test_none_scale_down_threshold_never_shrinks(self):
        res = _Resource(units=4)
        ctrl = CrossLayerController()
        ctrl.add_policy(
            res.policy(scale_down_threshold=None, cooldown_s=0.0)
        )
        res.load = 0.0
        for now in range(10):
            ctrl.evaluate(float(now))
        assert res.units == 4

    def test_actions_land_in_the_decision_log(self):
        log = DecisionLog()
        res = _Resource(units=2)
        ctrl = CrossLayerController(log=log)
        ctrl.add_policy(res.policy())
        res.load = 50.0
        ctrl.evaluate(7.0)
        assert "scale_up" in log.render()
        assert "fake" in log.render()


class TestFlinkIntegration:
    def test_flink_job_scales_through_autoscaler(self):
        ctrl = CrossLayerController(flink_cooldown_s=0.0)
        ctrl.autoscaler.scale_up_lag_threshold = 100
        job = {"units": 2, "lag": 500.0}
        ctrl.add_flink_job(
            "j1",
            lag=lambda: job["lag"],
            state_bytes=lambda: 0.0,
            current=lambda: job["units"],
            apply=lambda n: job.update(units=n),
        )
        assert ctrl.evaluate(0.0) == 1  # first observation already acts
        assert job["units"] == 4

    def test_two_jobs_keep_independent_lag_trends(self):
        ctrl = CrossLayerController(flink_cooldown_s=0.0)
        ctrl.autoscaler.scale_up_lag_threshold = 100
        a = {"units": 2, "lag": 150.0}
        b = {"units": 2, "lag": 10_000.0}
        for name, job in (("a", a), ("b", b)):
            ctrl.add_flink_job(
                name,
                lag=lambda job=job: job["lag"],
                state_bytes=lambda: 0.0,
                current=lambda job=job: job["units"],
                apply=lambda n, job=job: job.update(units=n),
            )
        ctrl.evaluate(0.0)  # both scale on first sight of their backlog
        a["lag"], b["lag"] = 300.0, 50.0  # a grows, b drains
        assert ctrl.evaluate(1.0) == 1
        assert a["units"] == 8  # 2 -> 4 -> 8
        assert b["units"] == 4  # only the first action

    def test_flink_cooldown_still_observes_lag(self):
        ctrl = CrossLayerController(flink_cooldown_s=100.0)
        ctrl.autoscaler.scale_up_lag_threshold = 100
        job = {"units": 2, "lag": 500.0}
        ctrl.add_flink_job(
            "j1",
            lag=lambda: job["lag"],
            state_bytes=lambda: 0.0,
            current=lambda: job["units"],
            apply=lambda n: job.update(units=n),
        )
        ctrl.evaluate(0.0)
        assert job["units"] == 4
        job["lag"] = 1_000.0
        ctrl.evaluate(1.0)  # cooldown: observes but does not act
        assert job["units"] == 4
        job["lag"] = 900.0  # shrinking by the time cooldown expires
        ctrl.evaluate(200.0)
        assert job["units"] == 4  # trend stayed continuous: no action


class TestQueryQueue:
    def test_latency_appears_under_overload(self):
        queue = QueryQueue(workers=1)
        __, c1 = queue.submit(0.0, 1.0)
        __, c2 = queue.submit(0.0, 1.0)
        assert (c1, c2) == (1.0, 2.0)

    def test_parallel_workers_absorb_burst(self):
        queue = QueryQueue(workers=2)
        __, c1 = queue.submit(0.0, 1.0)
        __, c2 = queue.submit(0.0, 1.0)
        assert c1 == c2 == 1.0

    def test_idle_worker_starts_at_arrival(self):
        queue = QueryQueue(workers=1)
        queue.submit(0.0, 1.0)
        start, completion = queue.submit(5.0, 1.0)
        assert (start, completion) == (5.0, 6.0)

    def test_grow_adds_idle_capacity(self):
        queue = QueryQueue(workers=1)
        queue.submit(0.0, 10.0)
        queue.set_workers(2)
        start, __ = queue.submit(1.0, 1.0)
        assert start == 1.0

    def test_shrink_keeps_earliest_free_workers(self):
        queue = QueryQueue(workers=3)
        queue.submit(0.0, 10.0)
        queue.set_workers(1)
        start, __ = queue.submit(0.0, 1.0)
        assert start == 0.0  # the busy slot was dropped, idle one kept

    def test_backlog_signal(self):
        queue = QueryQueue(workers=2)
        queue.submit(0.0, 4.0)
        assert queue.backlog_per_worker(0.0) == 2.0
        assert queue.backlog_per_worker(10.0) == 0.0
