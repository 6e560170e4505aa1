"""Unit tests for SLO-tiered admission control and load shedding."""

from repro.controlplane.admission import (
    TIER_ORDER,
    TIER_QUERY_SLOS,
    AdmissionController,
    DecisionLog,
    TokenBucket,
    tier_of,
)
from repro.controlplane.admission import QueryRequest


def _request(use_case: str, t: float, rid: str = "r") -> QueryRequest:
    return QueryRequest(
        request_id=rid, user_id="user-000000001",
        use_case=use_case, arrival_time=t, param=0,
    )


class TestTiers:
    def test_order_protects_surge_pricing_first(self):
        assert TIER_ORDER[0] == "surge_pricing"
        assert TIER_ORDER[-1] == "exploration"

    def test_unknown_use_case_is_lowest_tier(self):
        assert tier_of("brand_new_team") == len(TIER_ORDER) - 1

    def test_targets_cover_every_tier(self):
        assert {t.use_case for t in TIER_QUERY_SLOS} == set(TIER_ORDER)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst exhausted
        assert bucket.try_take(1.0)  # one second refills one token
        assert not bucket.try_take(1.0)

    def test_level_capped_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.try_take(0.0)
        assert bucket.try_take(100.0)
        assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)  # only burst, not rate*dt


class TestRateLimiting:
    def test_tier_over_budget_is_shed(self):
        ctrl = AdmissionController(
            tier_rates={"exploration": 1.0}, tier_burst=2.0
        )
        decisions = [
            ctrl.admit(_request("exploration", 0.0, f"r{i}")) for i in range(4)
        ]
        assert [d.admitted for d in decisions] == [True, True, False, False]
        assert decisions[2].reason == "rate-limit"
        # Other tiers are not rate-limited by exploration's budget.
        assert ctrl.admit(_request("surge_pricing", 0.0)).admitted

    def test_rate_limited_tier_recovers(self):
        ctrl = AdmissionController(
            tier_rates={"exploration": 1.0}, tier_burst=1.0
        )
        assert ctrl.admit(_request("exploration", 0.0)).admitted
        assert not ctrl.admit(_request("exploration", 0.1)).admitted
        assert ctrl.admit(_request("exploration", 2.0)).admitted


class TestReactiveShedding:
    def _drive_p99(self, ctrl: AdmissionController, latency: float, now: float):
        for __ in range(ctrl.min_samples):
            ctrl.observe_latency("surge_pricing", latency, now)

    def test_p99_breach_raises_shed_level_bottom_first(self):
        ctrl = AdmissionController(hold_s=0.0)
        target = ctrl.targets["surge_pricing"].target_seconds
        self._drive_p99(ctrl, 0.9 * target, 1.0)
        assert ctrl.shed_level >= 1
        assert not ctrl.admit(_request("exploration", 1.0)).admitted
        assert ctrl.admit(_request("surge_pricing", 1.0)).admitted

    def test_top_tier_is_never_shed(self):
        ctrl = AdmissionController(hold_s=0.0)
        target = ctrl.targets["surge_pricing"].target_seconds
        for now in range(1, 20):
            self._drive_p99(ctrl, 10 * target, float(now))
        assert ctrl.shed_level == len(TIER_ORDER) - 1
        assert ctrl.admit(_request("surge_pricing", 20.0)).admitted
        assert not ctrl.admit(_request("eats_dashboard", 20.0)).admitted

    def test_recovery_releases_the_gate(self):
        ctrl = AdmissionController(hold_s=0.0)
        target = ctrl.targets["surge_pricing"].target_seconds
        self._drive_p99(ctrl, 0.9 * target, 1.0)
        assert ctrl.shed_level >= 1
        for now in range(2, 12):
            self._drive_p99(ctrl, 0.05 * target, float(now))
        assert ctrl.shed_level == 0
        assert ctrl.admit(_request("exploration", 12.0)).admitted

    def test_hold_s_rate_limits_level_changes(self):
        ctrl = AdmissionController(hold_s=100.0)
        target = ctrl.targets["surge_pricing"].target_seconds
        self._drive_p99(ctrl, 10 * target, 1.0)
        self._drive_p99(ctrl, 10 * target, 2.0)  # within hold window
        assert ctrl.shed_level == 1

    def test_other_tiers_do_not_drive_the_guard(self):
        ctrl = AdmissionController(hold_s=0.0)
        for __ in range(ctrl.min_samples * 2):
            ctrl.observe_latency("exploration", 1_000.0, 1.0)
        assert ctrl.shed_level == 0


class TestPressureShedding:
    def test_queue_pressure_sheds_immediately(self):
        pressure = {"v": 0.0}
        ctrl = AdmissionController(
            pressure=lambda: pressure["v"], pressure_levels=(0.25, 0.5, 1.0)
        )
        assert ctrl.admit(_request("exploration", 0.0)).admitted
        pressure["v"] = 0.3  # level 1: exploration shed, others pass
        assert not ctrl.admit(_request("exploration", 0.1)).admitted
        assert ctrl.admit(_request("ads_attribution", 0.1)).admitted
        pressure["v"] = 2.0  # level 3: everything but the top tier
        assert not ctrl.admit(_request("eats_dashboard", 0.2)).admitted
        assert ctrl.admit(_request("surge_pricing", 0.2)).admitted
        pressure["v"] = 0.0  # releases instantly with the queue
        assert ctrl.admit(_request("exploration", 0.3)).admitted


class TestDecisionLog:
    def test_sheds_and_level_changes_are_logged(self):
        log = DecisionLog()
        ctrl = AdmissionController(hold_s=0.0, log=log)
        target = ctrl.targets["surge_pricing"].target_seconds
        for __ in range(ctrl.min_samples):
            ctrl.observe_latency("surge_pricing", 0.9 * target, 1.0)
        ctrl.admit(_request("exploration", 1.0, "req-x"))
        text = log.render()
        assert "shed_raise" in text
        assert "req-x" in text

    def test_render_is_deterministic(self):
        def build() -> str:
            log = DecisionLog()
            ctrl = AdmissionController(hold_s=0.0, log=log)
            target = ctrl.targets["surge_pricing"].target_seconds
            for __ in range(ctrl.min_samples):
                ctrl.observe_latency("surge_pricing", 0.9 * target, 1.0)
            for i in range(5):
                ctrl.admit(_request("exploration", 1.0 + i, f"r{i}"))
            return log.render()

        assert build() == build()
