"""The controlplane_surge scenario: SLO outcomes and registration."""

from __future__ import annotations

from repro.bench.scenarios import SCENARIOS
from repro.common.serde import digest
from repro.controlplane.admission import TIER_ORDER
from tests.controlplane.surge_fixtures import (
    SCATTER_RUN,
    ablation_run,
    controlled_run,
)


class TestSloOutcomes:
    def test_control_holds_the_top_tier_slo(self):
        report = controlled_run()
        top = report.per_tier["surge_pricing"]
        assert top["count"] > 0
        assert top["met"], (
            f"surge_pricing p{top['p']:.0%} = {top['latency']:.2f}s "
            f"exceeded its {top['target']:.2f}s target under control"
        )

    def test_ablation_violates_the_top_tier_slo(self):
        report = ablation_run()
        top = report.per_tier["surge_pricing"]
        assert top["count"] > 0
        assert not top["met"]  # the spike is genuinely past capacity

    def test_control_reports_every_tier(self):
        report = controlled_run()
        assert set(report.per_tier) == set(TIER_ORDER)
        assert all(entry["count"] > 0 for entry in report.per_tier.values())


class TestStickyInvisibility:
    """Sticky routing is invisible in decisions and results: they are
    byte-identical to the scatter run recorded before that path was
    deleted; only the cache/latency telemetry differs."""

    def test_sticky_and_scatter_agree_on_every_digested_byte(self):
        sticky = controlled_run()
        assert sticky.check == SCATTER_RUN["check"]
        assert (sticky.admitted, sticky.shed) == (
            SCATTER_RUN["admitted"],
            SCATTER_RUN["shed"],
        )
        assert (
            digest(sorted(sticky.query_digests.items()))
            == SCATTER_RUN["query_digests"]
        )
        assert digest(sticky.decision_log) == SCATTER_RUN["decision_log"]

    def test_sticky_run_engages_the_locality_caches(self):
        stats = controlled_run().cache_stats
        assert stats["scan_share"]["hits"] > 0
        assert 0.0 < stats["scan_share"]["hit_rate"] <= 1.0
        assert stats["queue"]["sticky_submits"] > 0
        assert stats["stage_artifacts"]["hits"] > 0
        # Every tier reports the one stats shape.
        shape = set(stats["stage_artifacts"])
        assert shape == set(stats["scan_share"])
        assert shape | {"per_tier"} == set(stats["broker"])
        # Per-tier broker cache attribution covers every queried tier.
        assert set(stats["broker"]["per_tier"]) <= set(TIER_ORDER)
        assert stats["broker"]["hits"] + stats["broker"]["misses"] > 0


class TestScenarioRegistration:
    def _spec(self):
        spec = next(
            (s for s in SCENARIOS if s.name == "controlplane_surge"), None
        )
        assert spec is not None, "controlplane_surge missing from SCENARIOS"
        return spec

    def test_scenario_produces_an_outcome(self):
        # Drive the scenario fn through the cached small run's params to
        # confirm the Outcome plumbing (records/check) is wired.
        from tests.controlplane.surge_fixtures import SMALL_PARAMS, SEED

        spec = self._spec()
        assert spec.params["control"]  # the gated run is the controlled one
        outcome = spec.fn(dict(SMALL_PARAMS, control=True), SEED)
        assert outcome.records == controlled_run().requests
        assert outcome.check == controlled_run().check
