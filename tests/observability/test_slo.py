"""Unit tests for SLO targets and the monitor dashboard."""

from repro.observability.freshness import FreshnessReport
from repro.observability.slo import TABLE1_SLOS, SloMonitor, SloTarget


class TestSloEvaluation:
    def test_met_and_violated(self):
        monitor = SloMonitor([SloTarget("surge", "freshness", 99, 10.0)])
        for value in (1.0, 2.0, 3.0):
            monitor.observe("surge", "freshness", value)
        [ev] = monitor.evaluate()
        assert ev.observed == 3.0
        assert ev.met is True
        assert ev.status == "OK"
        monitor.observe("surge", "freshness", 50.0)
        [ev] = monitor.evaluate()
        assert ev.met is False
        assert ev.status == "VIOLATED"
        assert monitor.violations() == [ev]

    def test_no_data_is_not_a_violation(self):
        monitor = SloMonitor([SloTarget("surge", "freshness", 99, 10.0)])
        [ev] = monitor.evaluate()
        assert ev.observed is None
        assert ev.met is None
        assert ev.status == "NO DATA"
        assert monitor.violations() == []

    def test_percentile_respects_target(self):
        # p50 target ignores the slow tail that would fail a p99 target.
        monitor = SloMonitor([SloTarget("dash", "query_latency", 50, 1.0)])
        for value in [0.1] * 9 + [60.0]:
            monitor.observe("dash", "query_latency", value)
        [ev] = monitor.evaluate()
        assert ev.met is True

    def test_ingest_report(self):
        monitor = SloMonitor([SloTarget("surge", "freshness", 99, 10.0)])
        monitor.ingest_report(
            "surge", FreshnessReport.from_samples([1.0, 2.0, 3.0])
        )
        [ev] = monitor.evaluate()
        assert ev.sample_count == 3


class TestTable1Targets:
    def test_all_four_use_cases_registered(self):
        monitor = SloMonitor.with_table1_targets()
        use_cases = {t.use_case for t in monitor.targets()}
        assert use_cases == {
            "surge_pricing",
            "eats_dashboard",
            "ads_attribution",
            "exploration",
        }
        assert len(monitor.targets()) == len(TABLE1_SLOS)

    def test_render_has_one_row_per_target(self):
        monitor = SloMonitor.with_table1_targets()
        monitor.observe("surge_pricing", "freshness", 5.0)
        text = monitor.render()
        lines = text.splitlines()
        assert len(lines) == 2 + len(TABLE1_SLOS)  # header + rule + rows
        assert any("OK" in line for line in lines)
        assert any("NO DATA" in line for line in lines)
