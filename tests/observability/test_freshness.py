"""Unit tests for the freshness report."""

import pytest

from repro.observability.freshness import FreshnessReport, nearest_rank


class TestFreshnessReport:
    def test_nearest_rank_percentiles(self):
        report = FreshnessReport.from_samples([float(i) for i in range(1, 101)])
        assert report.percentile(50) == 50.0
        assert report.percentile(99) == 99.0
        assert report.percentile(100) == 100.0
        assert report.percentile(1) == 1.0

    def test_single_sample_is_every_percentile(self):
        report = FreshnessReport.from_samples([3.0])
        assert report.p50 == 3.0
        assert report.p99 == 3.0
        assert report.max == 3.0

    def test_samples_sorted_on_construction(self):
        report = FreshnessReport.from_samples([9.0, 1.0, 5.0])
        assert report.samples == (1.0, 5.0, 9.0)
        assert report.mean == 5.0
        assert report.count == 3

    def test_matches_nearest_rank(self):
        # The report, the SLO monitor, admission control and the span
        # summary share one rule, so their numbers compare one-for-one.
        samples = [32.0, 0.5, 4.0, 1.0, 16.0, 2.0, 8.0]
        report = FreshnessReport.from_samples(samples)
        for pct in (1, 25, 50, 75, 90, 99, 100):
            assert report.percentile(pct) == nearest_rank(sorted(samples), pct)
        assert nearest_rank(sorted(samples), 75) == 16.0  # rank ceil(5.25) = 6

    def test_empty_report_raises(self):
        report = FreshnessReport.from_samples([])
        with pytest.raises(ValueError):
            report.p50

    def test_render_mentions_percentiles(self):
        text = FreshnessReport.from_samples([1.0, 2.0]).render()
        assert "p50" in text and "p99" in text
