import math

import pytest

from repro.common.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter().value == 0

    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestGauge:
    def test_tracks_value_and_max(self):
        gauge = Gauge()
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.max_value == 5.0

    def test_add(self):
        gauge = Gauge()
        gauge.add(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0
        assert gauge.max_value == 3.0


class TestHistogram:
    def test_percentiles_exact(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0

    def test_percentile_out_of_range(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_empty_histogram_is_nan(self):
        hist = Histogram()
        assert math.isnan(hist.percentile(50))
        assert math.isnan(hist.mean)

    def test_mean_min_max(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.mean == 2.0
        assert hist.min == 1.0
        assert hist.max == 3.0

    def test_count_at_or_below(self):
        hist = Histogram()
        for value in (1.0, 2.0, 2.0, 5.0):
            hist.observe(value)
        assert hist.count_at_or_below(2.0) == 3
        assert hist.count_at_or_below(0.5) == 0

    def test_unsorted_observations(self):
        hist = Histogram()
        for value in (9.0, 1.0, 5.0):
            hist.observe(value)
        assert hist.percentile(0) == 1.0
        assert hist.max == 9.0

    def test_observe_since_reads_like_one_observe_per_start(self):
        # Span batches hand over (end, starts) instead of a duration per
        # row; every reader must see what per-value observes would show,
        # the float `total` included, whenever reads fall between writes.
        import random

        rng = random.Random(5)
        batched, single = Histogram(), Histogram()
        for round_ in range(30):
            end = rng.uniform(0, 100)
            starts = [end - rng.uniform(-1, 10) for __ in range(rng.randrange(6))]
            batched.observe_since(end, starts)
            for start in starts:
                single.observe(end - start)
            if round_ % 7 == 0:
                batched.observe(0.1)
                single.observe(0.1)
                assert batched.percentile(90) == single.percentile(90)
            assert batched.count == single.count
        assert batched.total == single.total
        assert (batched.min, batched.max) == (single.min, single.max)
        assert [batched.percentile(p) for p in range(0, 101, 5)] == [
            single.percentile(p) for p in range(0, 101, 5)
        ]
        assert batched.count_at_or_below(3.0) == single.count_at_or_below(3.0)


class TestRegistry:
    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_flattens(self):
        registry = MetricsRegistry("r")
        registry.counter("ops").inc(3)
        registry.gauge("depth").set(7.0)
        registry.histogram("lat").observe(1.0)
        snap = registry.snapshot()
        assert snap["ops.count"] == 3
        assert snap["depth.value"] == 7.0
        assert snap["lat.p50"] == 1.0
        assert snap["lat.n"] == 1

    def test_snapshot_skips_empty_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("empty")
        assert "empty.p50" not in registry.snapshot()
