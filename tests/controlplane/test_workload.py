"""Unit tests for the surge experiment's million-user workload generator."""

import random

from benchmarks.core.workload import SurgeSpike, SurgeWorkload, UserPopulation
from repro.controlplane.admission import QueryRequest


class TestUserPopulation:
    def test_spans_millions_of_distinct_users(self):
        pop = UserPopulation(users=2_000_000, skew=1.1)
        rng = random.Random(1)
        draws = {pop.sample(rng) for __ in range(20_000)}
        assert all(0 <= u < 2_000_000 for u in draws)
        # Well over a thousand *distinct* users even in a small sample ...
        assert len(draws) > 5_000
        assert max(draws) > 1_000_000  # ... reaching deep into the tail.

    def test_traffic_is_head_heavy(self):
        pop = UserPopulation(users=1_000_000, skew=1.1)
        rng = random.Random(2)
        draws = [pop.sample(rng) for __ in range(20_000)]
        head = sum(1 for u in draws if u < 100_000)  # first 10% of ids
        assert head / len(draws) > 0.4  # carries >4x its fair share

    def test_sampling_is_deterministic(self):
        pop = UserPopulation(users=500_000)
        a = [pop.sample(random.Random(7)) for __ in range(100)]
        b = [pop.sample(random.Random(7)) for __ in range(100)]
        assert a == b

    def test_user_id_formatting(self):
        assert UserPopulation.user_id(42) == "user-000000042"


class TestSurgeWorkload:
    def test_same_seed_identical_stream(self):
        a = list(SurgeWorkload(seed=11, duration=20.0).requests())
        b = list(SurgeWorkload(seed=11, duration=20.0).requests())
        assert a == b
        assert a and isinstance(a[0], QueryRequest)

    def test_different_seed_different_stream(self):
        a = list(SurgeWorkload(seed=11, duration=20.0).requests())
        b = list(SurgeWorkload(seed=12, duration=20.0).requests())
        assert a != b

    def test_arrivals_ordered_and_bounded(self):
        requests = list(SurgeWorkload(seed=3, duration=30.0).requests())
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert all(0.0 <= t < 30.0 for t in times)

    def test_spike_multiplies_arrival_density(self):
        wl = SurgeWorkload(
            seed=5,
            base_rps=10.0,
            duration=90.0,
            spike=SurgeSpike(30.0, 60.0, multiplier=5.0),
            diurnal_amplitude=0.0,
        )
        requests = list(wl.requests())
        before = sum(1 for r in requests if r.arrival_time < 30.0)
        during = sum(1 for r in requests if 30.0 <= r.arrival_time < 60.0)
        assert during > 3 * before

    def test_mix_covers_all_use_cases(self):
        requests = list(SurgeWorkload(seed=9, duration=60.0).requests())
        cases = {r.use_case for r in requests}
        assert cases == {
            "surge_pricing",
            "eats_dashboard",
            "ads_attribution",
            "exploration",
        }

    def test_param_derived_from_user(self):
        wl = SurgeWorkload(seed=4, duration=30.0, param_space=64)
        for r in wl.requests():
            assert r.param == int(r.user_id.split("-")[1]) % 64
