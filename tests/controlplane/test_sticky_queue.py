"""Sticky worker subsets + bounded-load spill in the QueryQueue."""

from __future__ import annotations

from repro.common import hashring
from repro.controlplane.queueing import QueryQueue


def sticky_queue(workers=4, subset=2, spill=0.25):
    return QueryQueue(
        workers=workers,
        subset_size=subset,
        spill_threshold_s=spill,
    )


class TestStickySubsets:
    def test_same_key_lands_in_its_subset(self):
        queue = sticky_queue()
        subset = set(
            hashring.pick_subset(("tier", "user-1"), range(4), 2)
        )
        for i in range(6):
            start, completion = queue.submit(
                float(i), 0.01, key="user-1", tier="tier"
            )
            assert completion > start or completion == start + 0.01
        # All service time accrued inside the subset's workers.
        busy = {i for i, t in enumerate(queue._free) if t > 0.0}
        assert busy <= subset
        assert queue.sticky_submits == 6 and queue.spills == 0

    def test_pressured_subset_spills_to_global_pool(self):
        queue = sticky_queue(workers=4, subset=1, spill=0.1)
        # Saturate the key's single sticky worker far past the threshold.
        for __ in range(50):
            queue.submit(0.0, 0.05, key="user-1", tier="t")
        assert queue.spills > 0
        # Spilled work runs on workers outside the subset: the pool's
        # total backlog spreads instead of stacking on one slot.
        (sticky_worker,) = hashring.pick_subset(("t", "user-1"), range(4), 1)
        others = [t for i, t in enumerate(queue._free) if i != sticky_worker]
        assert max(others) > 0.0

    def test_spill_decision_is_deterministic(self):
        def run():
            queue = sticky_queue(workers=3, subset=1, spill=0.05)
            events = []
            for i in range(40):
                key = f"user-{i % 5}"
                events.append(queue.submit(i * 0.01, 0.04, key=key, tier="t"))
            return events, queue.sticky_submits, queue.spills

        assert run() == run()

    def test_keyless_submissions_use_the_global_pool(self):
        queue = sticky_queue()
        for i in range(8):
            queue.submit(float(i), 0.01)
        assert queue.sticky_submits == 0 and queue.spills == 0
        # Earliest-free spread: with idle arrivals, work round-robins.
        assert sum(1 for t in queue._free if t > 0.0) > 2

    def test_sticky_routing_survives_scale_up(self):
        queue = sticky_queue(workers=2, subset=1)
        queue.submit(0.0, 0.01, key="user-1", tier="t")
        queue.set_workers(6)
        start, completion = queue.submit(10.0, 0.01, key="user-1", tier="t")
        assert completion == 10.01  # idle pool: no waiting either way
        assert queue.workers == 6

    def test_tier_scopes_the_subset(self):
        workers = 16
        a = hashring.pick_subset(("tier-a", "user-1"), range(workers), 2)
        b = hashring.pick_subset(("tier-b", "user-1"), range(workers), 2)
        assert a != b  # tiers hash to different subsets for the same user
