"""Deterministic multi-server query queue for capacity modelling.

The serving layers (Pinot broker, Presto scheduler) execute queries
in-process in this reproduction, so "queueing under overload" needs an
explicit model: a work-conserving pool of ``workers`` where each admitted
query occupies one worker for its (deterministic, caller-supplied)
service time.  Latency is ``completion - arrival``: queue wait appears
exactly when arrivals outpace ``workers / service_time`` capacity, which
is what the surge bench and the admission controller's p99 feedback need.

Scaling is live: ``set_workers`` grows the pool (new workers are free
immediately) or shrinks it (busy workers finish their current query
first — we drop the *latest-free* slots).  All tie-breaks are by worker
index, so the whole simulation is byte-deterministic.

Sticky routing: a ``key`` on submit assigns the query its key's
rendezvous-hashed worker *subset* — the locality unit a real tier pins a
user's session to, so per-worker state (plan caches, artifact stores)
keeps paying off.  A sticky subset under pressure (its earliest free
slot further than ``spill_threshold_s`` beyond the arrival) spills that
query to the global pool: affinity is a preference, not a guarantee,
exactly the bounded-load discipline of
:func:`repro.common.hashring.bounded_pick`.  A submit without a key
takes the earliest free worker of the whole pool.
"""

from __future__ import annotations

from repro.common import hashring
from repro.common.perf import PERF


class QueryQueue:
    """Earliest-free-worker assignment over a resizable pool."""

    def __init__(
        self,
        workers: int = 2,
        subset_size: int = 2,
        spill_threshold_s: float = 0.25,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self._free: list[float] = [0.0] * workers
        self.subset_size = max(1, subset_size)
        self.spill_threshold_s = spill_threshold_s
        self.sticky_submits = 0
        self.spills = 0

    @property
    def workers(self) -> int:
        return len(self._free)

    def submit(
        self,
        arrival: float,
        service_s: float,
        key=None,
        tier=None,
    ) -> tuple[float, float]:
        """Enqueue one query; returns ``(start, completion)`` times.

        With a ``key``, the query prefers the key's rendezvous worker
        subset (scoped per ``tier`` so one tier's hot keys don't pin
        another tier's) and spills to the whole pool only when the
        subset is ``spill_threshold_s`` behind.
        """
        if PERF.enabled:
            PERF.inc("controlplane.queue_submits")
        best = self._earliest_free(range(len(self._free)))
        if key is not None and len(self._free) > 1:
            subset = hashring.pick_subset(
                (tier, key), range(len(self._free)), self.subset_size
            )
            sticky_best = self._earliest_free(subset)
            if self._free[sticky_best] - arrival <= self.spill_threshold_s:
                best = sticky_best
                self.sticky_submits += 1
            else:
                self.spills += 1
                if PERF.enabled:
                    PERF.inc("controlplane.queue_spills")
        start = max(arrival, self._free[best])
        completion = start + service_s
        self._free[best] = completion
        return start, completion

    def _earliest_free(self, indices) -> int:
        best = None
        for i in indices:
            if best is None or self._free[i] < self._free[best]:
                best = i
        return best

    def set_workers(self, workers: int) -> None:
        workers = max(1, workers)
        if workers > len(self._free):
            # New workers come up idle: free as of "now", which for the
            # deterministic model is "immediately available" (0.0 is safe —
            # submit() clamps start to the arrival time).
            self._free.extend([0.0] * (workers - len(self._free)))
        elif workers < len(self._free):
            # Drain the most-loaded slots: keep the earliest-free workers.
            self._free = sorted(self._free)[:workers]

    def queued_seconds(self, now: float) -> float:
        """Total not-yet-served work in the pool, in seconds beyond now."""
        return sum(max(0.0, t - now) for t in self._free)

    def backlog_per_worker(self, now: float) -> float:
        """Mean seconds of queued work per worker — the scaling signal."""
        return self.queued_seconds(now) / len(self._free)
