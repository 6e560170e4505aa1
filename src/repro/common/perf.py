"""Lightweight perf counters threaded through the hot paths.

The hot paths count the semantic operations they perform — partition-
leader resolutions, log-entry allocations, forward-index cell reads,
channel pushes — on a process-global :class:`PerfCounters` singleton.
Two runs of the same seeded workload produce byte-identical counts, so
counted work can be compared *exactly*: the gate in ``benchmarks/core``
holds every counter of its scenarios to the committed
``BENCH_core.json``, and a change that makes a hot path do 2x the
per-record work shows up as exactly 2x the ops.  Counts say how much
work was done, never how long it took; time comes from a stopwatch
(``benchmarks/e2e``, which also reports some of these counters per
layer).

Cost discipline: counting is OFF by default.  Every instrumentation site
guards with ``if PERF.enabled:`` so the uninstrumented hot path pays one
attribute load and a falsy branch — no dict mutation, no allocation.
Counting is enabled only inside a :class:`measured` section.

Counter naming convention: ``<layer>.<unit>``, with allocation counters
ending in ``_allocs``.
"""

from __future__ import annotations


class PerfCounters:
    """Named monotonic counters with a cheap global on/off switch."""

    __slots__ = ("enabled", "counts")

    def __init__(self) -> None:
        self.enabled = False
        self.counts: dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to ``name``.  Callers on hot paths should guard
        with ``if PERF.enabled:`` so the disabled case costs no call."""
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount

    def reset(self) -> None:
        self.counts = {}

    def snapshot(self) -> dict[str, int]:
        """Copy of the counts, keys sorted for deterministic output."""
        return {name: self.counts[name] for name in sorted(self.counts)}

    def total(self) -> int:
        return sum(self.counts.values())


#: The process-global counter set every hot path increments.
PERF = PerfCounters()


class measured:
    """Context manager: count from zero inside the block, disable on exit.

    The previous enabled state and counts are restored on exit with this
    section's counts added to them, so measured sections nest.
    """

    __slots__ = ("_was_enabled", "_outer")

    def __enter__(self) -> PerfCounters:
        self._was_enabled = PERF.enabled
        self._outer = PERF.counts
        PERF.reset()
        PERF.enabled = True
        return PERF

    def __exit__(self, *exc_info) -> None:
        PERF.enabled = self._was_enabled
        inner, PERF.counts = PERF.counts, self._outer
        for name, amount in inner.items():
            PERF.inc(name, amount)
