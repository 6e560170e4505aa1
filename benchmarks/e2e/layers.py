"""Per-layer metrics of the traced run (layer = ``repro`` module).

Times are span self times from :mod:`spans`; counts come from public
return values (``QueryOutput.stats``, ``records_processed()``, lag and
cache gauges) read before and after the timed phase, and from the
``repro.common.perf`` counters under their existing names.
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterator

from spans import STEP_SPAN, SpanRecorder

# Counters of repro.common.perf.measured() reported under their own names.
PERF_COUNTERS = (
    "kafka.entry_allocs",
    "kafka.key_hashes",
    "kafka.fetch_calls",
    "flink.elements",
    "flink.channel_pushes",
    "flink.join_probes",
    "flink.join_state_appends",
    "flink.join_evictions",
    "pinot.cells_decoded",
    "pinot.code_filter_evals",
    "pinot.cache_row_copies",
    "presto.agg_rows",
    "presto.sort_rows",
    "presto.artifact_rows_copied",
    "columnar.kernel_rows",
    "columnar.cells_gathered",
    "columnar.batch_allocs",
)
STATE_BYTES_EVERY = 50  # total_state_bytes() walks all keyed state


def late_dropped(runtime: Any) -> int:
    return sum(
        getattr(task.operator, "late_dropped", 0)
        for tasks in runtime.tasks.values()
        for task in tasks
    )


def records_by_kind(runtimes: list[Any]) -> Counter:
    """``records_processed()`` summed per operator kind (source, window, ...)."""
    kinds: Counter = Counter()
    for runtime in runtimes:
        for op_id, count in runtime.records_processed().items():
            kinds[runtime.graph.operators[op_id].kind] += count
    return kinds


def _snapshot(platform: Any) -> Counter:
    """Monotonic public counters, read before and after the timed phase."""
    counts: Counter = Counter()
    kafka = platform.kafka
    for topic in kafka.topics:
        for partition in range(kafka.partition_count(topic)):
            counts["kafka.records_in"] += kafka.end_offset(topic, partition)
    counts["kafka.bytes_in"] = kafka.total_bytes()
    if platform.pinot is not None:
        for table in platform.pinot.tables.values():
            ingestion = table.ingestion
            counts["pinot.rows_ingested"] += ingestion.total_rows_ingested()
            for partition in ingestion.partitions:
                sealed = len(ingestion.segments_of_partition(partition)) - 1
                counts["pinot.segments_sealed"] += sealed
        for server in platform.pinot.servers:
            counts["scanshare.hits"] += server.scan_cache.hits
            counts["scanshare.misses"] += server.scan_cache.misses
    if platform.presto is not None:
        artifacts = platform.presto.scheduler.artifact_stats()
        counts["artifact.hits"] = artifacts["hits"]
        counts["artifact.misses"] = artifacts["misses"]
    if platform.tracer is not None:
        counts["observability.spans_recorded"] = len(platform.tracer.spans())
    return counts


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracing:
    """Everything the traced run adds around one timed phase: spans on the
    platform's entry points, ``repro.common.perf`` counting, collector
    timing via ``gc.callbacks`` and, between steps, maxima of the public
    lag and backlog gauges."""

    def __init__(self, state: Any) -> None:
        self.platform = state.platform
        self.recorder = SpanRecorder()
        self.recorder.instrument(state.platform, state.producers)
        self.begin_step = self.recorder.begin_step
        self.end_step = self.recorder.end_step
        self.gauges: Counter = Counter()
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_began = 0.0
        self._samples = 0
        self.perf: dict[str, int] = {}
        self.delta: Counter = Counter()

    def _on_gc(self, event: str, info: dict) -> None:
        if event == "start":
            self._gc_began = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_began
            self.gc_gen2 += info["generation"] == 2

    @contextmanager
    def active(self) -> Iterator[None]:
        """Count and time everything that happens inside the block."""
        before = _snapshot(self.platform)
        gc.callbacks.append(self._on_gc)
        try:
            with sys.modules["repro.common.perf"].measured() as counters:
                yield
                self.perf = counters.snapshot()
        finally:
            gc.callbacks.remove(self._on_gc)
            self.recorder.uninstrument()
        self.delta = _snapshot(self.platform)
        self.delta.subtract(before)

    def between_steps(self) -> None:
        best = self.gauges
        for runtime in self.platform.runtimes:
            best["source_lag"] = max(best["source_lag"], runtime.total_source_lag())
            best["buffered"] = max(best["buffered"], runtime.total_buffered_elements())
            if self._samples % STATE_BYTES_EVERY == 0:
                best["state_bytes"] = max(
                    best["state_bytes"], runtime.total_state_bytes()
                )
        if self.platform.pinot is not None:
            lag = sum(t.ingestion.lag() for t in self.platform.pinot.tables.values())
            best["ingest_lag"] = max(best["ingest_lag"], lag)
        self._samples += 1

    def metrics(
        self, phase: Any, records: int, untraced_wall_s: float
    ) -> dict[str, float]:
        self_s, calls = self.recorder.self_times()
        span = lambda name: self_s.get(name, 0.0)  # noqa: E731
        kinds = records_by_kind(self.platform.runtimes)
        stats, delta, gauges = phase.stats, self.delta, self.gauges
        layers = sum(s for name, s in self_s.items() if name != STEP_SPAN)
        query_ms = phase.query_ms
        metrics = {
            "kafka.produce_s": span("kafka.produce"),
            "kafka.replicate_s": span("kafka.replicate"),
            "kafka.fetch_s": span("kafka.fetch"),
            "kafka.records_in": delta["kafka.records_in"],
            "kafka.bytes_in": delta["kafka.bytes_in"],
            "flink.run_rounds_s": span("flink.run_rounds"),
            "flink.rounds": calls["flink.run_rounds"],
            "flink.source_records": kinds["source"],
            "flink.join_records_in": kinds["interval_join"],
            "flink.window_records_in": kinds["window"],
            "flink.sink_records_out": kinds["sink"],
            "flink.source_lag_max": gauges["source_lag"],
            "flink.state_bytes_max": gauges["state_bytes"],
            "flink.buffered_elements_max": gauges["buffered"],
            "flink.late_dropped": sum(
                late_dropped(runtime) for runtime in self.platform.runtimes
            ),
            "pinot.ingest_s": span("pinot.ingest"),
            "pinot.backup_s": span("pinot.backup"),
            "pinot.rows_ingested": delta["pinot.rows_ingested"],
            "pinot.ingest_lag_max": gauges["ingest_lag"],
            "pinot.segments_sealed": delta["pinot.segments_sealed"],
            "pinot.server_s": span("pinot.server"),
            "pinot.broker_s": span("pinot.broker"),
            "pinot.segments_scanned": stats["segments_scanned"],
            "pinot.segments_pruned": stats["segments_pruned"],
            "pinot.prune_ratio": _ratio(
                stats["segments_pruned"],
                stats["segments_pruned"] + stats["segments_scanned"],
            ),
            "pinot.result_cache_hit_ratio": _ratio(
                stats["cache_hits"], calls["pinot.broker"]
            ),
            "pinot.scanshare_hit_ratio": _ratio(
                delta["scanshare.hits"],
                delta["scanshare.hits"] + delta["scanshare.misses"],
            ),
            "sql.plan_s": span("sql.plan"),
            "sql.engine_s": span("sql.engine") + span("sql.scheduler"),
            "sql.connector_scan_s": span("sql.connector_scan"),
            "sql.rows_transferred": stats["rows_transferred"],
            "sql.stages_executed": stats["stages_executed"],
            "sql.artifact_hit_ratio": _ratio(
                delta["artifact.hits"],
                delta["artifact.hits"] + delta["artifact.misses"],
            ),
            "sql.query_p99_ms": percentile(query_ms, 0.99) if query_ms else 0.0,
            "observability.spans_recorded": delta["observability.spans_recorded"],
            "observability.spans_per_record": _ratio(
                delta["observability.spans_recorded"], records
            ),
            "host.gc_s": self.gc_s,
            "host.gc_gen2_collections": self.gc_gen2,
            "host.calib_ms_min": min(phase.calib_ms),
            "host.calib_ms_p50": statistics.median(phase.calib_ms),
            "host.calib_ms_max": max(phase.calib_ms),
            "bench.phase_s": phase.wall_s,
            "bench.driver_s": span(STEP_SPAN),
            "bench.layer_coverage": _ratio(layers, phase.wall_s),
            "bench.trace_overhead_ratio": _ratio(phase.wall_s, untraced_wall_s),
        }
        for name in PERF_COUNTERS:
            metrics[name] = self.perf.get(name, 0)
        return metrics
