"""Experiment C12 — §5.3: pre-aggregated OLAP cubes at high cardinality.

Paper: "with thousands of ML models deployed and each model with hundreds
of features, there are several hundreds of thousands of time series ...
To boost the query performance over the large number of data points, the
Flink job also creates pre-aggregation as Pinot tables."

Series: monitoring-query work vs time-series cardinality, querying the
pre-aggregated cube vs querying raw joined errors.  The cube's query cost
stays proportional to cardinality; the raw path scales with event volume.
Both are asserted in rows, which repeat for a seed; the wall factors are
printed as read.
"""

from __future__ import annotations

import math
import time

from repro.common.rng import seeded_rng
from repro.pinot.query import Aggregation, Filter, PinotQuery, execute_on_segment
from repro.pinot.segment import ImmutableSegment, IndexConfig

from benchmarks.conftest import print_table

SAMPLES_PER_SERIES_WINDOW = 20
WINDOWS = 8


def build_tables(models: int, features: int):
    """Raw error events and the equivalent pre-aggregated cube."""
    rng = seeded_rng(41)
    raw_rows = []
    cube: dict[tuple, list] = {}
    for model in range(models):
        for feature in range(features):
            for window in range(WINDOWS):
                key = (f"m-{model}", f"f-{model}-{feature}", float(window * 300))
                acc = cube.setdefault(key, [0, 0.0])
                for __ in range(SAMPLES_PER_SERIES_WINDOW):
                    error = abs(rng.gauss(0, 0.05))
                    raw_rows.append(
                        {
                            "model_id": key[0],
                            "feature_id": key[1],
                            "abs_error": error,
                            "window_start": key[2],
                        }
                    )
                    acc[0] += 1
                    acc[1] += error
    cube_rows = [
        {
            "model_id": model,
            "feature_id": feature,
            "window_start": window,
            "samples": acc[0],
            "total_abs_error": acc[1],
        }
        for (model, feature, window), acc in cube.items()
    ]
    index = IndexConfig(inverted=frozenset({"model_id"}))
    raw = ImmutableSegment(
        "raw", {k: [r[k] for r in raw_rows] for k in raw_rows[0]}, index
    )
    cube_segment = ImmutableSegment(
        "cube", {k: [r[k] for r in cube_rows] for k in cube_rows[0]}, index
    )
    return raw, cube_segment, len(raw_rows), len(cube_rows)


def monitoring_query(segment, table: str, target_model: str):
    """Per-feature error profile of one model (the dashboard slice)."""
    if table == "raw":
        query = PinotQuery(
            "raw",
            aggregations=[Aggregation("SUM", "abs_error"), Aggregation("COUNT")],
            filters=[Filter("model_id", "=", target_model)],
            group_by=["feature_id"],
            limit=10_000,
        )
    else:
        query = PinotQuery(
            "cube",
            aggregations=[
                Aggregation("SUM", "total_abs_error"),
                Aggregation("SUM", "samples"),
            ],
            filters=[Filter("model_id", "=", target_model)],
            group_by=["feature_id"],
            limit=10_000,
        )
    return execute_on_segment(segment, query)


def run_sweep():
    results = []
    for models, features in ((5, 10), (10, 20), (20, 40)):
        raw, cube, raw_rows, cube_rows = build_tables(models, features)
        start = time.perf_counter()
        raw_result = monitoring_query(raw, "raw", "m-1")
        raw_latency = time.perf_counter() - start
        start = time.perf_counter()
        cube_result = monitoring_query(cube, "cube", "m-1")
        cube_latency = time.perf_counter() - start
        # Same means, up to float addition order.
        raw_means = {
            key[0]: states[0] / states[1]
            for key, states in raw_result.groups.items()
        }
        cube_means = {
            key[0]: states[0] / states[1]
            for key, states in cube_result.groups.items()
        }
        assert raw_means.keys() == cube_means.keys()
        assert all(
            math.isclose(raw_means[k], cube_means[k], rel_tol=1e-9)
            for k in raw_means
        )
        results.append(
            (models * features, raw_rows, cube_rows, raw_latency, cube_latency)
        )
    return results


def test_cube_scales_with_cardinality(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        "C12: monitoring query (one model's per-feature error profile)",
        ["time series", "raw rows", "cube rows", "raw latency (s)",
         "cube latency (s)", "speedup (as read)"],
        [
            [series, raw_rows, cube_rows, f"{raw_lat:.4f}", f"{cube_lat:.4f}",
             f"{raw_lat / cube_lat:.1f}x"]
            for series, raw_rows, cube_rows, raw_lat, cube_lat in results
        ],
    )
    for series, raw_rows, cube_rows, __, __ in results:
        # The cube holds one row per series per window, whatever the event
        # volume; the raw table one per sample, SAMPLES_PER_SERIES_WINDOW x
        # as many.
        assert cube_rows == series * WINDOWS
        assert raw_rows == cube_rows * SAMPLES_PER_SERIES_WINDOW
    benchmark.extra_info["speedup_at_max"] = results[-1][3] / results[-1][4]
