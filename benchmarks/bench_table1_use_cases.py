"""Experiment T1 — Table 1: components used by the example use cases.

Builds all four Section 5 pipelines and regenerates the layer-usage matrix
from their actual wiring (not hard-coded).  Expected matrix (the paper's):

                Surge  RestMgr  PredMon  EatsOps
    API           Y                Y
    SQL                   Y        Y        Y
    OLAP                  Y        Y        Y
    Compute       Y       Y        Y        Y
    Stream        Y       Y        Y        Y
    Storage               Y        Y

The three use cases built by the facade are also checked against what
their platform's tracer saw after a small feed: a Stream / Compute / OLAP
cell is Y exactly when the use case emitted ``kafka`` / ``flink`` /
``pinot`` spans.  API, SQL and Storage have no span layer of their own
yet, so those cells stay declared.
"""

from __future__ import annotations

from repro import Platform
from repro.usecases.components import LAYERS, ComponentTrace, render_table
from repro.usecases.eats_ops import TELEMETRY_TOPIC, EatsOpsAutomation
from repro.usecases.prediction import (
    OUTCOMES_TOPIC,
    PREDICTIONS_TOPIC,
    PredictionMonitoring,
)
from repro.usecases.restaurant import ORDERS_TOPIC, RestaurantManager
from repro.usecases.surge import MARKETPLACE_TOPIC, build_surge_job
from repro.workloads import EatsWorkload, PredictionWorkload

from benchmarks.conftest import print_table

PAPER_MATRIX = {
    "Surge": {"API", "Compute", "Stream"},
    "Restaurant Manager": {"SQL", "OLAP", "Compute", "Stream", "Storage"},
    "Real-time Prediction Monitoring": set(LAYERS),
    "Eats Ops Automation": {"SQL", "OLAP", "Compute", "Stream"},
}

# Table 1 cell -> the span layer that shows the use case touched it.
SPAN_LAYERS = {"Stream": "kafka", "Compute": "flink", "OLAP": "pinot"}


def _feed(platform: Platform, sends) -> None:
    producer = platform.producer("t1")
    for topic, row, key in sends:
        producer.send(topic, row, key=key, event_time=row["event_time"])
    producer.flush()
    platform.run_until_caught_up()


def build_all() -> tuple[list[ComponentTrace], dict[str, set[str]]]:
    """The four traces, and the span layers each Platform-built use case
    emitted."""
    surge_platform = Platform().with_kafka().topic(MARKETPLACE_TOPIC, partitions=2)
    surge_trace = ComponentTrace("Surge")
    build_surge_job(surge_platform.kafka, MARKETPLACE_TOPIC, "g", [], trace=surge_trace)

    restaurant = RestaurantManager.deploy(Platform().with_kafka().with_pinot())
    orders = EatsWorkload(seed=1).order_events(900.0)
    _feed(
        restaurant.platform,
        ((ORDERS_TOPIC, row, row["restaurant_id"]) for row, __ in orders),
    )

    prediction = PredictionMonitoring.deploy(Platform().with_kafka().with_pinot())
    streams = PredictionWorkload(seed=1, models=2, features_per_model=2).streams(1200.0)
    _feed(
        prediction.platform,
        (
            (
                PREDICTIONS_TOPIC if kind == "prediction" else OUTCOMES_TOPIC,
                row,
                row["prediction_id"],
            )
            for kind, row, __ in streams
        ),
    )

    ops = EatsOpsAutomation.deploy(Platform().with_kafka().with_pinot().with_presto())
    pings = EatsWorkload(seed=1).courier_telemetry(900.0, pings_per_second=2.0)
    _feed(ops.platform, ((TELEMETRY_TOPIC, row, row["hex_id"]) for row, __ in pings))
    ops.explore(
        "SELECT hex_id, MAX(couriers) AS peak FROM courier_density GROUP BY hex_id"
    )

    span_layers = {
        use_case.trace.use_case: {s.layer for s in use_case.platform.tracer.spans()}
        for use_case in (restaurant, prediction, ops)
    }
    traces = [surge_trace, restaurant.trace, prediction.trace, ops.trace]
    return traces, span_layers


def test_table1_matrix(benchmark):
    traces, span_layers = benchmark.pedantic(build_all, rounds=1, iterations=1)
    print()
    print(render_table(traces))
    measured = {t.use_case: t.used for t in traces}
    assert measured == PAPER_MATRIX
    for use_case, layers in span_layers.items():
        for cell, span_layer in SPAN_LAYERS.items():
            assert (cell in measured[use_case]) == (span_layer in layers), (
                use_case,
                cell,
                sorted(layers),
            )
    # The ad-hoc exploration is a Presto query over Pinot.
    assert "presto" in span_layers["Eats Ops Automation"]
    benchmark.extra_info["matrix_matches_paper"] = True
    print_table(
        "Table 1 agreement",
        ["use case", "layers (measured)", "span layers", "matches paper"],
        [
            [
                name,
                ",".join(sorted(layers)),
                ",".join(sorted(span_layers.get(name, ()))) or "(not traced)",
                "yes",
            ]
            for name, layers in measured.items()
        ],
    )
