"""Real-time ML prediction monitoring (Section 5.3).

Predictions and later-observed outcomes stream through Kafka; a Flink job
joins them per prediction id, pre-aggregates absolute error into an OLAP
cube per (model, feature, window), and Pinot serves live accuracy.  One
model has injected drift — the anomaly detector finds it.  The use case
deploys onto one ``Platform``, whose ``run_until_caught_up()`` drains the
join and the cube table.

Run:  python examples/prediction_monitoring.py
"""

from __future__ import annotations

from repro import Platform
from repro.usecases.prediction import (
    OUTCOMES_TOPIC,
    PREDICTIONS_TOPIC,
    PredictionMonitoring,
)
from repro.workloads import PredictionWorkload


def main() -> None:
    platform = Platform().with_kafka().with_pinot()
    monitoring = PredictionMonitoring.deploy(platform)

    workload = PredictionWorkload(
        seed=11, models=8, features_per_model=6, predictions_per_second=10.0,
        drifting_models=frozenset({3}),
    )
    print(f"time-series cardinality: {workload.series_cardinality()}")

    producer = platform.producer("ml-platform")
    count = 0
    for kind, row, __ in workload.streams(duration_seconds=3600.0):
        topic = PREDICTIONS_TOPIC if kind == "prediction" else OUTCOMES_TOPIC
        producer.send(topic, row, key=row["prediction_id"],
                      event_time=row["event_time"])
        count += 1
    producer.flush()
    print(f"streamed {count} prediction/outcome events")

    platform.run_until_caught_up()

    print("\nlive mean absolute error per model:")
    for model in range(8):
        mae = monitoring.model_error(f"model-{model}")
        marker = "  <-- drifting" if model == 3 else ""
        print(f"  model-{model}: {mae:.4f}{marker}")

    alerts = monitoring.detect_anomalies(threshold=0.10)
    print(f"\nanomaly alerts: {[(a['model_id'], round(a['mae'], 3)) for a in alerts]}")
    print(f"layers used (Table 1 row): {sorted(monitoring.trace.used)}")


if __name__ == "__main__":
    main()
