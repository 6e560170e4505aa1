"""Real-time prediction monitoring (Section 5.3).

"A real-time prediction monitoring pipeline ... joins the predictions to
the observed outcomes (or labels) generated by the data pipeline, creating
ongoing, live measurements of model accuracy.  The key requirement from
this use case is scalability, due to a high volume and high cardinality of
data ... the Flink job also creates pre-aggregation as Pinot tables."

Per Table 1 this use case touches every layer: the join is programmatic
(API), data scientists explore the cube with PrestoSQL (SQL), the cube is
a Pinot table (OLAP), Flink computes (Compute) over Kafka (Stream) with
checkpoints in blob storage (Storage).

The prediction→outcome join is an *interval* join, not a window join:
outcomes trail their predictions by up to ``MAX_OUTCOME_DELAY_SECONDS``,
and a tumbling window would silently lose every pair straddling a window
boundary (a prediction at 11:59 whose outcome lands at 12:04).  The
request-time features of each prediction are logged to the
:class:`~repro.features.FeatureStore` on the prediction path *before*
the join, and the error cube is computed from a point-in-time read of
the store at the outcome's event time — monitoring therefore measures
exactly the feature values an offline training read would see, and the
store's online/offline consistency is auditable by lineage digest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.features import FeatureStore
from repro.flink.graph import StreamEnvironment
from repro.flink.windows import TumblingWindows
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.segment import IndexConfig
from repro.pinot.startree import StarTreeConfig
from repro.pinot.table import TableConfig
from repro.platform import Platform
from repro.usecases.components import ComponentTrace

PREDICTIONS_TOPIC = "ml-predictions"
OUTCOMES_TOPIC = "ml-outcomes"
ERRORS_TOPIC = "ml-errors-agg"

MAX_OUTCOME_DELAY_SECONDS = 600.0
AGG_WINDOW_SECONDS = 300.0
ALLOWED_LATENESS_SECONDS = 30.0

ERRORS_SCHEMA = Schema(
    "model_accuracy",
    (
        Field("model_id", FieldType.STRING),
        Field("feature_id", FieldType.STRING),
        Field("window_start", FieldType.DOUBLE),
        Field("window_end", FieldType.DOUBLE, FieldRole.TIME),
        Field("samples", FieldType.LONG, FieldRole.METRIC),
        Field("total_abs_error", FieldType.DOUBLE, FieldRole.METRIC),
    ),
)


class _ErrorAggregate:
    """Per (model, feature) window: sample count + total absolute error."""

    def create_accumulator(self):
        return [0, 0.0]

    def add(self, value, accumulator):
        accumulator[0] += 1
        accumulator[1] += value["abs_error"]
        return accumulator

    def get_result(self, accumulator):
        return {"samples": accumulator[0], "total_abs_error": accumulator[1]}

    def merge(self, a, b):
        return [a[0] + b[0], a[1] + b[1]]


def _feature_key(prediction_id: str) -> tuple[str, str]:
    return ("prediction", prediction_id)


@dataclass
class PredictionMonitoring:
    platform: Platform
    features: FeatureStore
    trace: ComponentTrace

    @classmethod
    def deploy(cls, platform: Platform) -> "PredictionMonitoring":
        trace = ComponentTrace("Real-time Prediction Monitoring")
        trace.use("Stream")
        for topic in (PREDICTIONS_TOPIC, OUTCOMES_TOPIC, ERRORS_TOPIC):
            platform.topic(topic)
        kafka = platform.kafka
        store = FeatureStore("prediction-features")
        # The join is expressed with the low-level API (advanced users).
        env = StreamEnvironment()
        predictions = env.from_kafka(
            kafka, PREDICTIONS_TOPIC, group="predmon", max_out_of_orderness=30.0
        )
        outcomes = env.from_kafka(
            kafka, OUTCOMES_TOPIC, group="predmon", max_out_of_orderness=30.0
        )

        # Log request-time features on the prediction path, upstream of
        # the join: any prediction the join can pair has already written
        # its features, so the point-in-time read below is causally safe
        # (and deterministic under crash-restore replay).
        def log_features(p: dict) -> dict:
            store.write_row(
                _feature_key(p["prediction_id"]),
                {"predicted": p["predicted"], "feature_id": p["feature_id"]},
                p["event_time"],
            )
            return p

        # Interval join: an outcome pairs with its prediction when the
        # prediction precedes it by at most the max outcome delay —
        # left.ts - right.ts ∈ [-max_delay, 0].
        joined = predictions.map(log_features, name="feature-log").interval_join(
            outcomes,
            key_fns=(
                lambda p: p["prediction_id"],
                lambda o: o["prediction_id"],
            ),
            lower=-MAX_OUTCOME_DELAY_SECONDS,
            upper=0.0,
            join_fn=lambda p, o: {
                "prediction_id": p["prediction_id"],
                "model_id": p["model_id"],
                "observed": o["observed"],
                "event_time": o["event_time"],
            },
            allowed_lateness=ALLOWED_LATENESS_SECONDS,
            state_ttl=MAX_OUTCOME_DELAY_SECONDS,
            spill_budget_bytes=64 * 1024 * 1024,
            name="prediction-outcome-join",
        )
        trace.use("API")
        trace.use("Compute")

        # Enrich each pair from the store, point-in-time at the outcome:
        # the error is computed against the features as they stood when
        # the outcome was observed — the same values an offline training
        # read at that timestamp returns.
        def enrich(row: dict) -> dict:
            feats = store.get_features(
                _feature_key(row["prediction_id"]), as_of=row["event_time"]
            )
            return {
                "model_id": row["model_id"],
                "feature_id": feats["feature_id"],
                "abs_error": abs(feats["predicted"] - row["observed"]),
                "event_time": row["event_time"],
            }

        # Pre-aggregate the enriched error stream into OLAP cube rows.
        joined.map(enrich, name="feature-enrich").key_by(
            lambda row: (row["model_id"], row["feature_id"])
        ).window(TumblingWindows(AGG_WINDOW_SECONDS)).aggregate(
            _ErrorAggregate(), name="error-cube"
        ).map(
            lambda result: {
                "model_id": result.key[0],
                "feature_id": result.key[1],
                "window_start": result.window.start,
                "window_end": result.window.end,
                "samples": result.value["samples"],
                "total_abs_error": result.value["total_abs_error"],
            }
        ).sink_to_kafka(kafka, ERRORS_TOPIC, key_fn=lambda row: row["model_id"])
        platform.job(env.build("prediction-monitoring"))
        trace.use("Storage")
        # The OLAP cube: star-tree over (model, feature) for fast slicing.
        platform.realtime_table(
            TableConfig(
                "model_accuracy",
                ERRORS_SCHEMA,
                time_column="window_end",
                index_config=IndexConfig(
                    inverted=frozenset({"model_id", "feature_id"}),
                ),
                startree_config=StarTreeConfig(
                    dimensions=["model_id", "feature_id"],
                    metrics=["samples", "total_abs_error"],
                    max_leaf_records=64,
                ),
                segment_rows_threshold=500,
            ),
            topic=ERRORS_TOPIC,
        )
        trace.use("OLAP")
        trace.use("SQL")  # PrestoSQL exploration over the cube (see bench)
        return cls(platform, store, trace)

    def feature_consistency_report(self):
        """Reconcile the online feature store against an offline
        recomputation from the raw prediction log (lineage-digest audit)."""
        kafka = self.platform.kafka
        offline = []
        for partition in range(kafka.partition_count(PREDICTIONS_TOPIC)):
            offset = kafka.start_offset(PREDICTIONS_TOPIC, partition)
            end = kafka.end_offset(PREDICTIONS_TOPIC, partition)
            while offset < end:
                entries = kafka.fetch(PREDICTIONS_TOPIC, partition, offset, 500)
                if not entries:
                    break
                for entry in entries:
                    p = entry.record.value
                    key = _feature_key(p["prediction_id"])
                    offline.append(
                        (key, "feature_id", p["feature_id"], p["event_time"])
                    )
                    offline.append((key, "predicted", p["predicted"], p["event_time"]))
                offset = entries[-1].offset + 1
        return self.features.consistency_report(offline)

    def model_error(self, model_id: str) -> float:
        """Live mean absolute error of one model across the cube."""
        result = self.platform.broker.execute(
            PinotQuery(
                table="model_accuracy",
                aggregations=[
                    Aggregation("SUM", "total_abs_error"),
                    Aggregation("SUM", "samples"),
                ],
                filters=[Filter("model_id", "=", model_id)],
                limit=1,
            )
        )
        if not result.rows or not result.rows[0]["sum(samples)"]:
            return float("nan")
        row = result.rows[0]
        return row["sum(total_abs_error)"] / row["sum(samples)"]

    def detect_anomalies(self, threshold: float = 0.15) -> list[dict]:
        """Models whose live error exceeds the alert threshold."""
        result = self.platform.broker.execute(
            PinotQuery(
                table="model_accuracy",
                aggregations=[
                    Aggregation("SUM", "total_abs_error"),
                    Aggregation("SUM", "samples"),
                ],
                group_by=["model_id"],
                limit=10_000,
            )
        )
        alerts = []
        for row in result.rows:
            samples = row["sum(samples)"]
            if not samples:
                continue
            mae = row["sum(total_abs_error)"] / samples
            if mae > threshold:
                alerts.append(
                    {"model_id": row["model_id"], "mae": mae, "samples": samples}
                )
        return sorted(alerts, key=lambda a: a["mae"], reverse=True)
