"""UberEats ops automation (Section 5.4).

"The ops team was able to identify such metrics using Presto on top of
real-time data managed by Pinot and then inject such queries into the
automation framework.  This framework uses Pinot to aggregate needed
statistics for a given geographical location in the past few minutes and
then generates alerts and notifications to the couriers and restaurants."

The ad-hoc -> production path is the point: :meth:`explore` runs PrestoSQL
against Pinot; :meth:`productionize` turns the discovered insight into a
standing rule evaluated continuously against fresh data.  (Built during
Covid-19 to cap simultaneous couriers/customers per restaurant area.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.segment import IndexConfig
from repro.pinot.table import TableConfig
from repro.platform import Platform
from repro.usecases.components import ComponentTrace

TELEMETRY_TOPIC = "courier-telemetry"
DENSITY_TOPIC = "courier-density"

DENSITY_SCHEMA = Schema(
    "courier_density",
    (
        Field("hex_id", FieldType.STRING),
        Field("window_start", FieldType.DOUBLE),
        Field("window_end", FieldType.DOUBLE, FieldRole.TIME),
        Field("pings", FieldType.LONG, FieldRole.METRIC),
        Field("couriers", FieldType.LONG, FieldRole.METRIC),
    ),
)

DENSITY_SQL = (
    "SELECT hex_id, COUNT(*) AS pings, COUNT(DISTINCT courier_id) AS couriers "
    f"FROM {TELEMETRY_TOPIC.replace('-', '_')} "
    "GROUP BY TUMBLE(event_time, 300), hex_id"
)


@dataclass(frozen=True)
class OpsRule:
    """A productionized insight: threshold over a geofence statistic."""

    name: str
    metric: str  # 'couriers' or 'pings'
    threshold: float
    window_lookback: float = 900.0
    notify: str = "couriers_and_restaurants"


@dataclass
class OpsAlert:
    rule: str
    hex_id: str
    value: float
    window_end: float
    notify: str


@dataclass
class EatsOpsAutomation:
    platform: Platform
    trace: ComponentTrace
    rules: list[OpsRule] = field(default_factory=list)
    alerts: list[OpsAlert] = field(default_factory=list)

    @classmethod
    def deploy(cls, platform: Platform) -> "EatsOpsAutomation":
        trace = ComponentTrace("Eats Ops Automation")
        trace.use("Stream")
        platform.topic(TELEMETRY_TOPIC).topic(DENSITY_TOPIC)
        platform.stream_table(
            TELEMETRY_TOPIC.replace("-", "_"),
            TELEMETRY_TOPIC,
            timestamp_column="event_time",
        )
        platform.streaming_sql(
            DENSITY_SQL, sink_topic=DENSITY_TOPIC, job_name="ops-density"
        )
        trace.use("SQL")
        trace.use("Compute")
        # Note: no Storage use — this pipeline is stateless-reprocessable
        # and its Pinot table is short-retention, matching Table 1.
        platform.realtime_table(
            TableConfig(
                "courier_density",
                DENSITY_SCHEMA,
                time_column="window_end",
                index_config=IndexConfig(
                    inverted=frozenset({"hex_id"}),
                    range_indexed=frozenset({"window_end"}),
                ),
                segment_rows_threshold=1000,
            ),
            topic=DENSITY_TOPIC,
        )
        trace.use("OLAP")
        return cls(platform, trace)

    # -- ad-hoc exploration (PrestoSQL over Pinot) ---------------------------

    def explore(self, sql: str):
        """The ops analyst's ad-hoc PrestoSQL query."""
        return self.platform.sql(sql)

    # -- productionization -----------------------------------------------------

    def productionize(self, rule: OpsRule) -> None:
        self.rules.append(rule)

    def evaluate_rules(self, now: float) -> list[OpsAlert]:
        """Run every rule against the last few minutes of data and emit
        courier/restaurant notifications for violations."""
        fired: list[OpsAlert] = []
        for rule in self.rules:
            result = self.platform.broker.execute(
                PinotQuery(
                    table="courier_density",
                    aggregations=[Aggregation("MAX", rule.metric)],
                    filters=[
                        Filter(
                            "window_end",
                            "BETWEEN",
                            low=now - rule.window_lookback,
                            high=now,
                        )
                    ],
                    group_by=["hex_id"],
                    limit=10_000,
                )
            )
            alias = f"max({rule.metric})"
            for row in result.rows:
                value = row.get(alias)
                if value is not None and value > rule.threshold:
                    fired.append(
                        OpsAlert(rule.name, row["hex_id"], value, now, rule.notify)
                    )
        self.alerts.extend(fired)
        return fired
