"""UberEats Restaurant Manager (Section 5.2).

"The restaurant manager demands fresher data and low query latency, but
does not require too much flexibility as the patterns of the generated
queries are fixed.  ...  we used Pinot with the efficient pre-aggregation
indices ... Also, we built preprocessors in Flink such as aggressive
filtering, partial aggregate and roll-ups."

Per Table 1 this use case touches SQL (the preprocessor is a FlinkSQL
query, not hand-written API code), OLAP, Compute, Stream and Storage —
but not the programmatic API.  The central trade-off — transformation-time
versus query-time processing — is exposed by building *both* tables
(raw and pre-aggregated) so the C11 bench can measure it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import QueryResult
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.segment import IndexConfig
from repro.pinot.table import TableConfig
from repro.platform import Platform
from repro.usecases.components import ComponentTrace

ORDERS_TOPIC = "eats-orders"
PREAGG_TOPIC = "eats-orders-preagg"

RAW_SCHEMA = Schema(
    "eats_orders",
    (
        Field("order_id", FieldType.STRING),
        Field("restaurant_id", FieldType.STRING),
        Field("eater_id", FieldType.STRING),
        Field("courier_id", FieldType.STRING),
        Field("item", FieldType.STRING),
        Field("hex_id", FieldType.STRING),
        Field("status", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("event_time", FieldType.DOUBLE, FieldRole.TIME),
    ),
)

PREAGG_SCHEMA = Schema(
    "eats_orders_preagg",
    (
        Field("restaurant_id", FieldType.STRING),
        Field("item", FieldType.STRING),
        Field("window_start", FieldType.DOUBLE),
        Field("window_end", FieldType.DOUBLE, FieldRole.TIME),
        Field("orders", FieldType.LONG, FieldRole.METRIC),
        Field("sales", FieldType.DOUBLE, FieldRole.METRIC),
    ),
)

# The FlinkSQL preprocessor: aggressive filter (delivered orders only) +
# partial aggregation rolled up per restaurant/item/5-minute window.
PREPROCESSOR_SQL = (
    "SELECT restaurant_id, item, COUNT(*) AS orders, SUM(amount) AS sales "
    f"FROM {ORDERS_TOPIC.replace('-', '_')} "
    "WHERE status = 'delivered' "
    "GROUP BY TUMBLE(event_time, 300), restaurant_id, item"
)


@dataclass
class RestaurantManager:
    """The full dashboard stack: Kafka -> FlinkSQL preagg -> Pinot."""

    platform: Platform
    trace: ComponentTrace

    @classmethod
    def deploy(cls, platform: Platform) -> "RestaurantManager":
        trace = ComponentTrace("Restaurant Manager")
        trace.use("Stream")
        platform.topic(ORDERS_TOPIC).topic(PREAGG_TOPIC)
        # FlinkSQL preprocessor (SQL + Compute layers).
        platform.stream_table(
            ORDERS_TOPIC.replace("-", "_"), ORDERS_TOPIC, timestamp_column="event_time"
        )
        platform.streaming_sql(
            PREPROCESSOR_SQL, sink_topic=PREAGG_TOPIC, job_name="restaurant-preagg"
        )
        trace.use("SQL")
        trace.use("Compute")
        trace.use("Storage")  # checkpoints + Pinot segment archival
        # Pinot tables (OLAP layer): raw with inverted indexes, pre-agg.
        platform.realtime_table(
            TableConfig(
                "eats_orders",
                RAW_SCHEMA,
                time_column="event_time",
                index_config=IndexConfig(
                    inverted=frozenset({"restaurant_id", "item", "status"}),
                    range_indexed=frozenset({"event_time"}),
                ),
                segment_rows_threshold=2000,
            ),
            topic=ORDERS_TOPIC,
        )
        platform.realtime_table(
            TableConfig(
                "eats_orders_preagg",
                PREAGG_SCHEMA,
                time_column="window_end",
                index_config=IndexConfig(
                    inverted=frozenset({"restaurant_id", "item"}),
                    range_indexed=frozenset({"window_end"}),
                ),
                segment_rows_threshold=500,
            ),
            topic=PREAGG_TOPIC,
        )
        trace.use("OLAP")
        return cls(platform, trace)

    # -- the dashboard's fixed query patterns ----------------------------------

    def top_items(self, restaurant_id: str, limit: int = 5) -> QueryResult:
        """Popular menu items, served from the pre-aggregated table."""
        return self.platform.broker.execute(
            PinotQuery(
                table="eats_orders_preagg",
                aggregations=[
                    Aggregation("SUM", "orders"),
                    Aggregation("SUM", "sales"),
                ],
                filters=[Filter("restaurant_id", "=", restaurant_id)],
                group_by=["item"],
                order_by=[("sum(orders)", True)],
                limit=limit,
            )
        )

    def sales_timeseries(self, restaurant_id: str, limit: int = 48) -> QueryResult:
        return self.platform.broker.execute(
            PinotQuery(
                table="eats_orders_preagg",
                aggregations=[Aggregation("SUM", "sales")],
                filters=[Filter("restaurant_id", "=", restaurant_id)],
                group_by=["window_start"],
                order_by=[("window_start", False)],
                limit=limit,
            )
        )

    def service_quality(self, restaurant_id: str) -> dict[str, int]:
        """Cancellation analysis needs raw statuses -> raw table."""
        result = self.platform.broker.execute(
            PinotQuery(
                table="eats_orders",
                aggregations=[Aggregation("COUNT")],
                filters=[Filter("restaurant_id", "=", restaurant_id)],
                group_by=["status"],
                limit=20,
            )
        )
        return {row["status"]: row["count(*)"] for row in result.rows}
