"""UberEats Restaurant Manager dashboard (Section 5.2).

Orders flow into Kafka; a FlinkSQL preprocessor aggressively filters and
pre-aggregates them; Pinot serves the dashboard's fixed query patterns —
popular items, sales timeseries, service quality — with low latency from
the pre-aggregated table, falling back to the raw table only where raw
statuses are needed.  The use case deploys onto one ``Platform``, whose
``run_until_caught_up()`` drains the preprocessor and both tables.

Run:  python examples/restaurant_dashboard.py
"""

from __future__ import annotations

from repro import Platform
from repro.usecases.restaurant import ORDERS_TOPIC, RestaurantManager
from repro.workloads import EatsWorkload


def main() -> None:
    platform = Platform().with_kafka().with_pinot()
    manager = RestaurantManager.deploy(platform)

    workload = EatsWorkload(seed=3, orders_per_second=4.0)
    producer = platform.producer("eats-orders")
    events = sorted(workload.order_events(3600.0), key=lambda e: e[1])
    for row, __ in events:
        producer.send(
            ORDERS_TOPIC, row, key=row["restaurant_id"],
            event_time=row["event_time"],
        )
    producer.flush()
    print(f"produced {len(events)} order events covering one stream-hour")

    platform.run_until_caught_up()

    restaurant = "rest-0"  # the hottest restaurant under the Zipf skew
    print(f"\n== dashboard for {restaurant} ==")
    print("top menu items:")
    for row in manager.top_items(restaurant).rows:
        print(
            f"  {row['item']:>10}: {int(row['sum(orders)'])} orders, "
            f"${row['sum(sales)']:.2f}"
        )
    print("recent sales windows:")
    for row in manager.sales_timeseries(restaurant, limit=5).rows:
        print(f"  t={row['window_start']:6.0f}s  ${row['sum(sales)']:.2f}")
    quality = manager.service_quality(restaurant)
    delivered = quality.get("delivered", 0)
    cancelled = quality.get("cancelled", 0)
    total = delivered + cancelled
    if total:
        print(
            f"service quality: {delivered}/{total} delivered "
            f"({100 * cancelled / total:.1f}% cancelled)"
        )
    print(f"\nlayers used (Table 1 row): {sorted(manager.trace.used)}")


if __name__ == "__main__":
    main()
