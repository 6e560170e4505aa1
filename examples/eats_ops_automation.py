"""UberEats ops automation: ad-hoc exploration to production (Section 5.4).

Courier telemetry streams into a FlinkSQL density rollup served by Pinot.
An ops analyst explores with PrestoSQL, discovers geofences where too many
couriers bunch up (the Covid-19 occupancy-limit scenario), and
productionizes the query as a standing rule that alerts couriers and
restaurants.  The use case deploys onto one ``Platform``, whose
``run_until_caught_up()`` drains the rollup and its table.

Run:  python examples/eats_ops_automation.py
"""

from __future__ import annotations

from repro import Platform
from repro.usecases.eats_ops import TELEMETRY_TOPIC, EatsOpsAutomation, OpsRule
from repro.workloads import EatsWorkload


def main() -> None:
    platform = Platform().with_kafka().with_pinot().with_presto()
    ops = EatsOpsAutomation.deploy(platform)

    workload = EatsWorkload(seed=23, restaurants=20, couriers=150)
    producer = platform.producer("courier-app")
    pings = 0
    last_time = 0.0
    for row, arrival in workload.courier_telemetry(1800.0, pings_per_second=20.0):
        producer.send(TELEMETRY_TOPIC, row, key=row["hex_id"],
                      event_time=row["event_time"])
        pings += 1
        last_time = arrival
    producer.flush()
    print(f"streamed {pings} courier pings")

    platform.run_until_caught_up()

    # 1. Ad-hoc exploration with PrestoSQL over the fresh Pinot table.
    exploration = ops.explore(
        "SELECT hex_id, MAX(couriers) AS peak_couriers "
        "FROM courier_density GROUP BY hex_id "
        "ORDER BY peak_couriers DESC LIMIT 5"
    )
    print("\nad-hoc exploration — most crowded geofences:")
    for row in exploration.rows:
        print(f"  {row['hex_id']:>14}: peak {int(row['peak_couriers'])} couriers")

    # 2. Productionize the insight as an automation rule.
    threshold = max(2.0, exploration.rows[0]["peak_couriers"] * 0.8)
    ops.productionize(
        OpsRule(
            name="covid-occupancy-cap",
            metric="couriers",
            threshold=threshold,
            window_lookback=1800.0,
        )
    )
    alerts = ops.evaluate_rules(now=last_time)
    print(f"\nrule fired {len(alerts)} notifications (threshold {threshold:.0f}):")
    for alert in alerts[:5]:
        print(
            f"  notify {alert.notify} at {alert.hex_id}: "
            f"{int(alert.value)} couriers"
        )
    print(f"\nlayers used (Table 1 row): {sorted(ops.trace.used)}")


if __name__ == "__main__":
    main()
