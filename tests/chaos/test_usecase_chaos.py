"""A Section 5 use case under the chaos harness.

The restaurant dashboard deploys onto a ``Platform``, so
``Platform.chaos()`` reaches it: the server owning partition 0 of the raw
orders table dies mid-ingest, losing its consuming segments, and a
replacement takes over and re-consumes from the committed offsets.  Every
order must then be in Pinot exactly once, and the dashboard must answer
as a fault-free twin does.
"""

from repro import Platform
from repro.audit import IntegrityAuditor
from repro.chaos import faults
from repro.usecases.restaurant import ORDERS_TOPIC, RestaurantManager
from repro.workloads import EatsWorkload

RESTAURANTS = ("rest-0", "rest-1", "rest-2")


def deploy_and_feed():
    platform = Platform(seed=7).with_kafka().with_pinot()
    manager = RestaurantManager.deploy(platform)
    audit = IntegrityAuditor("eats-orders")
    producer = platform.producer("eats-orders")
    events = sorted(EatsWorkload(seed=3).order_events(800.0), key=lambda e: e[1])
    for row, __ in events:
        audit.record_expected(row["restaurant_id"], row)
        producer.send(
            ORDERS_TOPIC, row, key=row["restaurant_id"], event_time=row["event_time"]
        )
    producer.flush()
    audit.add_pinot_stage(
        platform.pinot, "eats_orders", key_fn=lambda row: row["restaurant_id"]
    )
    return platform, manager, audit


def dashboard(manager):
    return [
        (
            manager.top_items(restaurant).rows,
            manager.sales_timeseries(restaurant).rows,
            manager.service_quality(restaurant),
        )
        for restaurant in RESTAURANTS
    ]


def test_restaurant_dashboard_survives_owner_death():
    twin_platform, twin, __ = deploy_and_feed()
    twin_platform.run_until_caught_up()

    platform, manager, audit = deploy_and_feed()
    partition = platform.pinot.table("eats_orders").ingestion.partitions[0]
    owner = partition.owner.name
    chaos = (
        platform.chaos()
        .kill_pinot_server(at=3.0, name=owner)
        .recover_pinot_server(at=6.0, failed=owner, replacement="r0")
        .expect_integrity(audit)
        .expect_equal("dashboard-answers", lambda: dashboard(manager), dashboard(twin))
    )
    chaos.run(until=12.0)
    platform.run_until_caught_up()

    report = chaos.report()
    assert report.ok, report.render()
    assert [e.kind for e in chaos.events] == [
        faults.PINOT_KILL_SERVER,
        faults.PINOT_RECOVER_SERVER,
    ]
    assert partition.owner.name == "r0"
