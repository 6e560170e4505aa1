"""The four Section 5 pipelines, end to end, plus the Table 1 matrix."""

import pytest

from repro import Platform
from repro.allactive.region import MultiRegionDeployment
from repro.common.clock import SimulatedClock
from repro.kafka.cluster import KafkaCluster
from repro.usecases.components import LAYERS, ComponentTrace, render_table
from repro.usecases.eats_ops import TELEMETRY_TOPIC, EatsOpsAutomation, OpsRule
from repro.usecases.prediction import (
    OUTCOMES_TOPIC,
    PREDICTIONS_TOPIC,
    PredictionMonitoring,
)
from repro.usecases.restaurant import ORDERS_TOPIC, RestaurantManager
from repro.usecases.surge import (
    MARKETPLACE_TOPIC,
    ActiveActiveSurge,
    DemandSupplyAggregate,
    surge_multiplier,
)
from repro.workloads import EatsWorkload, PredictionWorkload, TripWorkload


class TestSurge:
    def test_multiplier_properties(self):
        assert surge_multiplier(0, 10) == 1.0  # no demand -> base price
        assert surge_multiplier(100, 2) > surge_multiplier(10, 2)
        assert surge_multiplier(10_000, 0) <= 5.0  # bounded

    def test_demand_supply_aggregate(self):
        agg = DemandSupplyAggregate()
        acc = agg.create_accumulator()
        acc = agg.add({"kind": "trip_requested"}, acc)
        acc = agg.add({"kind": "driver_available", "driver_id": "d1"}, acc)
        acc = agg.add({"kind": "driver_available", "driver_id": "d1"}, acc)
        acc = agg.add({"kind": "driver_busy", "driver_id": "d2"}, acc)
        result = agg.get_result(acc)
        assert result == {"demand": 1, "supply": 1}

    def test_active_active_failover_converges(self):
        deployment = MultiRegionDeployment(["w", "e"], clock=SimulatedClock())
        deployment.create_topic(MARKETPLACE_TOPIC)
        surge = ActiveActiveSurge(deployment, window_seconds=120.0)
        workload = TripWorkload(seed=2, requests_per_second=4.0)
        events = sorted(workload.events(600.0), key=lambda e: e[1])
        producers = {
            name: deployment.producer(name, "svc") for name in deployment.regions
        }
        for index, (event, __) in enumerate(events):
            region = "w" if index % 2 == 0 else "e"
            row = event.to_row()
            producers[region].send(
                MARKETPLACE_TOPIC, row, key=row["hex_id"],
                event_time=row["event_time"],
            )
        for producer in producers.values():
            producer.flush()
        for __ in range(30):
            surge.step()
        primary = surge.coordinator.primary
        standby = next(n for n in deployment.regions if n != primary)
        # Redundant computation: both regions produced the same windows.
        primary_results = {
            (u.hex_id, u.window_start): u.multiplier
            for u in surge.results[primary]
        }
        standby_results = {
            (u.hex_id, u.window_start): u.multiplier
            for u in surge.results[standby]
        }
        shared = set(primary_results) & set(standby_results)
        assert shared
        assert all(
            primary_results[key] == standby_results[key] for key in shared
        )
        # Failover: lookups keep working from the survivor.
        new_primary = surge.fail_region(primary)
        assert new_primary == standby
        surge.step()
        keys = surge.kv.keys(new_primary)
        assert keys
        assert surge.lookup(new_primary, keys[0]) is not None

    def test_trace_matches_table1(self):
        from repro.usecases.surge import build_surge_job

        clock = SimulatedClock()
        kafka = KafkaCluster("k", 3, clock=clock)
        from repro.kafka.cluster import TopicConfig

        kafka.create_topic(MARKETPLACE_TOPIC, TopicConfig(partitions=2))
        trace = ComponentTrace("Surge")
        build_surge_job(kafka, MARKETPLACE_TOPIC, "g", [], trace=trace)
        assert trace.used == {"API", "Compute", "Stream"}


class TestRestaurantManager:
    def _deploy(self, orders=1200):
        platform = Platform().with_kafka().with_pinot()
        manager = RestaurantManager.deploy(platform)
        workload = EatsWorkload(seed=5, orders_per_second=2.0)
        producer = platform.producer("eats")
        events = sorted(workload.order_events(orders), key=lambda e: e[1])
        for row, __ in events:
            producer.send(ORDERS_TOPIC, row, key=row["restaurant_id"],
                          event_time=row["event_time"])
        producer.flush()
        platform.run_until_caught_up()
        return manager

    def test_preagg_dashboard_queries(self):
        manager = self._deploy()
        top = manager.top_items("rest-0")
        assert top.rows
        assert top.rows[0]["sum(orders)"] >= top.rows[-1]["sum(orders)"]
        series = manager.sales_timeseries("rest-0")
        assert all("sum(sales)" in row for row in series.rows)

    def test_raw_table_service_quality(self):
        manager = self._deploy()
        quality = manager.service_quality("rest-0")
        assert quality.get("placed", 0) > 0

    def test_preagg_serves_fewer_docs_than_raw(self):
        """The Section 5.2 trade-off: transformation-time processing cuts
        serving work."""
        manager = self._deploy()
        preagg = manager.top_items("rest-0")
        from repro.pinot.query import Aggregation, Filter, PinotQuery

        raw = manager.platform.broker.execute(
            PinotQuery(
                "eats_orders",
                aggregations=[Aggregation("COUNT")],
                filters=[Filter("restaurant_id", "=", "rest-0")],
                group_by=["item"],
                limit=5,
            )
        )
        assert preagg.docs_examined() < raw.docs_examined()

    def test_trace_matches_table1(self):
        manager = self._deploy(orders=120)
        assert manager.trace.used == {"SQL", "OLAP", "Compute", "Stream", "Storage"}


class TestPredictionMonitoring:
    def _deploy(self):
        platform = Platform().with_kafka().with_pinot()
        monitoring = PredictionMonitoring.deploy(platform)
        workload = PredictionWorkload(
            seed=7, models=5, features_per_model=4,
            predictions_per_second=5.0, drifting_models=frozenset({2}),
        )
        producer = platform.producer("ml")
        for kind, row, __ in workload.streams(2400.0):
            topic = PREDICTIONS_TOPIC if kind == "prediction" else OUTCOMES_TOPIC
            producer.send(topic, row, key=row["prediction_id"],
                          event_time=row["event_time"])
        producer.flush()
        platform.run_until_caught_up()
        return monitoring

    def test_join_produces_accuracy_cube(self):
        monitoring = self._deploy()
        error = monitoring.model_error("model-0")
        assert 0.0 <= error < 0.2

    def test_drifting_model_detected(self):
        monitoring = self._deploy()
        healthy = monitoring.model_error("model-0")
        drifting = monitoring.model_error("model-2")
        assert drifting > 2 * healthy
        alerts = monitoring.detect_anomalies(threshold=(healthy + drifting) / 2)
        assert [a["model_id"] for a in alerts] == ["model-2"]

    def test_trace_covers_all_layers(self):
        monitoring = self._deploy()
        assert monitoring.trace.used == set(LAYERS)

    def test_feature_store_point_in_time_consistency(self):
        monitoring = self._deploy()
        # Every prediction logged its request-time features...
        assert monitoring.features.key_count() > 0
        # ...and the online store reconciles exactly against an offline
        # recomputation from the raw prediction log.
        report = monitoring.feature_consistency_report()
        assert report.ok

    def test_features_never_read_ahead_of_event_time(self):
        monitoring = self._deploy()
        store = monitoring.features
        canonical = next(iter(store._tables))
        key = store._display[canonical]
        (first_ts, __, __) = next(iter(store._tables[canonical].values()))[0]
        assert store.get_features(key, as_of=first_ts - 0.001) == {}
        assert store.get_features(key, as_of=first_ts) != {}


class TestEatsOps:
    def _deploy(self):
        platform = Platform().with_kafka().with_pinot().with_presto()
        ops = EatsOpsAutomation.deploy(platform)
        workload = EatsWorkload(seed=9, restaurants=10, couriers=80)
        producer = platform.producer("courier")
        last = 0.0
        for row, arrival in workload.courier_telemetry(900.0, pings_per_second=8.0):
            producer.send(TELEMETRY_TOPIC, row, key=row["hex_id"],
                          event_time=row["event_time"])
            last = arrival
        producer.flush()
        platform.run_until_caught_up()
        return ops, last

    def test_explore_with_prestosql(self):
        ops, __ = self._deploy()
        out = ops.explore(
            "SELECT hex_id, MAX(couriers) AS peak FROM courier_density "
            "GROUP BY hex_id ORDER BY peak DESC LIMIT 3"
        )
        assert out.rows
        peaks = [r["peak"] for r in out.rows]
        assert peaks == sorted(peaks, reverse=True)

    def test_productionized_rule_fires(self):
        ops, last = self._deploy()
        ops.productionize(
            OpsRule("cap", metric="couriers", threshold=0.5,
                    window_lookback=1800.0)
        )
        alerts = ops.evaluate_rules(now=last)
        assert alerts
        assert all(a.value > 0.5 for a in alerts)

    def test_rule_below_threshold_is_quiet(self):
        ops, last = self._deploy()
        ops.productionize(
            OpsRule("impossible", metric="couriers", threshold=1e9)
        )
        assert ops.evaluate_rules(now=last) == []

    def test_trace_matches_table1(self):
        ops, __ = self._deploy()
        assert ops.trace.used == {"SQL", "OLAP", "Compute", "Stream"}


class TestTable1:
    def test_render_matches_paper_matrix(self):
        traces = [
            ComponentTrace("Surge", {"API", "Compute", "Stream"}),
            ComponentTrace(
                "Restaurant Manager",
                {"SQL", "OLAP", "Compute", "Stream", "Storage"},
            ),
            ComponentTrace("Prediction Monitoring", set(LAYERS)),
            ComponentTrace("Eats Ops", {"SQL", "OLAP", "Compute", "Stream"}),
        ]
        table = render_table(traces)
        lines = table.splitlines()
        assert lines[0].startswith("Component")
        assert len(lines) == 1 + len(LAYERS)
        # Compute and Stream rows are all-Y, matching the paper.
        compute_row = next(l for l in lines if l.startswith("Compute"))
        assert compute_row.count("Y") == 4

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            ComponentTrace("x").use("Blockchain")
