"""Experiment C7 — §4.1.4: uReplicator elasticity + Chaperone auditing.

Paper: uReplicator "has an in-built rebalancing algorithm so that it
minimizes the number of the affected topic partitions during rebalancing.
Moreover ... when there is bursty traffic it can dynamically redistribute
the load to the standby workers for elasticity."  Chaperone "compares the
collected statistics and generates alerts when mismatch is detected."

Series: partitions moved under worker churn (sticky vs naive); burst drain
time with vs without standby elasticity; and an injected-loss audit.
"""

from __future__ import annotations

from repro.audit import IntegrityAuditor
from repro.kafka.cluster import KafkaCluster
from repro.kafka.producer import Producer
from repro.kafka.ureplicator import UReplicator

from benchmarks.conftest import kafka_with_topic, print_table

PARTITIONS = 16


def churn_experiment(sticky: bool) -> int:
    clock, source = kafka_with_topic("t", partitions=PARTITIONS)
    destination = KafkaCluster("dst", 3, clock=clock)
    replicator = UReplicator(source, destination, "t", num_workers=4)
    moved = 0
    moved += replicator.add_worker(sticky=sticky)
    moved += replicator.add_worker(sticky=sticky)
    moved += replicator.remove_worker("worker-1", sticky=sticky)
    return moved


def burst_experiment(with_standby: bool) -> int:
    clock, source = kafka_with_topic("t", partitions=PARTITIONS)
    destination = KafkaCluster("dst", 3, clock=clock)
    replicator = UReplicator(
        source, destination, "t",
        num_workers=2, num_standby=4 if with_standby else 0,
        worker_throughput=200, burst_lag_threshold=1000,
    )
    producer = Producer(source, "svc", clock=clock)
    for i in range(12_000):
        producer.send("t", {"i": i}, key=f"k{i}")
    producer.flush()
    steps = 0
    while replicator.total_lag() > 0 and steps < 1000:
        replicator.activate_standbys_if_bursty()
        replicator.run_step()
        steps += 1
    return steps


def audit_experiment() -> int:
    clock, source = kafka_with_topic("t", partitions=4)
    destination = KafkaCluster("dst", 3, clock=clock)
    producer = Producer(source, "svc", clock=clock)
    for i in range(2000):
        clock.advance(0.5)
        producer.send("t", {"i": i}, key=f"k{i}")
    producer.flush()
    replicator = UReplicator(source, destination, "t")
    replicator.run_to_completion()
    # Inject loss: pretend the last 7 replicated records of partition 0
    # never arrived downstream.
    lost = {e.record.value["i"] for e in destination.fetch("t", 0, 0, 10_000)[-7:]}
    audit = IntegrityAuditor("ureplicator")
    audit.add_kafka_stage(source, "t", stage="source")
    audit.add_kafka_stage(
        destination,
        "t",
        stage="destination",
        where=lambda record: record.value["i"] not in lost,
    )
    alerts = audit.window_report(window_seconds=120.0)
    return sum(a.missing_count for a in alerts)


def run_all():
    return {
        "moved_sticky": churn_experiment(sticky=True),
        "moved_naive": churn_experiment(sticky=False),
        "burst_steps_standby": burst_experiment(with_standby=True),
        "burst_steps_fixed": burst_experiment(with_standby=False),
        "audited_loss": audit_experiment(),
    }


def test_ureplicator_and_chaperone(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "C7: rebalance churn (16 partitions, add+add+remove worker)",
        ["algorithm", "partitions moved"],
        [
            ["sticky (uReplicator)", results["moved_sticky"]],
            ["naive round-robin", results["moved_naive"]],
        ],
    )
    print_table(
        "C7: burst drain (12k backlog, 200 msg/worker/step)",
        ["configuration", "steps to drain"],
        [
            ["2 workers + 4 standby (elastic)", results["burst_steps_standby"]],
            ["2 workers, no standby", results["burst_steps_fixed"]],
        ],
    )
    print_table(
        "C7: Chaperone audit with 7 injected losses",
        ["injected", "detected"],
        [[7, results["audited_loss"]]],
    )
    assert results["moved_sticky"] < results["moved_naive"]
    assert results["burst_steps_standby"] < results["burst_steps_fixed"] / 2
    assert results["audited_loss"] == 7
    benchmark.extra_info.update(results)
