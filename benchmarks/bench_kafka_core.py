"""Experiment C15 — §4.1 context: the streaming substrate.

The paper adopted Kafka for "system throughput and latency, the primary
performance metrics for event streaming systems" (the Confluent-style
benchmark).  This bench sweeps our substrate the same way — acks settings
by producer batch size, produce then consume — and asserts what the sweep
must show in quantities that repeat for a seed: every message is consumed
exactly once, a record is sized once however many replicas store it,
bigger batches mean fewer produce requests, and ``acks=all`` stores the
same records and bytes on every replica as ``acks=1`` does once followers
catch up.  The wall msg/s are printed beside them as read, never asserted
(one stopwatch reading is not a measurement).
"""

from __future__ import annotations

import time

from repro.common.clock import SimulatedClock
from repro.common.perf import measured
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.consumer import Consumer, GroupCoordinator
from repro.kafka.producer import Producer

from benchmarks.conftest import print_table

N_MESSAGES = 10_000
PARTITIONS = 4
REPLICATION = 2
BATCH_SIZES = (1024, 16_384, 131_072)


def produce_consume(acks: str, batch_size: int) -> dict:
    clock = SimulatedClock()
    cluster = KafkaCluster("k", 3, clock=clock)
    cluster.create_topic(
        "t", TopicConfig(partitions=PARTITIONS, replication_factor=REPLICATION)
    )
    producer = Producer(cluster, "svc", acks=acks, batch_size=batch_size, clock=clock)
    with measured() as perf:
        start = time.perf_counter()
        for i in range(N_MESSAGES):
            producer.send("t", {"i": i, "pad": "x" * 64}, key=f"k{i % 100}")
        producer.flush()
        produce_wall = time.perf_counter() - start
        cluster.replicate()  # acks=1 followers catch up; acks=all already are
        counts = perf.snapshot()
    consumer = Consumer(cluster, GroupCoordinator(cluster), "g", "t", "m0")
    consumed = []
    start = time.perf_counter()
    while len(consumed) < N_MESSAGES:
        consumed += consumer.poll(2000)
    consume_wall = time.perf_counter() - start
    consumed += consumer.poll(2000)  # nothing is left to deliver twice
    stored = {}
    for partition in range(PARTITIONS):
        for broker_id in cluster._pstate("t", partition).replica_brokers:
            log = cluster.brokers[broker_id].replicas[("t", partition)]
            records = [entry.record for entry in log.read(0, N_MESSAGES)]
            stored[(partition, broker_id)] = (records, log.size_bytes)
    return {
        "produce_wall": produce_wall,
        "consume_wall": consume_wall,
        "consumed": [
            (m.partition, m.offset, m.entry.record.value["i"]) for m in consumed
        ],
        "counts": counts,
        "batches": producer.batches_sent,
        "stored": stored,
    }


def run_sweep():
    return {
        (acks, batch_size): produce_consume(acks, batch_size)
        for acks in ("1", "all")
        for batch_size in BATCH_SIZES
    }


def test_kafka_substrate_throughput(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        f"C15: substrate sweep, {N_MESSAGES} messages, RF {REPLICATION} "
        "(msg/s wall, as read)",
        [
            "acks",
            "batch bytes",
            "batches",
            "size encodings",
            "entries built",
            "produce msg/s",
            "consume msg/s",
        ],
        [
            [
                acks,
                batch_size,
                r["batches"],
                r["counts"]["kafka.size_encodings"],
                r["counts"]["kafka.entry_allocs"],
                f"{N_MESSAGES / r['produce_wall']:,.0f}",
                f"{N_MESSAGES / r['consume_wall']:,.0f}",
            ]
            for (acks, batch_size), r in results.items()
        ],
    )
    for (acks, batch_size), r in results.items():
        # Every message consumed exactly once: each offset once, each
        # payload once.
        consumed = r["consumed"]
        assert len({(p, offset) for p, offset, __ in consumed}) == len(consumed)
        assert sorted(i for __, __, i in consumed) == list(range(N_MESSAGES))
        # A record is sized and stored as one entry once, at the producer
        # and the leader; replicas share both instead of paying again.
        assert r["counts"]["kafka.size_encodings"] == N_MESSAGES
        assert r["counts"]["kafka.entry_allocs"] == N_MESSAGES
        # One produce request per batch.
        assert r["counts"]["kafka.partition_resolutions"] == r["batches"]
        # Every replica of a partition holds the same records and bytes.
        for partition in range(PARTITIONS):
            replicas = [v for (p, __), v in r["stored"].items() if p == partition]
            assert len(replicas) == REPLICATION
            assert all(replica == replicas[0] for replica in replicas)
    for acks in ("1", "all"):
        batches = [results[(acks, size)]["batches"] for size in BATCH_SIZES]
        assert batches == sorted(batches, reverse=True)
        assert len(set(batches)) == len(batches)  # strictly fewer each step
    for batch_size in BATCH_SIZES:
        # acks=all waits for the replicas; it does not store anything else.
        assert (
            results[("all", batch_size)]["stored"]
            == results[("1", batch_size)]["stored"]
        )
    benchmark.extra_info["messages"] = N_MESSAGES
