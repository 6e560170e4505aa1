"""Experiment C2 — §4.2: memory, micro-batch (Spark) vs streaming (Flink).

Paper: "Spark jobs consumed 5-10 times more memory than a corresponding
Flink job for the same workload."

Both engines run the same logical job — keyed tumbling-window count over
the same stream — and we measure actual retained bytes: the micro-batch
engine's buffered batches + lineage cache vs the streaming engine's window
accumulators + channel buffers.
"""

from __future__ import annotations

from repro.common.memory import deep_sizeof
from benchmarks.foils.spark import MicroBatchEngine
from repro.flink.graph import StreamEnvironment
from repro.flink.operators import BoundedListSource
from repro.flink.runtime import JobRuntime
from repro.flink.windows import CountAggregate, TumblingWindows

from benchmarks.conftest import print_table

# Workload sized like a realistic per-key metrics job: enough key
# cardinality that the streaming engine's window state is non-trivial, so
# the measured gap reflects the paper's deployment-average 5-10x rather
# than a degenerate tiny-state case.
N_EVENTS = 20_000
KEYS = 1000
WINDOW = 60.0
BATCH_INTERVAL = 10.0
RATE = 200.0  # events per second of stream time


def make_events():
    # ~120-byte payloads: realistic event envelopes (ids, coordinates,
    # metadata) that a micro-batch engine must buffer raw but a streaming
    # engine folds into accumulators immediately.
    return [
        (
            {"k": f"key-{i % KEYS}", "pad": f"payload-{i:08d}" + "x" * 96},
            i / RATE,
        )
        for i in range(N_EVENTS)
    ]


def run_flink() -> tuple[int, int]:
    """Returns (peak retained bytes, total output count)."""
    events = make_events()
    out: list = []
    env = StreamEnvironment()
    env.add_source(BoundedListSource(events, batch_size=500)) \
        .key_by(lambda v: v["k"]) \
        .window(TumblingWindows(WINDOW)) \
        .aggregate(CountAggregate()) \
        .sink_to_list(out)
    runtime = JobRuntime(env.build("mem-flink"), channel_capacity=1000)
    peak = 0
    while runtime.run_rounds(1, budget_per_task=500):
        retained = runtime.total_state_bytes() + deep_sizeof(
            [
                list(channel.queue)
                for tasks in runtime.tasks.values()
                for task in tasks
                for channel in task.inputs.values()
            ]
        )
        peak = max(peak, retained)
    return peak, sum(r.value for r in out)


def run_spark() -> tuple[int, int]:
    engine = MicroBatchEngine(
        key_fn=lambda v: v["k"],
        window_size=WINDOW,
        aggregator=CountAggregate(),
        batch_interval=BATCH_INTERVAL,
        retained_batches=2,
    )
    for value, timestamp in make_events():
        engine.ingest(value, timestamp)
    engine.flush()
    return engine.memory_bytes(), sum(r.value for r in engine.results)


def run_both():
    return run_flink(), run_spark()


def test_streaming_vs_microbatch_memory(benchmark):
    (flink_bytes, flink_total), (spark_bytes, spark_total) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    ratio = spark_bytes / flink_bytes
    print_table(
        "C2: peak retained memory, same windowed-count job over 20k events",
        ["engine", "peak bytes", "records counted", "ratio vs flink"],
        [
            ["flink (streaming)", flink_bytes, flink_total, "1.0x"],
            ["spark (micro-batch)", spark_bytes, spark_total, f"{ratio:.1f}x"],
        ],
    )
    # Same answer...
    assert flink_total == spark_total == N_EVENTS
    # ...but the paper's 5-10x memory gap (we accept 3x+ as the shape).
    assert ratio > 3.0
    benchmark.extra_info["spark_over_flink_memory"] = ratio
