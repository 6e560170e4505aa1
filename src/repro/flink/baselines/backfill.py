"""The two backfill architectures Kappa+ improves on (Section 7, C13).

Kappa+ itself is not here: it is the ordinary streaming job reading a
bounded Hive slice through
:meth:`~repro.flink.graph.StreamEnvironment.from_hive`.  These are its
foils:

* **Kappa**: replay the Kafka log itself — only works while retention
  still covers the range ("we limit Kafka retention to only a few days.
  Therefore, we're unable to adopt the Kappa architecture").
* **Lambda**: a separately-maintained batch implementation of the same
  logic — runs fine, but is a second codebase that can drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.flink.graph import StreamEnvironment
from repro.flink.operators import BoundedListSource
from repro.flink.runtime import JobRuntime
from repro.kafka.cluster import KafkaCluster
from repro.storage.hive import HiveTable

# A pipeline builder attaches the user's streaming logic to a source
# stream and returns the terminal stream to sink: fn(stream) -> stream.
PipelineBuilder = Callable[[Any], Any]


@dataclass
class BackfillReport:
    rows_read: int = 0
    rows_missing: int = 0  # wanted but not available (Kappa retention)
    outputs: int = 0
    results: list = field(default_factory=list)  # lambda_batch outputs


def kappa_replay(
    cluster: KafkaCluster,
    topic: str,
    time_column: str,
    start_time: float,
    end_time: float,
    pipeline: PipelineBuilder,
    sink_collector: list,
    max_out_of_orderness: float = 0.0,
    job_name: str = "kappa-replay",
) -> BackfillReport:
    """Classic Kappa: re-read the Kafka log for the time range.

    Whatever retention already expired is simply *gone* — the report's
    ``rows_missing`` counts records whose offsets were truncated (estimated
    from the log start offsets; the experiment driver knows the true
    produced count and passes nothing here).
    """
    report = BackfillReport()
    elements: list[tuple[Any, float]] = []
    missing = 0
    for partition in range(cluster.partition_count(topic)):
        start = cluster.start_offset(topic, partition)
        missing += start  # offsets below the start were expired
        offset = start
        end = cluster.end_offset(topic, partition)
        while offset < end:
            for entry in cluster.fetch(topic, partition, offset, 1000):
                offset = entry.offset + 1
                row = entry.record.value
                timestamp = row.get(time_column)
                if timestamp is None or not start_time <= timestamp < end_time:
                    continue
                elements.append((row, float(timestamp)))
    report.rows_missing = missing
    report.rows_read = len(elements)
    if not elements:
        return report
    # Partitions are read sequentially above; merge them back into event-
    # time order so one partition's tail does not mark another's head late
    # (a real replay consumer interleaves partitions the same way).
    elements.sort(key=lambda pair: pair[1])
    source = BoundedListSource(elements, max_out_of_orderness=max_out_of_orderness)
    env = StreamEnvironment()
    terminal = pipeline(env.add_source(source, name="kafka-replay-source"))
    terminal.sink_to_list(sink_collector)
    runtime = JobRuntime(env.build(job_name))
    runtime.run_until_quiescent()
    report.outputs = len(sink_collector)
    return report


def lambda_batch(
    table: HiveTable,
    time_column: str,
    start_time: float,
    end_time: float,
    batch_fn: Callable[[list[dict[str, Any]]], list[Any]],
) -> BackfillReport:
    """Lambda architecture: a *separate* batch implementation.

    ``batch_fn`` is the user's second copy of the logic — the maintenance
    and consistency liability the paper criticizes.  The bench demonstrates
    the liability by diffing its output against the streaming result.
    """
    report = BackfillReport()
    rows = [
        row
        for row in table.scan()
        if row.get(time_column) is not None
        and start_time <= row[time_column] < end_time
    ]
    report.rows_read = len(rows)
    outputs = batch_fn(rows)
    report.outputs = len(outputs)
    report.results = outputs
    return report
