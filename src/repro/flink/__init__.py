"""Stream processing: a Flink-flavoured dataflow engine.

DataStream-style builder (graph), event time + watermarks (time), windows
and aggregates (windows), keyed state (state), operators, a cooperative
runtime with credit-style backpressure and barrier checkpointing
(runtime), and the platform pieces from the paper: unified job management
(jobserver, Section 4.2.2), resource estimation + auto-scaling
(autoscaler) and the rule-based recovery watchdog (watchdog, both
Section 4.2.1).  The job server and the watchdog are on no path the
platform runs (``tests/test_reachability.py``), so this package does not
load them: import them from their own modules.
"""

from repro.flink.autoscaler import (
    AutoScaler,
    JobProfile,
    ResourceEstimate,
    ScalingDecision,
    classify_job,
    estimate_resources,
)
from repro.flink.graph import DataStream, JobGraph, StreamEnvironment, validate_graph
from repro.flink.operators import (
    BoundedListSource,
    CollectSink,
    IntervalJoinOperator,
    KafkaSink,
    KafkaSource,
    WindowJoinOperator,
)
from repro.flink.runtime import JobRuntime
from repro.flink.state import KeyedStateBackend
from repro.flink.time import (
    BoundedOutOfOrdernessWatermarks,
    CheckpointBarrier,
    StreamRecord,
    StreamStatus,
    Watermark,
)
from repro.flink.windows import (
    AvgAggregate,
    CollectAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SessionWindows,
    SlidingWindows,
    SumAggregate,
    TimeWindow,
    TumblingWindows,
    WindowResult,
)

__all__ = [
    "AutoScaler",
    "JobProfile",
    "ResourceEstimate",
    "ScalingDecision",
    "classify_job",
    "estimate_resources",
    "DataStream",
    "JobGraph",
    "StreamEnvironment",
    "validate_graph",
    "BoundedListSource",
    "CollectSink",
    "IntervalJoinOperator",
    "KafkaSink",
    "KafkaSource",
    "WindowJoinOperator",
    "JobRuntime",
    "KeyedStateBackend",
    "BoundedOutOfOrdernessWatermarks",
    "CheckpointBarrier",
    "StreamRecord",
    "StreamStatus",
    "Watermark",
    "AvgAggregate",
    "CollectAggregate",
    "CountAggregate",
    "MaxAggregate",
    "MinAggregate",
    "SessionWindows",
    "SlidingWindows",
    "SumAggregate",
    "TimeWindow",
    "TumblingWindows",
    "WindowResult",
]
