"""Foils the paper measures its designs against: Storm's backlog
recovery and Spark's micro-batches (Section 4.2), and the Kafka-replay
Kappa and separate-batch Lambda backfills that Kappa+ replaces
(Section 7; Kappa+ is ``StreamEnvironment.from_hive``)."""

from repro.flink.baselines.backfill import (
    BackfillReport,
    kappa_replay,
    lambda_batch,
)
from repro.flink.baselines.backlog import (
    RecoveryResult,
    recovery_comparison,
    simulate_flink_recovery,
    simulate_storm_recovery,
)
from repro.flink.baselines.spark import MicroBatchEngine

__all__ = [
    "BackfillReport",
    "kappa_replay",
    "lambda_batch",
    "RecoveryResult",
    "recovery_comparison",
    "simulate_flink_recovery",
    "simulate_storm_recovery",
    "MicroBatchEngine",
]
