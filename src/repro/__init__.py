"""repro: a laptop-scale reproduction of "Real-time Data Infrastructure at
Uber" (Fu & Soman, SIGMOD 2021).

The package mirrors the paper's Figure 2/Figure 3 architecture:

* ``repro.kafka``    — streaming storage (+ federation, DLQ, consumer
  proxy, uReplicator, self-serve admin)
* ``repro.flink``    — stream processing over Kafka topics or bounded Hive
  slices (Kappa+ backfill) (+ job server, autoscaler, watchdog, Storm /
  Spark / Kafka-replay Kappa / Lambda baselines)
* ``repro.pinot``    — realtime OLAP (+ upserts, star-tree, peer-to-peer
  segment recovery, ES/Druid baselines)
* ``repro.storage``  — blob store, HDFS simulation, columnar files, Hive
* ``repro.sql``      — the SQL dialect, FlinkSQL compiler, Presto engine
* ``repro.metadata`` — schema registry, catalog, lineage
* ``repro.allactive``— multi-region: all-active coordination, offset sync
* ``repro.usecases`` — Section 5's four representative applications
* ``repro.workloads``— seeded synthetic workload generators
* ``repro.observability`` — cross-layer tracing, freshness probes, SLOs
* ``repro.audit``    — Chaperone: loss / duplication audits across stages
* ``repro.chaos``    — deterministic fault injection + recovery verification
* ``repro.controlplane`` — SLO-tiered admission/shedding, cross-layer
  autoscaling, million-user surge workloads
* ``repro.platform`` — the ``Platform`` facade wiring all of the above

The names below are the blessed entry points; deeper imports remain
available for specialised use.
"""

from repro.chaos.harness import ChaosHarness
from repro.chaos.report import RecoveryReport
from repro.controlplane import AdmissionController, ControlPlane, SurgeWorkload
from repro.common.clock import SimulatedClock, SystemClock
from repro.common.records import Record
from repro.common.retry import RetryPolicy
from repro.flink.graph import StreamEnvironment
from repro.flink.runtime import JobRuntime
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.consumer import Consumer, GroupCoordinator
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.observability.freshness import (
    FreshnessProbe,
    FreshnessReport,
    PinotFreshnessProbe,
)
from repro.observability.slo import SloMonitor, SloTarget
from repro.observability.trace import Span, SpanCollector, TraceContext
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.recovery import CentralizedBackup, PeerToPeerBackup
from repro.pinot.segment import IndexConfig
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.platform import Platform
from repro.sql.flinksql import FlinkSqlCompiler, HiveTableDef, StreamTableDef
from repro.sql.presto.connector import HiveConnector, MemoryConnector, PinotConnector
from repro.sql.presto.engine import PrestoEngine
from repro.storage.blobstore import BlobStore

__version__ = "1.2.0"

__all__ = [
    # facade
    "Platform",
    # shared plumbing
    "SimulatedClock",
    "SystemClock",
    "Record",
    "BlobStore",
    # streaming storage
    "KafkaCluster",
    "TopicConfig",
    "Producer",
    "Consumer",
    "GroupCoordinator",
    # stream processing
    "StreamEnvironment",
    "JobRuntime",
    "FlinkSqlCompiler",
    "StreamTableDef",
    "HiveTableDef",
    # OLAP
    "PinotController",
    "PinotBroker",
    "PinotServer",
    "TableConfig",
    "IndexConfig",
    "PeerToPeerBackup",
    "CentralizedBackup",
    # federated SQL
    "PrestoEngine",
    "PinotConnector",
    "HiveConnector",
    "MemoryConnector",
    # metadata
    "Schema",
    "Field",
    "FieldType",
    "FieldRole",
    # observability
    "SpanCollector",
    "TraceContext",
    "Span",
    "FreshnessProbe",
    "PinotFreshnessProbe",
    "FreshnessReport",
    "SloMonitor",
    "SloTarget",
    # chaos
    "ChaosHarness",
    "RecoveryReport",
    "RetryPolicy",
    # control plane
    "ControlPlane",
    "AdmissionController",
    "SurgeWorkload",
]
