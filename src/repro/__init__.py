"""repro: a laptop-scale reproduction of "Real-time Data Infrastructure at
Uber" (Fu & Soman, SIGMOD 2021).

The package is the paper's Figure 2/Figure 3 stack and nothing else:

* ``repro.kafka``    — streaming storage (+ uReplicator, tiered topics)
* ``repro.flink``    — stream processing over Kafka topics or bounded Hive
  slices (Kappa+ backfill), with an autoscaler
* ``repro.pinot``    — realtime OLAP (+ upserts, star-tree, peer-to-peer
  segment recovery)
* ``repro.storage``  — blob store, raw-log archive, columnar files, Hive
* ``repro.sql``      — the SQL dialect, FlinkSQL compiler, Presto engine
* ``repro.metadata`` — schemas
* ``repro.allactive``— multi-region: all-active coordination
* ``repro.usecases`` — Section 5's four representative applications
* ``repro.workloads``— seeded synthetic workload generators
* ``repro.observability`` — cross-layer tracing, freshness reports, SLOs
* ``repro.audit``    — Chaperone: loss / duplication audits across stages
* ``repro.chaos``    — deterministic fault injection + recovery verification
  (``Platform.chaos()``)
* ``repro.controlplane`` — SLO-tiered admission/shedding and cross-layer
  autoscaling (``Platform.with_control_plane()``)
* ``repro.platform`` — the ``Platform`` facade wiring all of the above

The paper's foils (Storm, Spark, Elasticsearch, Druid, Kafka-replay Kappa,
Lambda), the counted-work gate and the surge experiment live under
``benchmarks/``, and no module here imports them.  Eleven modules are on
no path the facade, a use case or an example runs (Kafka federation,
DLQ, consumer proxy, admin and consumer groups; the HDFS model; offset
sync; the schema registry and catalog; the Flink job server and
watchdog): ``tests/test_reachability.py`` lists them until each joins a
path or goes.

The names below are the blessed entry points; deeper imports remain
available for specialised use.  ``Platform`` loads the chaos harness and
the control plane when they are asked for.
"""

from repro.common.clock import SimulatedClock, SystemClock
from repro.common.records import Record
from repro.common.retry import RetryPolicy
from repro.flink.graph import StreamEnvironment
from repro.flink.runtime import JobRuntime
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.observability.freshness import FreshnessReport
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
    "FreshnessReport",
    "SloMonitor",
    "SloTarget",
    "RetryPolicy",
]
