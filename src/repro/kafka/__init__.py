"""Streaming storage: a Kafka-flavoured log plus Uber's extensions.

Core: partitioned replicated logs, producers, consumer groups.
Extensions from the paper: cluster federation (4.1.1), dead letter queues
(4.1.2), the push-based consumer proxy (4.1.3), uReplicator cross-cluster
replication (4.1.4), self-serve admin (9.4).  Chaperone auditing (4.1.4)
is :mod:`repro.audit`, which scans these logs among its other stages.

Consumer groups, federation, the DLQ, the proxy and admin are on no path
the platform runs (``tests/test_reachability.py``), so this package does
not load them: import them from their own modules.
"""

from repro.kafka.cluster import Broker, KafkaCluster, TopicConfig
from repro.kafka.log import LogEntry, PartitionLog
from repro.kafka.producer import Producer, RecordMetadata, hash_partitioner
from repro.kafka.ureplicator import OffsetMapping, OffsetMappingStore, UReplicator
from repro.kafka.tiered import ChunkMeta, TieredPartition, TieredTopic

__all__ = [
    "Broker",
    "KafkaCluster",
    "TopicConfig",
    "LogEntry",
    "PartitionLog",
    "Producer",
    "RecordMetadata",
    "hash_partitioner",
    "OffsetMapping",
    "OffsetMappingStore",
    "UReplicator",
    "ChunkMeta",
    "TieredPartition",
    "TieredTopic",
]
