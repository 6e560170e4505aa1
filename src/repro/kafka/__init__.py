"""Streaming storage: a Kafka-flavoured log plus Uber's extensions.

Core: partitioned replicated logs, producers, consumer groups.
Extensions from the paper: cluster federation (4.1.1), dead letter queues
(4.1.2), the push-based consumer proxy (4.1.3), uReplicator cross-cluster
replication (4.1.4), self-serve admin (9.4).  Chaperone auditing (4.1.4)
is :mod:`repro.audit`, which scans these logs among its other stages.
"""

from repro.kafka.cluster import Broker, KafkaCluster, TopicConfig
from repro.kafka.consumer import ConsumedMessage, Consumer, GroupCoordinator
from repro.kafka.dlq import DlqConsumer, FailurePolicy, dlq_topic_name
from repro.kafka.federation import (
    FederatedConsumer,
    FederatedProducer,
    FederationMetadataServer,
)
from repro.kafka.log import LogEntry, PartitionLog
from repro.kafka.producer import Producer, RecordMetadata, hash_partitioner
from repro.kafka.proxy import (
    ConsumerProxy,
    DrainReport,
    EndpointError,
    UniformEndpoint,
    polling_group_makespan,
)
from repro.kafka.ureplicator import OffsetMapping, OffsetMappingStore, UReplicator
from repro.kafka.admin import SelfServeAdmin, TopicQuota
from repro.kafka.tiered import ChunkMeta, TieredPartition, TieredTopic

__all__ = [
    "Broker",
    "KafkaCluster",
    "TopicConfig",
    "ConsumedMessage",
    "Consumer",
    "GroupCoordinator",
    "DlqConsumer",
    "FailurePolicy",
    "dlq_topic_name",
    "FederatedConsumer",
    "FederatedProducer",
    "FederationMetadataServer",
    "LogEntry",
    "PartitionLog",
    "Producer",
    "RecordMetadata",
    "hash_partitioner",
    "ConsumerProxy",
    "DrainReport",
    "EndpointError",
    "UniformEndpoint",
    "polling_group_makespan",
    "OffsetMapping",
    "OffsetMappingStore",
    "UReplicator",
    "SelfServeAdmin",
    "TopicQuota",
    "ChunkMeta",
    "TieredPartition",
    "TieredTopic",
]
