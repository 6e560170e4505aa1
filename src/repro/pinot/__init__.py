"""OLAP: a Pinot-flavoured realtime columnar store.

Segments with bit-packed forward indexes (segment), inverted/sorted/range
indexes (indexes), star-tree pre-aggregation (startree), realtime Kafka
ingestion with sealing (realtime), shared-nothing upserts (upsert,
Section 4.3.1), scatter-gather-merge brokering with partition-aware
routing (broker), controller-managed assignment and recovery (controller),
and the centralized vs peer-to-peer segment backup strategies of
Section 4.3.4 (recovery).  The broker additionally prunes segments via
commit-time zone maps / bloom filters and serves repeated queries from a
result cache validated by the table's segments (segment, indexes, broker).
"""

from repro.pinot.broker import PinotBroker, QueryResult
from repro.pinot.controller import PinotController, TableState
from repro.pinot.indexes import BloomFilter, InvertedIndex, RangeIndex, SortedIndex
from repro.pinot.json_support import (
    build_flattener,
    execute_json_query,
    json_extract,
    parse_json_path,
)
from repro.pinot.lookupjoin import (
    DimensionTable,
    DimensionTableRegistry,
    LookupJoinSpec,
    execute_lookup_join,
)
from repro.pinot.query import Aggregation, Filter, PinotQuery, SegmentPlan
from repro.pinot.realtime import RealtimeIngestion, segment_name
from repro.pinot.recovery import CentralizedBackup, PeerToPeerBackup
from repro.pinot.segment import ImmutableSegment, IndexConfig, MutableSegment, ZoneMap
from repro.pinot.server import PinotServer
from repro.pinot.startree import StarTree, StarTreeConfig
from repro.pinot.table import TableConfig
from repro.pinot.upsert import UpsertManager

__all__ = [
    "BloomFilter",
    "PinotBroker",
    "QueryResult",
    "ZoneMap",
    "PinotController",
    "TableState",
    "InvertedIndex",
    "RangeIndex",
    "SortedIndex",
    "Aggregation",
    "Filter",
    "PinotQuery",
    "SegmentPlan",
    "RealtimeIngestion",
    "segment_name",
    "CentralizedBackup",
    "PeerToPeerBackup",
    "ImmutableSegment",
    "IndexConfig",
    "MutableSegment",
    "PinotServer",
    "StarTree",
    "StarTreeConfig",
    "TableConfig",
    "UpsertManager",
    "build_flattener",
    "execute_json_query",
    "json_extract",
    "parse_json_path",
    "DimensionTable",
    "DimensionTableRegistry",
    "LookupJoinSpec",
    "execute_lookup_join",
]
