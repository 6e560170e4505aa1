"""Exception hierarchy for the whole package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch one type at the boundary.  Subsystem errors mirror the error
surface of the systems they model (e.g. Kafka raises
``UnknownTopicError`` where the real client would raise
``UnknownTopicOrPartitionError``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ClockError(ReproError):
    """Invalid use of a clock (scheduling in the past, negative delay)."""


class SerdeError(ReproError):
    """Value cannot be serialized or deserialized."""


class SchemaError(ReproError):
    """Schema is malformed, or data does not conform to a schema."""


class SchemaCompatibilityError(SchemaError):
    """A schema evolution would break backward compatibility."""


class RetryExhaustedError(ReproError):
    """A RetryPolicy ran out of attempts (or time budget); the cause of the
    final failure is chained as ``__cause__``."""


class IncomparableError(ReproError):
    """A SQL comparison met two operands that do not order (a string
    against a number, say), or SUM / AVG met a cell that does not add.
    Raised by the rules in :mod:`repro.common.relational`, whichever
    executor ran them."""


# --- storage -------------------------------------------------------------

class StorageError(ReproError):
    """Base class for blob-store / HDFS errors."""


class BlobNotFoundError(StorageError):
    """Requested object does not exist."""


class StorageUnavailableError(StorageError):
    """The storage service (or enough of its replicas) is down."""


# --- kafka ---------------------------------------------------------------

class KafkaError(ReproError):
    """Base class for streaming-storage errors."""


class UnknownTopicError(KafkaError):
    """Topic does not exist on this cluster."""


class TopicExistsError(KafkaError):
    """Topic already exists."""


class OffsetOutOfRangeError(KafkaError):
    """Requested offset is below the log start or above the end."""


class BrokerUnavailableError(KafkaError):
    """The broker that leads this partition is down."""


class NotEnoughReplicasError(KafkaError):
    """acks=all produce cannot be satisfied by the live replica set."""


class QuotaExceededError(KafkaError):
    """Producer exceeded its provisioned byte quota (self-serve limits)."""


class ProducerFencedError(KafkaError):
    """A newer producer instance with the same transactional id has
    initialized; this (zombie) instance must not write again."""


class OutOfOrderSequenceError(KafkaError):
    """Idempotent produce arrived with a sequence number that is neither
    the next expected one nor an exact retry of the last batch."""


# --- flink ---------------------------------------------------------------

class FlinkError(ReproError):
    """Base class for stream-processing errors."""


class JobValidationError(FlinkError):
    """Job graph failed validation (cycle, missing source/sink, ...)."""


class JobNotFoundError(FlinkError):
    """Job id is unknown to the job server."""


class CheckpointError(FlinkError):
    """Checkpoint could not be taken or restored."""


class OperatorError(FlinkError):
    """User function raised inside an operator."""


# --- pinot ---------------------------------------------------------------

class PinotError(ReproError):
    """Base class for OLAP-store errors."""


class TableNotFoundError(PinotError):
    """Query or ingestion referenced a missing table."""


class SegmentError(PinotError):
    """Segment is missing, sealed, or corrupt."""


class QueryError(PinotError):
    """Query is malformed or references unknown columns."""


# --- sql -----------------------------------------------------------------

class SqlError(ReproError):
    """Base class for SQL layer errors."""


class SqlParseError(SqlError):
    """Query text could not be parsed."""


class SqlPlanError(SqlError):
    """Query parsed but cannot be planned/compiled."""


# --- multi-region --------------------------------------------------------

class RegionError(ReproError):
    """Base class for multi-region coordination errors."""


class NoHealthyRegionError(RegionError):
    """Failover requested but no healthy region is available."""


# --- backfill ------------------------------------------------------------

class BackfillError(ReproError):
    """Backfill job misconfiguration or runtime failure."""


# --- platform facade -----------------------------------------------------

class PlatformError(ReproError):
    """Platform facade misused (component not configured yet)."""


# --- audit ---------------------------------------------------------------

class AuditError(ReproError):
    """An audit cannot count its input: a bad window or event time, or no key."""


# --- chaos ---------------------------------------------------------------

class ChaosError(ReproError):
    """Chaos harness misconfiguration (unknown fault kind, missing target,
    crash requested with no checkpoint to restore from, ...)."""
