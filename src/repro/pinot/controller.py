"""The Pinot controller: table lifecycle, assignment, failure recovery.

Assigns Kafka partitions to owning servers (round-robin) with ``replicas``
additional copies, creates the realtime ingestion pipeline, and recovers
failed servers — fetching their sealed segments from live peers under the
peer-to-peer strategy of Section 4.3.4, or from the central segment store
under the original design.  A partition's placement and lifecycle after
assignment are its :class:`RealtimeIngestion`'s alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import PinotError, TableNotFoundError
from repro.kafka.cluster import KafkaCluster
from repro.pinot.realtime import RealtimeIngestion
from repro.pinot.recovery import SegmentBackupStrategy, recover_segment_p2p
from repro.pinot.segment import ImmutableSegment
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig


@dataclass
class TableState:
    config: TableConfig
    topic: str
    ingestion: RealtimeIngestion
    # Offline (batch-loaded) segments, lambda-architecture style: the
    # segment plus the servers currently hosting it.
    offline_segments: dict[str, tuple[ImmutableSegment, list[PinotServer]]] = field(
        default_factory=dict
    )

    def holds_segment(self, name: str) -> bool:
        """Whether ``name`` is one of this table's offline or realtime
        segments (sealed or consuming)."""
        return name in self.offline_segments or any(
            name in self.ingestion.segments_of_partition(partition)
            for partition in self.ingestion.partitions
        )

    def version(self) -> tuple:
        """The table's data version, read off the segments it holds: every
        query-path cache over the table is valid while this is unchanged.

        Per partition, the consuming segment's instance (``serial``), its
        doc count and the number of sealed segments: a landed row (an
        upsert too) raises the count, a seal or a reopen on a replacement
        owner opens a new instance, and under one instance the sealed list
        only shrinks (a drop).  Then each offline segment's instance, so a
        load, a drop, and a re-load under the same name each move it.  A
        deduped row, a server death or a peer recovery changes no answer
        and leaves it alone.
        """
        version = []
        for partition in self.ingestion.partitions.values():
            consuming = partition.consuming
            version.append(
                (consuming.serial, consuming.num_docs, len(partition.sealed_segments))
            )
        for segment, __ in self.offline_segments.values():
            version.append(segment.serial)
        return tuple(version)


class PinotController:
    def __init__(
        self,
        servers: list[PinotServer],
        backup: SegmentBackupStrategy,
        tracer=None,
    ) -> None:
        if not servers:
            raise PinotError("need at least one Pinot server")
        self.servers = list(servers)
        self.backup = backup
        self.tracer = tracer
        self.tables: dict[str, TableState] = {}

    def create_realtime_table(
        self, config: TableConfig, kafka: KafkaCluster, topic: str
    ) -> TableState:
        if config.name in self.tables:
            raise PinotError(f"table {config.name!r} already exists")
        partitions = kafka.partition_count(topic)
        live = [s for s in self.servers if s.alive]
        if len(live) < config.replicas:
            raise PinotError(
                f"{len(live)} live servers cannot satisfy {config.replicas} replicas"
            )
        owners: dict[int, PinotServer] = {}
        replicas: dict[int, list[PinotServer]] = {}
        for partition in range(partitions):
            owner_index = partition % len(live)
            owners[partition] = live[owner_index]
            replicas[partition] = [
                live[(owner_index + r) % len(live)]
                for r in range(1, config.replicas)
            ]
        ingestion = RealtimeIngestion(
            config, kafka, topic, owners, replicas, self.backup,
            tracer=self.tracer,
        )
        state = TableState(config, topic, ingestion)
        self.tables[config.name] = state
        return state

    def table(self, name: str) -> TableState:
        if name not in self.tables:
            raise TableNotFoundError(f"Pinot table {name!r} does not exist")
        return self.tables[name]

    def add_offline_segment(
        self, table: str, segment: ImmutableSegment, copies: int | None = None
    ) -> None:
        """Load a batch-built segment (the Hive->Pinot path, Section 4.3.3).

        A server hosts segments by name alone, so a name another table
        already holds is refused rather than swapped under it."""
        state = self.table(table)
        for other, other_state in self.tables.items():
            if other != table and other_state.holds_segment(segment.name):
                raise PinotError(
                    f"segment {segment.name!r} is already hosted for table {other!r}"
                )
        live = [s for s in self.servers if s.alive]
        copies = copies if copies is not None else state.config.replicas
        hosts = live[: max(1, copies)]
        for server in hosts:
            server.host_segment(segment)
        state.offline_segments[segment.name] = (segment, hosts)
        self.backup.request_backup(table, segment)

    def drop_segment(self, table: str, name: str) -> None:
        """Drop a sealed or offline segment (retention): unhost it and
        forget its upsert locations."""
        state = self.table(table)
        if name in state.offline_segments:
            __, hosts = state.offline_segments.pop(name)
            for server in hosts:
                server.drop_segment(name)
            return
        if not state.ingestion.drop_segment(name):
            raise PinotError(f"table {table!r} has no segment {name!r}")

    # -- elasticity -----------------------------------------------------------

    def add_server(self, server: PinotServer) -> PinotServer:
        """Join a new server to the pool (control-plane scale-up).

        The server immediately widens the assignment pool for new tables
        and offline-segment hosting, and pre-hosts replica copies of every
        sealed segment (from peers or the backup store) so a later owner
        failure recovers from it instantly.  Partition *ownership* — and
        therefore query scatter, row order and results — is deliberately
        left untouched: rebalancing consuming partitions would drop
        in-flight rows and make results depend on scaler timing.
        """
        if server in self.servers:
            raise PinotError(f"server {server.name!r} already joined")
        if any(s.name == server.name for s in self.servers):
            raise PinotError(f"server name {server.name!r} already in use")
        self.servers.append(server)
        for state in self.tables.values():
            for partition in state.ingestion.partitions:
                self._rehost(state, partition, server)
        return server

    def _rehost(self, state: TableState, partition: int, server: PinotServer) -> int:
        """Host the partition's sealed segments ``server`` lacks, from live
        peers or the segment store; returns segments fetched."""
        pstate = state.ingestion.partitions[partition]
        peers = [pstate.owner] + pstate.replicas
        fetched = 0
        for seg_name in pstate.sealed_segments:
            if server.has_segment(seg_name):
                continue
            server.host_segment(
                recover_segment_p2p(seg_name, state.config.name, peers, self.backup)
            )
            fetched += 1
        return fetched

    # -- failure handling -----------------------------------------------------

    def kill_server(self, name: str) -> None:
        self._server(name).alive = False

    def _server(self, name: str) -> PinotServer:
        for server in self.servers:
            if server.name == name:
                return server
        raise PinotError(f"unknown server {name!r}")

    def recover_server(self, failed_name: str, replacement: PinotServer) -> int:
        """Re-host a dead server's sealed and offline segments on a
        replacement, which takes the dead server's place as their host.

        Uses peer replicas when possible (P2P), falling back to the
        segment store; raises :class:`StorageError` if a segment is in
        neither place.  Returns segments recovered.  Consuming segments are
        not recovered — the new owner re-consumes their rows from Kafka,
        starting at the partition's committed offset.
        """
        failed = self._server(failed_name)
        if failed.alive:
            raise PinotError(f"server {failed_name} is still alive")
        if replacement not in self.servers:
            self.servers.append(replacement)
        recovered = 0
        for state in self.tables.values():
            for partition, pstate in state.ingestion.partitions.items():
                if pstate.owner is failed or failed in pstate.replicas:
                    recovered += self._rehost(state, partition, replacement)
            state.ingestion.replace_server(failed, replacement)
            for name, (__, hosts) in state.offline_segments.items():
                if replacement is failed or all(host is not failed for host in hosts):
                    continue
                if not replacement.has_segment(name):
                    replacement.host_segment(
                        recover_segment_p2p(name, state.config.name, hosts, self.backup)
                    )
                    recovered += 1
                hosts[:] = [
                    replacement if host is failed else host
                    for host in hosts
                    if host is not replacement
                ]
        return recovered
