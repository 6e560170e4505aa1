"""HDFS-flavoured distributed file system simulation (Section 4.4).

Models the parts of HDFS that matter to the paper's claims: a single
namenode holding the namespace, datanodes holding replicated blocks, and
the availability consequences — Section 10 notes the archival layer lacks a
high-availability SLA, which Flink checkpoints and Pinot peer-to-peer
segment recovery compensate for.

Files are write-once (like HDFS); appends create new blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import BlobNotFoundError, StorageError, StorageUnavailableError

DEFAULT_BLOCK_SIZE = 128 * 1024  # scaled down from HDFS's 128 MB
DEFAULT_REPLICATION = 3


@dataclass
class _Block:
    block_id: int
    data: bytes
    replicas: set[str] = field(default_factory=set)  # datanode names


@dataclass
class _INode:
    path: str
    blocks: list[int] = field(default_factory=list)

    def size(self, blocks: dict[int, _Block]) -> int:
        return sum(len(blocks[b].data) for b in self.blocks)


class DataNode:
    """Holds block replicas; can be killed and restarted."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.alive = True
        self.block_ids: set[int] = set()

    def used_bytes(self, blocks: dict[int, _Block]) -> int:
        return sum(len(blocks[b].data) for b in self.block_ids if b in blocks)


class HdfsCluster:
    """Namenode + datanodes with block-level replication.

    Reads succeed while at least one replica of every block of the file is
    on a live datanode.  Writes fail unless ``replication`` live datanodes
    exist.  ``kill_datanode``/``restart_datanode`` inject failures;
    ``re_replicate`` models the background re-replication that restores the
    target replica count after failures.
    """

    def __init__(
        self,
        datanodes: int = 4,
        replication: int = DEFAULT_REPLICATION,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if replication < 1:
            raise StorageError(f"replication must be >= 1, got {replication}")
        if datanodes < replication:
            raise StorageError(
                f"need at least {replication} datanodes for replication factor "
                f"{replication}, got {datanodes}"
            )
        self.block_size = block_size
        self.replication = replication
        self._datanodes: dict[str, DataNode] = {
            f"dn{i}": DataNode(f"dn{i}") for i in range(datanodes)
        }
        self._namespace: dict[str, _INode] = {}
        self._blocks: dict[int, _Block] = {}
        self._next_block = 0
        self._namenode_up = True
        self._rr_cursor = 0

    # -- failure injection ---------------------------------------------------

    def set_namenode_up(self, up: bool) -> None:
        self._namenode_up = up

    def kill_datanode(self, name: str) -> None:
        self._datanode(name).alive = False

    def restart_datanode(self, name: str) -> None:
        self._datanode(name).alive = True

    def _datanode(self, name: str) -> DataNode:
        if name not in self._datanodes:
            raise StorageError(f"unknown datanode {name!r}")
        return self._datanodes[name]

    def _check_namenode(self) -> None:
        if not self._namenode_up:
            raise StorageUnavailableError("HDFS namenode is down")

    def _live_datanodes(self) -> list[DataNode]:
        return [dn for dn in self._datanodes.values() if dn.alive]

    # -- file API --------------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Create a file (write-once semantics; overwrite is an error)."""
        self._check_namenode()
        if path in self._namespace:
            raise StorageError(f"path {path!r} already exists (HDFS is write-once)")
        live = self._live_datanodes()
        if len(live) < self.replication:
            raise StorageUnavailableError(
                f"only {len(live)} live datanodes; replication={self.replication}"
            )
        inode = _INode(path)
        for start in range(0, max(len(data), 1), self.block_size):
            chunk = data[start : start + self.block_size]
            block = _Block(self._next_block, chunk)
            self._next_block += 1
            # Round-robin placement across live datanodes.
            for k in range(self.replication):
                dn = live[(self._rr_cursor + k) % len(live)]
                block.replicas.add(dn.name)
                dn.block_ids.add(block.block_id)
            self._rr_cursor += 1
            self._blocks[block.block_id] = block
            inode.blocks.append(block.block_id)
        self._namespace[path] = inode

    def read_file(self, path: str) -> bytes:
        self._check_namenode()
        inode = self._namespace.get(path)
        if inode is None:
            raise BlobNotFoundError(f"HDFS: no file at {path!r}")
        parts = []
        for block_id in inode.blocks:
            block = self._blocks[block_id]
            if not any(self._datanodes[r].alive for r in block.replicas):
                raise StorageUnavailableError(
                    f"all replicas of block {block_id} of {path!r} are down"
                )
            parts.append(block.data)
        return b"".join(parts)

    def delete_file(self, path: str) -> None:
        self._check_namenode()
        inode = self._namespace.pop(path, None)
        if inode is None:
            raise BlobNotFoundError(f"HDFS: no file at {path!r}")
        for block_id in inode.blocks:
            block = self._blocks.pop(block_id)
            for replica in block.replicas:
                self._datanodes[replica].block_ids.discard(block_id)

    def exists(self, path: str) -> bool:
        self._check_namenode()
        return path in self._namespace

    def list_files(self, prefix: str = "") -> list[str]:
        self._check_namenode()
        return sorted(p for p in self._namespace if p.startswith(prefix))

    def file_size(self, path: str) -> int:
        self._check_namenode()
        inode = self._namespace.get(path)
        if inode is None:
            raise BlobNotFoundError(f"HDFS: no file at {path!r}")
        return inode.size(self._blocks)

    # -- maintenance --------------------------------------------------------

    def under_replicated_blocks(self) -> list[int]:
        """Blocks whose live replica count is below target."""
        out = []
        for block in self._blocks.values():
            live = sum(1 for r in block.replicas if self._datanodes[r].alive)
            if live < self.replication:
                out.append(block.block_id)
        return out

    def re_replicate(self) -> int:
        """Restore the replica count of under-replicated blocks.

        Returns the number of new replicas created.  Mirrors the namenode's
        background re-replication after datanode loss.
        """
        self._check_namenode()
        created = 0
        live = self._live_datanodes()
        for block in self._blocks.values():
            live_replicas = {r for r in block.replicas if self._datanodes[r].alive}
            needed = self.replication - len(live_replicas)
            if needed <= 0:
                continue
            candidates = [dn for dn in live if dn.name not in live_replicas]
            for dn in candidates[:needed]:
                block.replicas.add(dn.name)
                dn.block_ids.add(block.block_id)
                created += 1
            # Drop bookkeeping for dead replicas that were replaced.
            block.replicas = {r for r in block.replicas if self._datanodes[r].alive}
        return created

    def total_stored_bytes(self) -> int:
        """Raw bytes across all replicas (for cost accounting)."""
        return sum(
            len(block.data) * len(block.replicas) for block in self._blocks.values()
        )
