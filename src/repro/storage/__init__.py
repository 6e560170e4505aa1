"""Storage layer: blob store, HDFS simulation, columnar files, Hive.

The HDFS model is on no path the platform runs
(``tests/test_reachability.py``), so this package does not load it:
import it from :mod:`repro.storage.hdfs`.
"""

from repro.storage.blobstore import BlobStat, BlobStore
from repro.storage.columnar import ColumnarFile, ColumnStats
from repro.storage.hive import HiveMetastore, HiveTable
from repro.storage.rawlogs import RawLogArchiver, compact_to_hive

__all__ = [
    "BlobStat",
    "BlobStore",
    "ColumnarFile",
    "ColumnStats",
    "HiveMetastore",
    "HiveTable",
    "RawLogArchiver",
    "compact_to_hive",
]
