"""Crash-safe durability: write-ahead logs, snapshots, store journals.

The layer that lets everything above :class:`~repro.incremental.store.EvidenceStore`
survive a SIGKILL:

* :mod:`repro.durability.wal` — the append-only CRC-checksummed record log
  with torn-tail truncation and configurable fsync policy.
* :mod:`repro.durability.snapshot` — versioned, checksummed compaction
  files written atomically (tmp + fsync + rename).
* :mod:`repro.durability.journal` — :class:`StoreJournal` (per-tenant WAL
  + snapshots + bit-identical recovery) and :class:`DedupWindow`
  (exactly-once append retries).

The code calls :func:`fault_point` wherever a crash would leave a distinct
state on disk; crash tests swap the module attribute for a schedule that
crashes, tears the write or fails the fsync there.
"""

from __future__ import annotations

from typing import BinaryIO

from repro.durability.journal import (
    DedupWindow,
    DurabilityError,
    RecoveredStore,
    RecoveryError,
    RecoveryStats,
    StoreJournal,
)
from repro.durability.snapshot import SnapshotError, load_snapshot, write_snapshot
from repro.durability.wal import WALError, WriteAheadLog


def fault_point(label: str, file: BinaryIO | None = None, data: bytes = b"") -> None:
    """A named point where a crash would leave a distinct on-disk state.

    Does nothing.  The durability code calls it as
    ``repro.durability.fault_point`` (so a test can replace it) at six
    points: ``wal_write`` (before a record's bytes are written; ``file`` is
    the log and ``data`` the framed record), ``wal_record`` (after a whole
    record), ``wal_sync`` (before a log flush and fsync), ``snapshot_write``
    (before each section of a snapshot's tmp file; ``file`` is the tmp file
    and ``data`` the section), ``snapshot_rename`` (before the tmp file
    replaces the snapshot) and ``snapshot_reset`` (after the rename, before
    the log is truncated).
    """


__all__ = [
    "DedupWindow",
    "DurabilityError",
    "RecoveredStore",
    "RecoveryError",
    "RecoveryStats",
    "SnapshotError",
    "StoreJournal",
    "WALError",
    "WriteAheadLog",
    "fault_point",
    "load_snapshot",
    "write_snapshot",
]
