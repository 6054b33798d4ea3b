"""Crash-safe durability: write-ahead logs, snapshots, fault injection.

The layer that lets everything above :class:`~repro.incremental.store.EvidenceStore`
survive a SIGKILL:

* :mod:`repro.durability.wal` — the append-only CRC-checksummed record log
  with torn-tail truncation and configurable fsync policy.
* :mod:`repro.durability.snapshot` — versioned, checksummed compaction
  files written atomically (tmp + fsync + rename).
* :mod:`repro.durability.journal` — :class:`StoreJournal` (per-tenant WAL
  + snapshots + bit-identical recovery) and :class:`DedupWindow`
  (exactly-once append retries).
* :mod:`repro.durability.faults` — the deterministic fault-injection
  harness the chaos tests drive: seeded crash points, torn writes, fsync
  failures, and a frame-aware flaky TCP proxy for lost-ack scenarios.
"""

from repro.durability.faults import FaultSchedule, FlakyProxy, SimulatedCrash
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

__all__ = [
    "DedupWindow",
    "DurabilityError",
    "FaultSchedule",
    "FlakyProxy",
    "RecoveredStore",
    "RecoveryError",
    "RecoveryStats",
    "SimulatedCrash",
    "SnapshotError",
    "StoreJournal",
    "WALError",
    "WriteAheadLog",
    "load_snapshot",
    "write_snapshot",
]
