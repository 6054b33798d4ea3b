"""Durable per-tenant store journals.

This module composes the :mod:`~repro.durability.wal` and
:mod:`~repro.durability.snapshot` primitives into the system's recovery
unit, :class:`StoreJournal`: one directory per tenant store holding a WAL
of JSON records (``store_created`` / ``rows_appended`` / ``dcs_declared`` /
``epsilon``) plus versioned snapshots.  The serving layer writes the append
record inside :meth:`EvidenceStore.append`'s ``pre_commit`` hook — journal
first, memory second — so acknowledged state is always on disk.
:meth:`StoreJournal.recover` = newest valid snapshot + WAL-tail replay, and
is **bit-identical** to a fresh build on the surviving rows: same finalized
:class:`~repro.core.evidence.EvidenceSet` bytes, same DC list, same counter
values (property-tested over random crash points in
``tests/test_durability.py``).

Every record carries a monotone sequence number; a snapshot stores the
watermark of the last record it reflects, so replay after a crash *between*
snapshot rename and WAL truncation simply skips the already-compacted
prefix — the rename is the only ordering that matters.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

import repro.durability
from repro.data.relation import Relation
from repro.data.types import ColumnType
from repro.durability.snapshot import (
    SnapshotError,
    load_snapshot,
    snapshot_path,
    snapshot_versions,
    write_snapshot,
)
from repro.durability.wal import WriteAheadLog
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans

if TYPE_CHECKING:
    from repro.incremental.store import EvidenceStore

WAL_NAME = "wal.log"
DEFAULT_SNAPSHOT_BYTES = 4 * 1024 * 1024
DEFAULT_DEDUP_WINDOW = 1024

Row = Mapping[str, object]


class DurabilityError(RuntimeError):
    """A journal invariant is broken (not a recoverable torn tail)."""


class RecoveryError(DurabilityError):
    """The journal directory cannot be recovered into a store."""


def plain_rows(relation: "Relation") -> list[dict[str, object]]:
    """The relation's rows as JSON-clean dicts (numpy scalars unwrapped)."""
    rows = []
    for row in relation.rows():
        rows.append({
            key: value.item() if isinstance(value, np.generic) else value
            for key, value in row.items()
        })
    return rows


def relation_types(relation: "Relation") -> dict[str, str]:
    """The relation's column types as a JSON-clean mapping."""
    return {column.name: column.type.value for column in relation.columns}


class DedupWindow:
    """A bounded, journaled map of append request keys to their results.

    The exactly-once contract of client retries: an append acknowledged
    under request key ``k`` and retried (lost ack, server restart) returns
    the *original* result instead of committing twice.  The window is
    bounded — retries are near-in-time, so a few thousand entries cover
    any sane retry horizon — and rides along in every append WAL record
    and snapshot, so it survives restarts with the data it guards.
    """

    def __init__(self, capacity: int = DEFAULT_DEDUP_WINDOW) -> None:
        self.capacity = max(1, int(capacity))
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0

    def get(self, key: str) -> dict | None:
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self.hits += 1
            return result

    def record(self, key: str, result: dict) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def entries(self) -> list[list[object]]:
        """Snapshot-serializable ``[key, result]`` pairs, oldest first."""
        with self._lock:
            return [[key, dict(result)] for key, result in self._entries.items()]

    def load(self, entries: Sequence[Sequence[object]]) -> None:
        with self._lock:
            for key, result in entries:
                self._entries[str(key)] = dict(result)
                self._entries.move_to_end(str(key))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass
class RecoveryStats:
    """What recovery found and did, for the server's ``stats`` op."""

    source: str  # "wal" | "snapshot" | "snapshot+wal"
    snapshot_version: int | None
    replayed_records: int
    wal_records: int
    truncated_bytes: int
    skipped_snapshots: list[int] = field(default_factory=list)

    def jsonable(self) -> dict[str, object]:
        return {
            "source": self.source,
            "snapshot_version": self.snapshot_version,
            "replayed_records": self.replayed_records,
            "wal_records": self.wal_records,
            "truncated_bytes": self.truncated_bytes,
            "skipped_snapshots": list(self.skipped_snapshots),
        }


@dataclass
class RecoveredStore:
    """The result of :meth:`StoreJournal.recover`."""

    journal: "StoreJournal"
    store: "EvidenceStore"
    name: str
    constraint_specs: list[list[dict]] | None
    epsilon: float | None
    constraint_source: str | None
    dedup_entries: list[list[object]]
    stats: RecoveryStats


class StoreJournal:
    """WAL + snapshots for one tenant store's directory.

    Use :meth:`create` for a brand-new store and :meth:`recover` after a
    restart; the constructor wires an already-positioned WAL.  Writers are
    serialized by the serving layer (one flush loop / one store lock per
    tenant), so the journal itself takes no locks.
    """

    def __init__(
        self,
        directory: str | Path,
        wal: WriteAheadLog,
        *,
        snapshot_every_bytes: int = DEFAULT_SNAPSHOT_BYTES,
        next_seq: int = 0,
        snapshot_version: int = 0,
        name: str = "",
        types: dict[str, str] | None = None,
        n_seed_rows: int = 0,
    ) -> None:
        self.directory = Path(directory)
        self.wal = wal
        self.snapshot_every_bytes = int(snapshot_every_bytes)
        self._next_seq = int(next_seq)
        self.snapshot_version = int(snapshot_version)
        self.name = name
        self.types = dict(types or {})
        self.n_seed_rows = int(n_seed_rows)
        self.constraint_specs: list[list[dict]] | None = None
        self.epsilon: float | None = None
        self.constraint_source: str | None = None
        self.records_logged = 0
        self.snapshots_written = 0

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str | Path,
        name: str,
        rows: Sequence[Row],
        types: Mapping[str, str] | None = None,
        *,
        fsync: str = "commit",
        snapshot_every_bytes: int = DEFAULT_SNAPSHOT_BYTES,
    ) -> "StoreJournal":
        """Start a journal for a new store; the creation record is fsynced
        before returning, so an acknowledged ``create_store`` survives."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        wal_path = directory / WAL_NAME
        if wal_path.exists() or snapshot_versions(directory):
            raise DurabilityError(
                f"{directory} already holds a journal; recover it or remove it"
            )
        wal = WriteAheadLog(wal_path, fsync=fsync)
        journal = cls(
            directory, wal,
            snapshot_every_bytes=snapshot_every_bytes,
            name=name, types=dict(types or {}), n_seed_rows=len(rows),
        )
        journal._log({
            "kind": "store_created",
            "name": name,
            "types": dict(types or {}),
            "rows": [dict(row) for row in rows],
        })
        journal.sync()
        return journal

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------
    def _log(self, record: dict) -> None:
        record["seq"] = self._next_seq
        self.wal.append(json.dumps(record, separators=(",", ":")).encode("utf-8"))
        self._next_seq += 1
        self.records_logged += 1

    def sync(self) -> None:
        """The commit point: fsync everything logged so far."""
        self.wal.sync()

    def log_append(
        self, rows: Sequence[Row], requests: Sequence[Sequence[object]]
    ) -> None:
        """Journal one committed append *before* it is applied in memory.

        ``requests`` is ``[[request_key_or_None, n_rows], ...]`` — the
        per-request split of the batch, which replay uses to rebuild the
        dedup window with each request's original result.  Synced before
        returning: this runs in the store's ``pre_commit`` hook, and once
        it returns the append is allowed to become visible (and be
        acknowledged), so it must already be durable.
        """
        journal_start = time.perf_counter()
        self._log({
            "kind": "rows_appended",
            "rows": [dict(row) for row in rows],
            "requests": [[key, int(n)] for key, n in requests],
        })
        self.sync()
        span = obs_spans.current()
        if span is not None:
            span.add_segment(
                "journal_fsync", time.perf_counter() - journal_start
            )

    def log_constraints(
        self, specs: Sequence[Sequence[Mapping[str, object]]],
        epsilon: float, source: str,
    ) -> None:
        """Journal an installed constraint set (mined or declared)."""
        specs = [[dict(p) for p in spec] for spec in specs]
        self._log({
            "kind": "dcs_declared",
            "specs": specs,
            "epsilon": float(epsilon),
            "source": source,
        })
        self.sync()
        self.constraint_specs = specs
        self.epsilon = float(epsilon)
        self.constraint_source = source

    def log_epsilon(self, epsilon: float) -> None:
        """Journal a served-epsilon change."""
        self._log({"kind": "epsilon", "epsilon": float(epsilon)})
        self.sync()
        self.epsilon = float(epsilon)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def maybe_snapshot(self, store: "EvidenceStore", dedup: DedupWindow | None) -> bool:
        """Compact when the WAL has outgrown ``snapshot_every_bytes``."""
        if self.wal.size_bytes < self.snapshot_every_bytes:
            return False
        self.snapshot(store, dedup)
        return True

    def snapshot(self, store: "EvidenceStore", dedup: DedupWindow | None) -> int:
        """Write a snapshot of ``store`` and truncate the log; returns the
        new version.

        Crash ordering: the tmp write and rename are atomic per
        :func:`~repro.durability.snapshot.write_snapshot`; a crash after
        the rename but before the WAL reset leaves both, and the stored
        ``last_seq`` watermark makes the stale WAL prefix a no-op on
        replay.  Old snapshot versions are deleted last — recovery always
        prefers the newest loadable version anyway.
        """
        snapshot_start = time.perf_counter()
        words, totals, part_keys, part_counts = store.partial.state_arrays()
        version = self.snapshot_version + 1
        meta = {
            "version": version,
            "name": self.name,
            "types": self.types,
            "rows": plain_rows(store.relation),
            "n_seed_rows": self.n_seed_rows,
            "generation": store.generation,
            "n_words": store.partial.n_words,
            "include_participation": store.include_participation,
            "last_seq": self._next_seq - 1,
            "constraints": {
                "specs": self.constraint_specs,
                "epsilon": self.epsilon,
                "source": self.constraint_source,
            },
            "dedup": dedup.entries() if dedup is not None else [],
        }
        arrays = {
            "words": words, "totals": totals,
            "part_keys": part_keys, "part_counts": part_counts,
        }
        write_snapshot(snapshot_path(self.directory, version), meta, arrays)
        self.snapshot_version = version
        self.snapshots_written += 1
        repro.durability.fault_point("snapshot_reset")
        self.wal.reset()
        for old in snapshot_versions(self.directory):
            if old < version:
                snapshot_path(self.directory, old).unlink(missing_ok=True)
        obs_metrics.SNAPSHOT_WRITES.inc()
        obs_metrics.SNAPSHOT_SECONDS.observe(time.perf_counter() - snapshot_start)
        return version

    @property
    def closed(self) -> bool:
        return self.wal.closed

    def close(self) -> None:
        self.wal.close()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: str | Path,
        *,
        fsync: str = "commit",
        snapshot_every_bytes: int = DEFAULT_SNAPSHOT_BYTES,
        cluster: object | None = None,
    ) -> RecoveredStore:
        """Rebuild the store this directory journals.

        Loads the newest valid snapshot (corrupt versions are skipped,
        recorded in the stats), replays every WAL record past its
        watermark, and returns the reassembled store plus everything the
        serving layer needs to resume: constraint specs to reinstall,
        epsilon, and the dedup window.  Raises :class:`RecoveryError` when
        the directory holds no recoverable store (no WAL, or an empty WAL
        with no snapshot).
        """
        from repro.core.predicate_space import build_predicate_space
        from repro.engine.partial import PartialEvidenceSet
        from repro.incremental.store import EvidenceStore

        recovery_start = time.perf_counter()
        directory = Path(directory)
        wal_path = directory / WAL_NAME
        if not wal_path.exists():
            raise RecoveryError(f"{directory} has no write-ahead log")
        wal = WriteAheadLog(wal_path, fsync=fsync)

        try:
            records = []
            for payload in wal.replay():
                try:
                    records.append(json.loads(payload.decode("utf-8")))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    raise RecoveryError(
                        f"{wal_path}: undecodable record {len(records)}: {error}"
                    ) from error

            store: "EvidenceStore | None" = None
            name = ""
            types: dict[str, str] = {}
            n_seed_rows = 0
            last_seq = -1
            snapshot_version: int | None = None
            skipped: list[int] = []
            constraint_specs: list[list[dict]] | None = None
            epsilon: float | None = None
            constraint_source: str | None = None
            dedup_entries: list[list[object]] = []

            for version in reversed(snapshot_versions(directory)):
                try:
                    meta, arrays = load_snapshot(snapshot_path(directory, version))
                except SnapshotError:
                    skipped.append(version)
                    continue
                name = str(meta["name"])
                types = dict(meta["types"])
                n_seed_rows = int(meta["n_seed_rows"])
                column_types = {
                    column: ColumnType(text) for column, text in types.items()
                }
                relation = Relation.from_records(name, meta["rows"], column_types)
                seed = Relation.from_records(
                    name, meta["rows"][:n_seed_rows], column_types
                )
                space = build_predicate_space(seed)
                partial = PartialEvidenceSet.from_state_arrays(
                    relation.n_rows,
                    int(meta["n_words"]),
                    bool(meta["include_participation"]),
                    arrays["words"], arrays["totals"],
                    arrays["part_keys"], arrays["part_counts"],
                )
                store = EvidenceStore.from_state(
                    relation, space, partial,
                    generation=int(meta["generation"]),
                    cluster=cluster,
                )
                last_seq = int(meta["last_seq"])
                snapshot_version = version
                constraints_meta = meta.get("constraints") or {}
                constraint_specs = constraints_meta.get("specs")
                epsilon = constraints_meta.get("epsilon")
                constraint_source = constraints_meta.get("source")
                dedup_entries = list(meta.get("dedup", []))
                break

            replayed = 0
            max_seq = last_seq
            for record in records:
                seq = int(record.get("seq", -1))
                max_seq = max(max_seq, seq)
                if seq <= last_seq:
                    continue  # already reflected in the snapshot
                kind = record.get("kind")
                replayed += 1
                if kind == "store_created":
                    if store is not None:
                        raise RecoveryError(
                            f"{wal_path}: duplicate store_created at seq {seq}"
                        )
                    name = str(record["name"])
                    types = dict(record["types"])
                    n_seed_rows = len(record["rows"])
                    column_types = {
                        column: ColumnType(text) for column, text in types.items()
                    } or None
                    store = EvidenceStore(
                        Relation.from_records(name, record["rows"], column_types),
                        cluster=cluster,
                    )
                elif kind == "rows_appended":
                    if store is None:
                        raise RecoveryError(
                            f"{wal_path}: rows_appended at seq {seq} precedes "
                            "any store_created record or snapshot"
                        )
                    store.append(record["rows"])
                    requests = record.get("requests") or []
                    for key, n_rows in requests:
                        if key is None:
                            continue
                        dedup_entries.append([key, {
                            "appended": int(n_rows),
                            "n_rows": store.n_rows,
                            "generation": store.generation,
                            "coalesced": len(requests),
                        }])
                elif kind == "dcs_declared":
                    constraint_specs = record["specs"]
                    epsilon = float(record["epsilon"])
                    constraint_source = record.get("source")
                elif kind == "epsilon":
                    epsilon = float(record["epsilon"])
                else:
                    raise RecoveryError(
                        f"{wal_path}: unknown record kind {kind!r} at seq {seq}"
                    )

            if store is None:
                raise RecoveryError(
                    f"{directory} holds no store: empty write-ahead log and "
                    "no loadable snapshot"
                )
        except BaseException:
            wal.close()
            raise

        journal = cls(
            directory, wal,
            snapshot_every_bytes=snapshot_every_bytes,
            next_seq=max_seq + 1,
            snapshot_version=snapshot_version or 0,
            name=name, types=types, n_seed_rows=n_seed_rows,
        )
        journal.constraint_specs = constraint_specs
        journal.epsilon = epsilon
        journal.constraint_source = constraint_source
        stats = RecoveryStats(
            source=(
                "snapshot+wal" if snapshot_version is not None and replayed
                else "snapshot" if snapshot_version is not None
                else "wal"
            ),
            snapshot_version=snapshot_version,
            replayed_records=replayed,
            wal_records=wal.n_records,
            truncated_bytes=wal.truncated_bytes,
            skipped_snapshots=skipped,
        )
        obs_metrics.RECOVERY_SECONDS.observe(time.perf_counter() - recovery_start)
        obs_metrics.RECOVERY_RECORDS.inc(replayed)
        return RecoveredStore(
            journal=journal, store=store, name=name,
            constraint_specs=constraint_specs, epsilon=epsilon,
            constraint_source=constraint_source,
            dedup_entries=dedup_entries, stats=stats,
        )
