"""An append-only, CRC-checksummed, torn-tail-tolerant record log.

The write-ahead log is the durability primitive everything else in
:mod:`repro.durability` is built from: a file of length-prefixed records

``[magic 8B] [u32 length][u32 crc32][payload] [u32 length][u32 crc32]...``

with three guarantees:

* **Append-only** — records are only ever added at the end; a record that
  :meth:`append` + :meth:`sync` returned for is on disk.
* **Torn tails truncate, never corrupt** — a crash mid-write leaves a
  partial or checksum-failing final record; :meth:`open <WriteAheadLog>`
  scans from the front, keeps the longest valid prefix, and truncates the
  rest (reported in :attr:`truncated_bytes`).  Recovery therefore sees
  exactly the records whose writes completed.
* **Configurable durability** — ``fsync="always"`` syncs every record
  (each append survives a crash), ``"commit"`` leaves syncing to the
  caller's commit points (:meth:`sync`), ``"never"`` flushes to the OS
  only (survives process death, not power loss — the benchmark baseline).

Payloads are opaque bytes; their encoding (JSON for serve-tenant
journals) belongs to the callers in :mod:`repro.durability.journal`.
Single-writer: callers serialize appends (the serve layer's flush loop
already does).
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from pathlib import Path
from typing import Iterator

import repro.durability
from repro.obs import metrics as obs_metrics

MAGIC = b"RPROWAL\x01"
_RECORD = struct.Struct(">II")  # payload length, crc32
FSYNC_POLICIES = ("always", "commit", "never")


class WALError(RuntimeError):
    """The log cannot be opened or written (not a torn tail — those heal)."""


class WriteAheadLog:
    """One append-only record log file.

    Parameters
    ----------
    path:
        Log file; created (with its magic header fsynced) when missing.
    fsync:
        ``"always"`` / ``"commit"`` / ``"never"``, see module docstring.
    """

    def __init__(self, path: str | os.PathLike, fsync: str = "commit") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r} (one of {FSYNC_POLICIES})")
        self.path = Path(path)
        self.fsync_policy = fsync
        self.truncated_bytes = 0
        self.n_records = 0
        created = not self.path.exists()
        self._file = open(self.path, "a+b" if created else "r+b")
        if created:
            self._file.write(MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
            _fsync_directory(self.path.parent)
            self._end = len(MAGIC)
        else:
            self._end = self._scan()
        self._file.seek(self._end)

    # ------------------------------------------------------------------
    # Open-time scan
    # ------------------------------------------------------------------
    def _scan(self) -> int:
        """Validate the record chain; truncate everything past the last
        valid record and return the end offset."""
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        self._file.seek(0)
        head = self._file.read(len(MAGIC))
        if len(head) < len(MAGIC):
            # Torn creation: the magic itself never hit the disk whole.
            self.truncated_bytes = size
            self._file.seek(0)
            self._file.truncate(0)
            self._file.write(MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
            return len(MAGIC)
        if head != MAGIC:
            raise WALError(f"{self.path} is not a write-ahead log")
        offset = len(MAGIC)
        while True:
            header = self._file.read(_RECORD.size)
            if len(header) < _RECORD.size:
                break
            length, crc = _RECORD.unpack(header)
            payload = self._file.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            offset += _RECORD.size + length
            self.n_records += 1
        if offset < size:
            self.truncated_bytes = size - offset
            self._file.seek(offset)
            self._file.truncate(offset)
            self._file.flush()
            os.fsync(self._file.fileno())
        return offset

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, payload: bytes) -> int:
        """Append one record; returns its 0-based record index.

        With ``fsync="always"`` the record is synced before returning;
        otherwise durability waits for the next :meth:`sync`.
        """
        if self._file.closed:
            raise WALError(f"{self.path} is closed")
        record = _RECORD.pack(len(payload), zlib.crc32(payload)) + payload
        repro.durability.fault_point("wal_write", self._file, record)
        self._file.write(record)
        self._end += len(record)
        index = self.n_records
        self.n_records += 1
        obs_metrics.WAL_RECORDS.inc()
        obs_metrics.WAL_BYTES.inc(len(record))
        if self.fsync_policy == "always":
            self.sync()
        repro.durability.fault_point("wal_record", self._file)
        return index

    def sync(self) -> None:
        """Flush and (policy permitting) fsync the log — the commit point."""
        repro.durability.fault_point("wal_sync", self._file)
        sync_start = time.perf_counter()
        self._file.flush()
        if self.fsync_policy != "never":
            os.fsync(self._file.fileno())
        obs_metrics.WAL_FSYNC_SECONDS.observe(time.perf_counter() - sync_start)

    def reset(self) -> None:
        """Drop every record (post-snapshot truncation); keeps the magic."""
        if self._file.closed:
            raise WALError(f"{self.path} is closed")
        self._file.seek(len(MAGIC))
        self._file.truncate(len(MAGIC))
        self._file.flush()
        if self.fsync_policy != "never":
            os.fsync(self._file.fileno())
        self._end = len(MAGIC)
        self.n_records = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def replay(self) -> Iterator[bytes]:
        """Yield every record payload, in append order.

        Reads back from the file (not a cache), so it reflects exactly what
        recovery after a real crash would see.  Do not append mid-replay.
        """
        self._file.flush()
        with open(self.path, "rb") as reader:
            reader.seek(len(MAGIC))
            position = len(MAGIC)
            while position < self._end:
                header = reader.read(_RECORD.size)
                length, _ = _RECORD.unpack(header)
                yield reader.read(length)
                position += _RECORD.size + length
        self._file.seek(self._end)

    @property
    def size_bytes(self) -> int:
        """Bytes of record data currently in the log (magic excluded)."""
        return self._end - len(MAGIC)

    @property
    def closed(self) -> bool:
        return self._file.closed

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _fsync_directory(directory: Path) -> None:
    """Make a file creation/rename durable by syncing its directory."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX fallback
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
