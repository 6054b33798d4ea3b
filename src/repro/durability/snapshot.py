"""Versioned, checksummed snapshot files for store compaction.

A snapshot bounds recovery time: instead of replaying every append since
birth, recovery loads the newest valid snapshot and replays only the WAL
tail behind it.  The file layout is a magic header followed by CRC32-framed
sections::

    [magic 8B] [u32 len][u32 crc][section 0: JSON meta]
               [u32 len][u32 crc][section 1: .npy blob] ...

Section 0 is a JSON object describing the store (relation rows and types,
seed-row count, declared constraints, sequence watermark, and the ordered
``arrays`` name list); each following section is one ``numpy.save`` blob —
the compacted :meth:`~repro.engine.partial.PartialEvidenceSet.state_arrays`
output, which finalizes bit-identically to the partial it compacted.

Writes are atomic: everything goes to a ``*.tmp`` sibling, which is
flushed, fsynced, and ``os.replace``-d over the target, then the directory
is fsynced.  A crash anywhere before the rename leaves at most a stray tmp
file; a crash after it leaves both the new snapshot and the old WAL, which
the sequence watermark makes harmless (replay skips records the snapshot
already reflects).  Corruption anywhere — torn section, flipped bit — is
detected by CRC and surfaces as :class:`SnapshotError`, and recovery falls
back to the next-older version.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

import repro.durability
from repro.durability.wal import _fsync_directory

SNAPSHOT_MAGIC = b"RPSNAP\x00\x01"
_SECTION = struct.Struct(">II")  # section length, crc32
SNAPSHOT_PATTERN = "snapshot-*.snap"


class SnapshotError(RuntimeError):
    """The snapshot file is unreadable, corrupt, or torn."""


def snapshot_path(directory: str | os.PathLike, version: int) -> Path:
    """The canonical file name of snapshot ``version`` in ``directory``."""
    return Path(directory) / f"snapshot-{version:08d}.snap"


def snapshot_versions(directory: str | os.PathLike) -> list[int]:
    """Snapshot versions present in ``directory``, oldest first."""
    versions = []
    for path in Path(directory).glob(SNAPSHOT_PATTERN):
        stem = path.stem  # snapshot-XXXXXXXX
        try:
            versions.append(int(stem.split("-", 1)[1]))
        except (IndexError, ValueError):
            continue
    return sorted(versions)


def write_snapshot(
    path: str | os.PathLike,
    meta: dict,
    arrays: dict[str, np.ndarray],
) -> None:
    """Atomically write ``meta`` + ``arrays`` as a snapshot file.

    ``meta`` gains an ``"arrays"`` key recording the section order.  Fault
    points: ``snapshot_write`` (per section; a crash there hurts only the
    tmp file) and ``snapshot_rename`` (a crash before the rename leaves the
    old snapshot generation live).
    """
    path = Path(path)
    names = sorted(arrays)
    meta = dict(meta, arrays=names)
    # No sort_keys: key order is semantic — relation row dicts carry the
    # column order the predicate space's bit layout is derived from.
    sections = [json.dumps(meta).encode("utf-8")]
    for name in names:
        blob = io.BytesIO()
        np.save(blob, np.ascontiguousarray(arrays[name]), allow_pickle=False)
        sections.append(blob.getvalue())

    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as out:
        out.write(SNAPSHOT_MAGIC)
        for section in sections:
            repro.durability.fault_point("snapshot_write", out, section)
            out.write(_SECTION.pack(len(section), zlib.crc32(section)))
            out.write(section)
        out.flush()
        os.fsync(out.fileno())
    repro.durability.fault_point("snapshot_rename")
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def load_snapshot(path: str | os.PathLike) -> tuple[dict, dict[str, np.ndarray]]:
    """Load and fully verify a snapshot; raises :class:`SnapshotError`."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise SnapshotError(f"cannot read {path}: {error}") from error
    if not raw.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError(f"{path} is not a snapshot file")
    sections: list[bytes] = []
    offset = len(SNAPSHOT_MAGIC)
    while offset < len(raw):
        if offset + _SECTION.size > len(raw):
            raise SnapshotError(f"{path}: torn section header")
        length, crc = _SECTION.unpack_from(raw, offset)
        offset += _SECTION.size
        section = raw[offset : offset + length]
        if len(section) < length or zlib.crc32(section) != crc:
            raise SnapshotError(f"{path}: section {len(sections)} fails checksum")
        sections.append(section)
        offset += length
    if not sections:
        raise SnapshotError(f"{path}: missing meta section")
    try:
        meta = json.loads(sections[0].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotError(f"{path}: bad meta section: {error}") from error
    names = meta.get("arrays", [])
    if len(names) != len(sections) - 1:
        raise SnapshotError(
            f"{path}: meta lists {len(names)} arrays, file has {len(sections) - 1}"
        )
    arrays: dict[str, np.ndarray] = {}
    for name, blob in zip(names, sections[1:]):
        try:
            arrays[name] = np.load(io.BytesIO(blob), allow_pickle=False)
        except ValueError as error:
            raise SnapshotError(f"{path}: array {name!r} unreadable: {error}") from error
    return meta, arrays
