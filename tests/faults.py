"""Deterministic fault injection for the durability tests.

Crash-safety claims are only as good as the crashes they were tested
against, so every failure mode the WAL/snapshot machinery defends against
is injectable on a *deterministic schedule*: the crash tests enumerate (or
seed-generate) exact fault points — "the 3rd WAL record write tears after
17 bytes", "the 2nd fsync fails", "crash between snapshot rename and log
reset" — run the workload until the fault fires, then recover and assert
bit-identity against a fresh build on the acknowledged rows.

Pieces:

* :class:`SimulatedCrash` — raised at a scheduled crash point.  It
  subclasses ``BaseException`` deliberately: process death does not stop
  for ``except Exception`` handlers, so neither does its simulation.
* :class:`FaultSchedule` — maps labeled fault points (``"wal_write"``,
  ``"wal_sync"``, ``"snapshot_rename"`` …) and per-label occurrence
  numbers to actions: crash, fail an fsync, or tear a write after k bytes.
  It stands in for :func:`repro.durability.fault_point`, which receives the
  file and the bytes about to be written, so the schedule performs the
  torn write itself.
* :func:`injected` — installs a schedule as the durability hook and puts
  the no-op back afterwards, also inside ``@given`` tests.
* :class:`FlakyProxy` — a frame-aware TCP proxy between a client and the
  serve port that drops or delays scheduled *responses*: the server
  applies the append, the ack is lost, and the client's idempotent retry
  must be deduplicated to exactly-once.
"""

from __future__ import annotations

import contextlib
import os
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator

import repro.durability


class SimulatedCrash(BaseException):
    """The process "dies" here.

    A ``BaseException`` so ordinary ``except Exception`` recovery paths
    (request error isolation, per-batch fallbacks) cannot swallow it — just
    as they could not swallow a SIGKILL.
    """


@dataclass(frozen=True)
class FaultAction:
    """What a fault point should do this time around."""

    crash: bool = False
    fail_sync: bool = False
    keep_bytes: int | None = None

    @property
    def benign(self) -> bool:
        return not self.crash and not self.fail_sync and self.keep_bytes is None


@dataclass
class FaultSchedule:
    """A deterministic schedule of fault-point actions.

    Parameters
    ----------
    crash_points:
        ``(label, occurrence)`` pairs at which :class:`SimulatedCrash` is
        raised (occurrences count from 0, per label).
    sync_failures:
        ``(label, occurrence)`` pairs at which an fsync-style point raises
        ``OSError`` instead of succeeding.
    torn_writes:
        ``{(label, occurrence): keep}`` — the write at that point persists
        only a prefix, then crashes.  ``keep`` is a byte count (``int``) or
        a fraction of the record (``float`` in ``[0, 1)``).
    """

    crash_points: frozenset[tuple[str, int]] = frozenset()
    sync_failures: frozenset[tuple[str, int]] = frozenset()
    torn_writes: dict[tuple[str, int], float] = field(default_factory=dict)
    #: Occurrences seen so far, per label.
    counts: dict[str, int] = field(default_factory=dict)
    #: Fault points actually fired, in order — lets tests assert the
    #: scheduled fault was reached at all.
    fired: list[tuple[str, int, FaultAction]] = field(default_factory=list)

    def __call__(
        self, label: str, file: BinaryIO | None = None, data: bytes = b""
    ) -> None:
        """Act out this occurrence of fault point ``label`` as the
        durability hook.

        A torn write puts a prefix of ``data`` on disk, then dies; a crash
        flushes ``file`` (so recovery sees what a real page-cache survivor
        would), then dies; a failed fsync raises ``OSError``.
        """
        occurrence = self.counts.get(label, 0)
        self.counts[label] = occurrence + 1
        point = (label, occurrence)
        keep = self.torn_writes.get(point)
        keep_bytes: int | None = None
        if keep is not None:
            keep_bytes = int(keep * len(data)) if isinstance(keep, float) else int(keep)
            keep_bytes = max(0, min(keep_bytes, len(data) - 1))
        action = FaultAction(
            crash=point in self.crash_points,
            fail_sync=point in self.sync_failures,
            keep_bytes=keep_bytes,
        )
        if action.benign:
            return
        self.fired.append((label, occurrence, action))
        if keep_bytes is not None:
            file.write(data[:keep_bytes])
            file.flush()
            os.fsync(file.fileno())
            raise SimulatedCrash(f"torn write at {label} #{occurrence}")
        if action.crash:
            if file is not None:
                file.flush()
            raise SimulatedCrash(f"crash at {label} #{occurrence}")
        raise OSError(f"injected fsync failure at {label} #{occurrence}")

    @classmethod
    def crash_at(cls, label: str, occurrence: int = 0) -> "FaultSchedule":
        """A schedule with a single crash point."""
        return cls(crash_points=frozenset({(label, occurrence)}))

    @classmethod
    def seeded(
        cls,
        seed: int,
        labels: tuple[str, ...] = ("wal_write", "wal_record", "wal_sync", "snapshot_rename", "snapshot_reset"),
        horizon: int = 40,
    ) -> "FaultSchedule":
        """A pseudo-random single-crash schedule, reproducible from ``seed``.

        Picks one fault point uniformly over ``labels × range(horizon)``
        and, for write points, sometimes makes it a torn write instead of a
        clean boundary crash.  The chaos tests sweep seeds; every seed is a
        distinct deterministic crash scenario.
        """
        rng = random.Random(seed)
        label = rng.choice(labels)
        occurrence = rng.randrange(horizon)
        if label in ("wal_write", "snapshot_write") and rng.random() < 0.5:
            return cls(torn_writes={(label, occurrence): rng.random()})
        if label == "wal_sync" and rng.random() < 0.5:
            return cls(sync_failures=frozenset({(label, occurrence)}))
        return cls(crash_points=frozenset({(label, occurrence)}))


@contextlib.contextmanager
def injected(schedule: FaultSchedule) -> Iterator[FaultSchedule]:
    """Install ``schedule`` as :func:`repro.durability.fault_point` for the
    block; the previous hook is restored even when the block raises."""
    previous = repro.durability.fault_point
    repro.durability.fault_point = schedule
    try:
        yield schedule
    finally:
        repro.durability.fault_point = previous


_HEADER = struct.Struct(">Q")  # serve-protocol frame header (length only)


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 16))
        if not chunk:
            raise ConnectionError("peer closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


class FlakyProxy:
    """A frame-aware TCP proxy that loses or delays scheduled responses.

    Sits between a :class:`~repro.serve.client.ServeClient` and a
    :class:`~repro.serve.server.ViolationServer`; requests pass through
    verbatim, responses are counted globally (across reconnects) and the
    ``n``-th response can be dropped — the proxy closes the client side
    *after* the server has committed, simulating an ack lost to the
    network or to a server restart — or delayed past the client's read
    timeout.  Deterministic: no randomness, the schedule is explicit.
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        drop_responses: frozenset[int] | set[int] = frozenset(),
        delay_responses: dict[int, float] | None = None,
    ) -> None:
        self._upstream = upstream
        self._drop = frozenset(drop_responses)
        self._delay = dict(delay_responses or {})
        self._response_index = 0
        self._index_lock = threading.Lock()
        self._closed = False
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address: tuple[str, int] = self._listener.getsockname()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(client,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, client: socket.socket) -> None:
        try:
            server = socket.create_connection(self._upstream, timeout=30.0)
        except OSError:
            client.close()
            return
        stop = threading.Event()

        def pump_requests() -> None:
            try:
                while not stop.is_set():
                    data = client.recv(1 << 16)
                    if not data:
                        break
                    server.sendall(data)
            except OSError:
                pass
            finally:
                stop.set()
                try:
                    server.shutdown(socket.SHUT_WR)
                except OSError:
                    pass

        uplink = threading.Thread(target=pump_requests, daemon=True)
        uplink.start()
        try:
            while not stop.is_set():
                header = _read_exact(server, _HEADER.size)
                payload = _read_exact(server, _HEADER.unpack(header)[0])
                with self._index_lock:
                    index = self._response_index
                    self._response_index += 1
                if index in self._drop:
                    # The server already committed; the ack dies here.
                    break
                delay = self._delay.get(index)
                if delay:
                    time.sleep(delay)
                client.sendall(header + payload)
        except (ConnectionError, OSError):
            pass
        finally:
            stop.set()
            for sock in (client, server):
                try:
                    sock.close()
                except OSError:
                    pass

    @property
    def responses_seen(self) -> int:
        with self._index_lock:
            return self._response_index

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        for thread in self._threads:
            thread.join(timeout=5.0)
