"""Message transports: length-prefixed pickle frames.

Every link between the coordinator and a worker speaks the same trivial
wire protocol: a frame is an 8-byte big-endian payload length followed by a
pickled Python object.  :class:`Transport` owns the pickle step and the
per-connection byte/frame counters (what the cluster benchmark and the
metrics read as link bytes); subclasses only move raw payload bytes.

Two transports are provided:

* :class:`LocalTransport` — an in-process queue pair.  It still pickles
  every message, so it exercises exactly the serialization path of the
  socket transport (anything unpicklable fails in tests, not on a remote
  deployment) and counts the same bytes.
* :class:`SocketTransport` — a connected TCP (or Unix) socket.  A peer
  death surfaces as :class:`TransportClosed` on the next read or write,
  which is what the coordinator's failure detection keys off.
"""

from __future__ import annotations

import pickle
import queue
import select
import socket
import struct
import time

_HEADER = struct.Struct(">Q")


def _poll_ready(sock: socket.socket, write: bool, timeout: float | None) -> bool:
    """Wait until ``sock`` is ready for one I/O direction; False on timeout.

    ``select.poll`` where available (everywhere but Windows): unlike
    ``select.select`` it has no FD_SETSIZE cap, which matters in a
    coordinator holding a thousand worker sockets plus ordinary files.
    """
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLOUT if write else select.POLLIN)
        return bool(poller.poll(None if timeout is None else max(0.0, timeout) * 1000))
    readable, writable, _ = select.select(
        [] if write else [sock], [sock] if write else [], [], timeout
    )
    return bool(readable or writable)

#: Queue sentinel announcing the peer closed its end of a local link.
_CLOSED = object()


class TransportError(RuntimeError):
    """Base class of transport failures."""


class TransportClosed(TransportError):
    """The peer closed the link (clean shutdown or process death)."""


class TransportTimeout(TransportError):
    """No complete frame arrived within the requested timeout."""


class Transport:
    """Framed-pickle message link; subclasses move raw payloads.

    Besides the cumulative byte/frame counters, every send and receive
    records how its latest frame split between (de)serialization and the
    raw payload move (``last_serialize_seconds`` / ``last_send_seconds`` /
    ``last_unpickle_seconds``, plus the frame's payload size).  That is
    what lets a traced cluster worker report disjoint ``serialize`` and
    ``send`` segments for a result frame *after* shipping it — the span
    itself travels in a separate trailing frame.  The cost is four
    ``perf_counter`` reads per frame, noise next to a pickle round-trip.
    """

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.last_serialize_seconds = 0.0
        self.last_send_seconds = 0.0
        self.last_send_bytes = 0
        self.last_unpickle_seconds = 0.0
        self.last_recv_bytes = 0

    def send(self, message: object) -> None:
        """Pickle ``message`` into one frame and ship it."""
        start = time.perf_counter()
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        serialized = time.perf_counter()
        self._send_payload(payload)
        self.last_serialize_seconds = serialized - start
        self.last_send_seconds = time.perf_counter() - serialized
        self.last_send_bytes = len(payload)
        self.bytes_sent += len(payload)
        self.frames_sent += 1

    def recv(self, timeout: float | None = None) -> object:
        """Receive one frame and unpickle it.

        ``timeout=None`` blocks until a frame arrives or the link dies;
        otherwise :class:`TransportTimeout` is raised after ``timeout``
        seconds without a *complete* frame (partial frames stay buffered).
        """
        payload = self._recv_payload(timeout)
        self.bytes_received += len(payload)
        self.frames_received += 1
        self.last_recv_bytes = len(payload)
        start = time.perf_counter()
        message = pickle.loads(payload)
        self.last_unpickle_seconds = time.perf_counter() - start
        return message

    def close(self) -> None:
        raise NotImplementedError

    def _send_payload(self, payload: bytes) -> None:
        raise NotImplementedError

    def _recv_payload(self, timeout: float | None) -> bytes:
        raise NotImplementedError


class LocalTransport(Transport):
    """In-process endpoint of a queue pair (build with :meth:`pair`)."""

    def __init__(self, outbox: "queue.Queue[object]", inbox: "queue.Queue[object]") -> None:
        super().__init__()
        self._outbox = outbox
        self._inbox = inbox
        self._closed = False

    @classmethod
    def pair(cls) -> tuple["LocalTransport", "LocalTransport"]:
        """Two connected endpoints; what one sends the other receives."""
        a_to_b: "queue.Queue[object]" = queue.Queue()
        b_to_a: "queue.Queue[object]" = queue.Queue()
        return cls(a_to_b, b_to_a), cls(b_to_a, a_to_b)

    def _send_payload(self, payload: bytes) -> None:
        if self._closed:
            raise TransportClosed("transport is closed")
        self._outbox.put(payload)

    def _recv_payload(self, timeout: float | None) -> bytes:
        if self._closed:
            raise TransportClosed("transport is closed")
        try:
            item = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TransportTimeout(f"no frame within {timeout} seconds") from None
        if item is _CLOSED:
            # Keep the sentinel so every subsequent recv also reports EOF.
            self._inbox.put(_CLOSED)
            raise TransportClosed("peer closed the transport")
        return item  # type: ignore[return-value]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(_CLOSED)


class SocketTransport(Transport):
    """Framed-pickle link over a connected stream socket.

    ``send_timeout`` bounds how long a frame may sit blocked *making no
    progress* on a full send buffer (a frozen or blackholed peer never
    drains it; a blocking send would hang the sender forever).  Any bytes
    accepted reset the clock, so a slow-but-draining link is never killed
    no matter how large the frame.  Overrunning it counts as a dead link —
    the stream may hold a partial frame by then, so the connection is
    unusable either way.

    The socket runs non-blocking with ``select`` pacing both directions:
    a blocking ``send()`` can stall until its *entire* chunk fits in the
    peer buffer (so no writability check could bound it), and per-socket
    ``settimeout`` state would be shared between the coordinator's reader
    thread and the scheduler thread sending on the same socket.
    """

    def __init__(self, sock: socket.socket, send_timeout: float | None = None) -> None:
        super().__init__()
        self._sock = sock
        self._buffer = bytearray()
        self.send_timeout = send_timeout
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # Unix sockets / socketpairs have no Nagle to disable.

    def _await_ready(
        self, write: bool, deadline: float | None, on_deadline: TransportError
    ) -> None:
        """Pace one non-blocking I/O direction; raise ``on_deadline`` late."""
        while True:
            if deadline is None:
                remaining = None
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise on_deadline
            try:
                if _poll_ready(self._sock, write, remaining):
                    return
            except (OSError, ValueError) as error:
                raise TransportClosed(f"socket closed: {error}") from error

    def _send_payload(self, payload: bytes) -> None:
        view = memoryview(_HEADER.pack(len(payload)) + payload)
        deadline = (
            None if self.send_timeout is None
            else time.monotonic() + self.send_timeout
        )
        on_deadline = TransportClosed(
            f"send blocked past {self.send_timeout} seconds "
            "(peer frozen or link blackholed)"
        )
        # I/O first, wait only on BlockingIOError: polling before every
        # chunk would double the syscalls on the bulk-transfer hot path.
        while view:
            try:
                sent = self._sock.send(view)
            except (BlockingIOError, InterruptedError):
                self._await_ready(True, deadline, on_deadline)
                continue
            except (OSError, ValueError) as error:
                raise TransportClosed(f"send failed: {error}") from error
            view = view[sent:]
            if sent and deadline is not None:
                # Progress resets the clock: the bound is on a peer that
                # *stops* draining, not on total frame size over a slow link.
                deadline = time.monotonic() + self.send_timeout

    def _fill(self, target: int, timeout: float | None) -> None:
        """Grow the receive buffer to ``target`` bytes (partials persist)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        on_deadline = TransportTimeout(f"no frame within {timeout} seconds")
        while len(self._buffer) < target:
            try:
                chunk = self._sock.recv(max(65536, target - len(self._buffer)))
            except (BlockingIOError, InterruptedError):
                self._await_ready(False, deadline, on_deadline)
                continue
            except (OSError, ValueError) as error:
                raise TransportClosed(f"recv failed: {error}") from error
            if not chunk:
                raise TransportClosed("peer closed the socket")
            self._buffer.extend(chunk)

    def _recv_payload(self, timeout: float | None) -> bytes:
        self._fill(_HEADER.size, timeout)
        (length,) = _HEADER.unpack(bytes(self._buffer[: _HEADER.size]))
        self._fill(_HEADER.size + length, timeout)
        payload = bytes(self._buffer[_HEADER.size : _HEADER.size + length])
        del self._buffer[: _HEADER.size + length]
        return payload

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def parse_address(address: str) -> tuple[str, int]:
    """Split a ``host:port`` string (the worker CLI's ``--connect`` form)."""
    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"expected host:port, got {address!r}")
    return host, int(port_text)


def listen_socket(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """A listening TCP socket (``port=0`` lets the OS pick a free one)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen()
    return sock


def connect_socket(
    host: str,
    port: int,
    timeout: float | None = 30.0,
    send_timeout: float | None = None,
) -> SocketTransport:
    """Connect to a listening coordinator and wrap the socket.

    ``send_timeout`` is the no-progress send bound of the resulting
    transport — without one, a worker streaming a result to a frozen
    coordinator blocks forever.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return SocketTransport(sock, send_timeout=send_timeout)
