"""Synchronous client of the violation-serving server.

:class:`ServeClient` is the one blocking client everything shares — tests,
benchmarks, examples, and the CI smoke driver — instead of each
hand-rolling socket framing.  One instance owns one connection; calls are
request/response in order (a lock serializes concurrent callers, so an
instance is thread-safe but not pipelined — open one client per thread for
throughput).

Typed helpers cover every server op; :meth:`request` is the escape hatch
for raw frames.  A server-side failure raises
:class:`~repro.serve.protocol.ServeError` carrying the error code.

Fault tolerance: connections are lazy (a dead server at construction time
surfaces on the first request, not in ``__init__`` when ``retries`` is
set), a read that exceeds ``timeout`` raises
:class:`~repro.serve.protocol.ServeTimeout` and poisons the connection
(a late response would desynchronize request ids), and ``retries`` makes
*idempotent* requests survive a server restart: the client reconnects
with exponential backoff and resends.  ``append`` joins the idempotent
set by carrying a ``request_key`` — the server's dedup window applies a
retried append exactly once even if the original acknowledgment was lost.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
import uuid
from typing import Iterable, Mapping, Sequence

from repro.obs.spans import new_trace_id
from repro.serve import protocol
from repro.serve.protocol import ServeError, ServeTimeout

Row = Mapping[str, object]


class ServeClient:
    """Blocking JSON-frame client for one server connection.

    Parameters
    ----------
    host, port:
        The server's listen address.
    timeout:
        Socket timeout for every response read (seconds; ``None`` blocks
        forever — remines on big stores can be slow).  Expiry raises
        :class:`ServeTimeout` and closes the connection.
    connect_timeout:
        Timeout for establishing the connection; defaults to ``timeout``.
    retries:
        How many times an idempotent request is retried after a
        connection failure (``0`` = fail fast, the historical behavior).
        Ops that :data:`~repro.serve.protocol.OPS` does not mark
        idempotent never retry.
    retry_backoff:
        Base sleep between retries (seconds); doubles per attempt.
    max_frame_bytes:
        Refusal bound for response frames (matches the server's).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 60.0,
        connect_timeout: float | None = None,
        retries: int = 0,
        retry_backoff: float = 0.2,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.connect_timeout = timeout if connect_timeout is None else connect_timeout
        self.retries = max(0, int(retries))
        self.retry_backoff = float(retry_backoff)
        self.max_frame_bytes = int(max_frame_bytes)
        self._sock: socket.socket | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False
        self.reconnects = 0
        if self.retries == 0:
            # Historical contract: a non-retrying client fails at
            # construction when the server is unreachable.
            with self._lock:
                self._connect()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        """Ensure a live socket (lock held)."""
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except socket.timeout as error:
            raise ServeTimeout(
                f"connect to {self.host}:{self.port} timed out "
                f"after {self.connect_timeout}s"
            ) from error
        sock.settimeout(self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._sock = sock
        return sock

    def _drop_connection(self) -> None:
        """Poison the current socket (lock held); next request reconnects."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _roundtrip(self, op: str, fields: Mapping[str, object]) -> dict[str, object]:
        """One send/receive on the live connection (lock held)."""
        sock = self._connect()
        request_id = next(self._ids)
        try:
            sock.sendall(
                protocol.encode_frame({"id": request_id, "op": op, **fields})
            )
            response = protocol.read_frame(sock, self.max_frame_bytes)
        except socket.timeout as error:
            # The response may still arrive later; reading it would answer
            # the *wrong* request.  The connection is unusable — drop it.
            self._drop_connection()
            raise ServeTimeout(
                f"no response to {op!r} within {self.timeout}s"
            ) from error
        except (ConnectionError, OSError):
            self._drop_connection()
            raise
        if response.get("id") not in (request_id, None):
            raise protocol.ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}"
            )
        return response

    def request(self, op: str, **fields: object) -> dict[str, object]:
        """Send one request and wait for its response.

        Returns the success frame (minus the envelope); raises
        :class:`ServeError` on an error frame, :class:`ServeTimeout` on a
        read timeout, and :class:`ConnectionError` when the link dies.
        With ``retries`` set, an op the protocol table marks idempotent
        (and any request carrying a ``request_key``) is reconnected and
        resent with exponential backoff instead of failing immediately.
        """
        if self._closed:
            raise ConnectionError("client is closed")
        spec = protocol.OPS.get(op)
        idempotent = spec is not None and (
            spec.idempotent or fields.get("request_key") is not None
        )
        attempts = 1 + (self.retries if idempotent else 0)
        failure: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                # time.sleep outside the lock would allow id interleaving;
                # inside it, other threads simply queue behind the retry.
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
                self.reconnects += 1
            try:
                with self._lock:
                    response = self._roundtrip(op, fields)
                break
            except (ConnectionError, OSError) as error:
                failure = error
        else:
            assert failure is not None
            raise failure
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServeError(
                str(error.get("code", protocol.INTERNAL)),
                str(error.get("message", "unspecified server error")),
            )
        return response

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if not self._closed:
            self._closed = True
            if self._sock is not None:
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                self._sock.close()
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Typed ops
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, object]:
        """Server liveness, protocol version, and registered store names."""
        return self.request("ping")

    def create_store(
        self,
        store: str,
        rows: Iterable[Row],
        types: Mapping[str, str] | None = None,
    ) -> dict[str, object]:
        """Register a tenant store seeded with ``rows``."""
        fields: dict[str, object] = {"store": store, "rows": list(rows)}
        if types is not None:
            fields["types"] = dict(types)
        return self.request("create_store", **fields)

    def drop_store(self, store: str) -> dict[str, object]:
        """Drain and remove a tenant store."""
        return self.request("drop_store", store=store)

    def append(
        self,
        store: str,
        rows: Iterable[Row],
        request_key: str | None = None,
        trace: "bool | str" = False,
    ) -> dict[str, object]:
        """Stream a batch of rows into a store (coalesced server-side).

        Every append carries a ``request_key`` (auto-generated when not
        given): the server's dedup window makes a retry of the same key —
        lost acknowledgment, server restart — apply exactly once and
        return the original result, so keyed appends are safely
        idempotent and participate in the client's retry loop.

        ``trace=True`` (or a caller-chosen trace-id string) asks the server
        to decompose this request's latency; the response then carries a
        ``"trace"`` object with per-segment seconds (queue, fold,
        journal_fsync, commit, ack).
        """
        if request_key is None:
            request_key = uuid.uuid4().hex
        fields: dict[str, object] = {
            "store": store, "rows": list(rows), "request_key": request_key,
        }
        if trace:
            fields["trace"] = trace if isinstance(trace, str) else new_trace_id()
        return self.request("append", **fields)

    def remine(
        self,
        store: str,
        epsilon: float,
        function: str = "f1",
        max_dc_size: int | None = None,
        limit: int | None = None,
        trace: "bool | str" = False,
    ) -> dict[str, object]:
        """Mine ADCs on the store's current state and install them.

        The response's ``"enumeration"`` object carries the run's search
        statistics (recursive calls, prunes, outputs, nodes/second);
        ``trace`` additionally requests the finalize/enumerate latency
        split under ``"trace"``.
        """
        fields: dict[str, object] = {
            "store": store, "epsilon": epsilon, "function": function,
        }
        if max_dc_size is not None:
            fields["max_dc_size"] = max_dc_size
        if limit is not None:
            fields["limit"] = limit
        if trace:
            fields["trace"] = trace if isinstance(trace, str) else new_trace_id()
        return self.request("remine", **fields)

    def declare(
        self,
        store: str,
        constraints: Sequence[Sequence[Mapping[str, object]]],
        epsilon: float = 0.01,
    ) -> dict[str, object]:
        """Install hand-written DCs (lists of predicate specs)."""
        return self.request(
            "declare", store=store,
            constraints=[list(spec) for spec in constraints],
            epsilon=epsilon,
        )

    def violations(
        self, store: str, dc: int, mode: str = "counters"
    ) -> dict[str, object]:
        """One DC's violating-pair count/rate (push counters by default)."""
        return self.request("violations", store=store, dc=dc, mode=mode)

    def report(self, store: str) -> dict[str, object]:
        """All served DCs' counts/rates off one consistent counter snapshot."""
        return self.request("report", store=store)

    def check_batch(self, store: str, rows: Iterable[Row]) -> dict[str, object]:
        """Per-row epsilon admission verdicts for an incoming batch."""
        return self.request("check_batch", store=store, rows=list(rows))

    def violating_pairs(
        self, store: str, dc: int, limit: int = 10_000
    ) -> dict[str, object]:
        """The actual violating ``(t, t')`` pairs of one DC (tile replay)."""
        return self.request("violating_pairs", store=store, dc=dc, limit=limit)

    def tuple_scores(
        self, store: str, dc: int, ranking: bool = False
    ) -> dict[str, object]:
        """Per-tuple violation scores (and optionally the repair ranking)."""
        return self.request("tuple_scores", store=store, dc=dc, ranking=ranking)

    def set_epsilon(self, store: str, epsilon: float) -> dict[str, object]:
        """Change the store's served epsilon (journaled when durable)."""
        return self.request("set_epsilon", store=store, epsilon=epsilon)

    def stats(self) -> dict[str, object]:
        """Server-wide and per-store operational statistics."""
        return self.request("stats")

    def metrics(self, format: str = "json") -> dict[str, object]:
        """The server process's metrics registry.

        ``format="json"`` returns the structured snapshot under
        ``"metrics"``; ``format="text"`` returns the Prometheus text
        exposition under ``"text"``.
        """
        return self.request("metrics", format=format)
