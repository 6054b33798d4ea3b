"""Minimal asyncio HTTP endpoint serving Prometheus text exposition.

Stdlib only, runs on the server's own event loop: each connection reads
one request, answers ``GET /metrics`` (or ``/``) with the registry
rendered by :func:`~repro.obs.prometheus.render_text` (in the loop's
default executor, so a render never stalls the serving loop), and closes
(``Connection: close`` — scrapers reconnect per scrape).  ``GET /healthz``
is a liveness probe distinct from the scrape: 200 with a small JSON body
(uptime plus whatever the owner's ``health`` callable reports), so an
orchestrator can restart a wedged process without parsing an exposition.
Anything else gets a 404.  Malformed requests are dropped silently; this
listener is meant for a trusted scrape network, same as the serving port.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Callable

from repro.obs.prometheus import CONTENT_TYPE, render_text
from repro.obs.registry import MetricsRegistry

__all__ = ["MetricsHTTPServer"]

_MAX_REQUEST_BYTES = 8192


class MetricsHTTPServer:
    """``GET /metrics`` (+ ``/healthz``) over a loop-local ``asyncio.start_server``."""

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str,
        port: int,
        health: Callable[[], dict] | None = None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.health = health
        self._started_at = time.monotonic()
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def _render(self) -> bytes:
        # A render walks every family; keep it off the serving loop.
        loop = asyncio.get_running_loop()
        text = await loop.run_in_executor(None, render_text, self.registry)
        return text.encode("utf-8")

    def _health_body(self) -> bytes:
        body = {"status": "ok", "uptime_seconds": round(
            time.monotonic() - self._started_at, 3
        )}
        if self.health is not None:
            try:
                body.update(self.health())
            except Exception as error:
                body["health_error"] = repr(error)
        return (json.dumps(body) + "\n").encode("utf-8")

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=5.0
                )
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    asyncio.TimeoutError):
                return
            if len(request) > _MAX_REQUEST_BYTES:
                return
            parts = request.split(b" ", 2)
            if len(parts) < 3 or parts[0] not in (b"GET", b"HEAD"):
                writer.write(_response(405, b"method not allowed\n"))
                return
            path = parts[1].split(b"?", 1)[0]
            if path in (b"/metrics", b"/"):
                body = await self._render()
                if parts[0] == b"HEAD":
                    body = b""
                writer.write(_response(200, body, content_type=CONTENT_TYPE))
            elif path == b"/healthz":
                body = self._health_body()
                if parts[0] == b"HEAD":
                    body = b""
                writer.write(
                    _response(200, body, content_type="application/json")
                )
            else:
                writer.write(_response(404, b"not found\n"))
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer vanished
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


def _response(status: int, body: bytes,
              content_type: str = "text/plain; charset=utf-8") -> bytes:
    reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}[status]
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body
