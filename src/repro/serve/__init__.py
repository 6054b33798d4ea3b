"""Async violation-serving server: the network front-end of the library.

The incremental subsystem answers violation queries as a *library*
(:class:`~repro.incremental.store.EvidenceStore` +
:class:`~repro.incremental.serve.ViolationService`); this package makes it
a *server* that holds production traffic:

* :mod:`repro.serve.protocol` — length-prefixed JSON frames, error codes,
  the op table (:data:`~repro.serve.protocol.OPS`), and the framing
  helpers both sides share.
* :mod:`repro.serve.counters` — :class:`ViolationCounters`: push-based
  per-DC violating-pair counts maintained from each appended batch's delta
  partial, so the read path never finalizes evidence (reads are O(#DCs)
  regardless of pending appends, bit-identical to a fresh finalize).
* :mod:`repro.serve.scheduler` — :class:`AppendScheduler`: concurrent
  appends to one store coalesce into a single delta-tile fold per flush
  window, with backpressure and per-request error isolation.
* :mod:`repro.serve.server` — :class:`ViolationServer`: the asyncio TCP
  server (multi-tenant store registry, bounded per-connection pipelines,
  executor-offloaded store work, graceful drain) plus the
  :class:`ServerThread` harness for embedding it in sync programs.
* :mod:`repro.serve.client` — :class:`ServeClient`: the one blocking
  client tests, benchmarks, and examples share, with read timeouts
  (:class:`ServeTimeout`) and idempotent retry across reconnects.

Durability: start the server with a data directory and every tenant store
journals appends ahead of acknowledgment, compacts into snapshots, and is
recovered bit-identically on restart (see :mod:`repro.durability`)::

    python -m repro.serve --listen 127.0.0.1:7332 --data-dir /var/lib/repro

Observability (see :mod:`repro.obs`): every request lands in the process
metrics registry (readable via the ``metrics`` op or a Prometheus endpoint
started with ``--metrics-port``), requests carrying a ``trace`` field get
a per-segment latency breakdown in their response, and server events are
structured JSON log lines on stderr::

    python -m repro.serve --listen 127.0.0.1:7332 --metrics-port 9100

Run a server::

    python -m repro.serve --listen 127.0.0.1:7332

and talk to it::

    from repro.serve import ServeClient
    with ServeClient("127.0.0.1", 7332) as client:
        client.create_store("people", rows)
        client.remine("people", epsilon=0.05)
        print(client.report("people"))
"""

from repro.serve.client import ServeClient
from repro.serve.counters import CounterSnapshot, ViolationCounters
from repro.serve.protocol import ServeError, ServeTimeout
from repro.serve.scheduler import AppendScheduler
from repro.serve.server import ServerThread, ViolationServer

__all__ = [
    "AppendScheduler",
    "CounterSnapshot",
    "ServeClient",
    "ServeError",
    "ServeTimeout",
    "ServerThread",
    "ViolationServer",
    "ViolationCounters",
]
