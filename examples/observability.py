"""Observability walkthrough: metrics, trace spans, and Prometheus.

The obs layer (``repro.obs``) gives the serving stack three read-out
surfaces, and this walkthrough exercises all of them against a real
server on a loopback port:

1. **Trace spans** — any request carrying ``trace=True`` comes back with
   a per-segment latency breakdown (``queue`` / ``fold`` /
   ``journal_fsync`` / ``commit`` / ``ack`` for a durable append), so one
   slow request explains itself without log archaeology;
2. **The ``metrics`` wire op** — a JSON snapshot of the process metrics
   registry over the same TCP connection the data plane uses;
3. **The Prometheus endpoint** — ``--metrics-port`` (or
   ``metrics_port=`` on :class:`~repro.serve.server.ServerThread`)
   serves the standard text exposition for scraping, plus a
   ``/healthz`` liveness probe.

Metrics are on by default; export ``REPRO_OBS=0`` to disable every
counter at the source.  Run with::

    PYTHONPATH=src python examples/observability.py
"""

from __future__ import annotations

import urllib.request

from repro import running_example
from repro.serve import ServeClient, ServerThread

EPSILON = 0.05


def main() -> None:
    relation = running_example()
    rows = [relation.row(i) for i in range(relation.n_rows)]

    # metrics_port=0 picks a free port, same as the main listener.
    with ServerThread(metrics_port=0) as (host, port):
        print(f"server on {host}:{port}")
        with ServeClient(host, port) as client:
            client.create_store("tax", rows[:10])
            client.remine("tax", epsilon=EPSILON, limit=4)

            # 1. A traced append: the response carries the span.
            result = client.append("tax", rows[10:13], trace=True)
            trace = result["trace"]
            print(f"traced append {trace['trace_id']}: "
                  f"{trace['seconds'] * 1e3:.2f} ms total")
            for name, seconds in sorted(
                trace["segments"].items(), key=lambda kv: -kv[1]
            ):
                print(f"  {name:<14} {seconds * 1e6:9.1f} us")

            # Remine responses also report enumeration statistics.
            mined = client.remine("tax", epsilon=EPSILON, trace=True)
            stats = mined["enumeration"]
            print(f"remine visited {stats['recursive_calls']} nodes "
                  f"({stats['nodes_per_second']:.0f}/s), "
                  f"mined {mined['mined']} ADCs")

            # 2. The metrics wire op: JSON snapshot of the registry.
            families = client.metrics()["metrics"]
            appended = families["repro_store_appended_rows_total"]
            for sample in appended["samples"]:
                print(f"appended rows {sample['labels']}: "
                      f"{sample['value']:.0f}")
            latency = families["repro_serve_request_seconds"]
            for sample in latency["samples"]:
                if sample["labels"]["op"] == "append":
                    mean_ms = sample["sum"] / sample["count"] * 1e3
                    print(f"append requests: {sample['count']} "
                          f"(mean {mean_ms:.2f} ms)")

        print("client disconnected")

    # 3. The Prometheus endpoint, on a fresh server with traffic.
    thread = ServerThread(metrics_port=0)
    try:
        host, port = thread.address
        with ServeClient(host, port) as client:
            client.create_store("tax", rows[:10])
            client.append("tax", rows[10:12])
        metrics_host, metrics_port = thread.metrics_address
        url = f"http://{metrics_host}:{metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=10.0) as response:
            text = response.read().decode("utf-8")
        print(f"prometheus exposition from {url}: {len(text)} bytes")
        for line in text.splitlines():
            if line.startswith("repro_serve_requests_total{"):
                print(f"  {line}")
    finally:
        thread.stop()


if __name__ == "__main__":
    main()
