"""CLI entry point: ``python -m repro.serve --listen host:port``.

Boots a :class:`~repro.serve.server.ViolationServer`, prints the bound
address (one line on stdout, so wrappers can wait for readiness and parse
the OS-assigned port when ``:0`` is requested), and serves until SIGTERM
or SIGINT triggers the graceful drain: pending append flushes commit,
in-flight requests answer, connections close, then the process exits 0.

When `uvloop <https://uvloop.readthedocs.io>`_ is importable it replaces
the default event loop (``--no-uvloop`` opts out); the selected loop is
reported in the structured startup log on stderr.  The readiness banner on
stdout is a parse contract and stays a plain print either way.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.obs.logging import JsonLogger, get_logger, set_logger
from repro.serve.server import ViolationServer


def parse_address(address: str) -> tuple[str, int]:
    """Split a ``host:port`` string (the ``--listen`` form)."""
    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"expected host:port, got {address!r}")
    return host, int(port_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve DC violation queries over evidence stores.",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:7332", metavar="HOST:PORT",
        help="listen address (port 0 lets the OS pick; default %(default)s)",
    )
    parser.add_argument(
        "--flush-window", type=float, default=0.0, metavar="SECONDS",
        help="append-coalescing window per store (default %(default)s)",
    )
    parser.add_argument(
        "--max-frame-mb", type=int, default=64,
        help="per-frame size bound in MiB (default %(default)s)",
    )
    parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="durability root: journal every store under DIR/<name>/ and "
             "recover all journaled stores on boot (default: in-memory only)",
    )
    parser.add_argument(
        "--fsync", choices=("always", "commit", "never"), default="commit",
        help="WAL fsync policy for tenant journals (default %(default)s)",
    )
    parser.add_argument(
        "--snapshot-bytes", type=int, default=4 * 1024 * 1024,
        help="WAL size triggering snapshot compaction (default %(default)s)",
    )
    parser.add_argument(
        "--max-stores", type=int, default=None,
        help="cap on live tenant stores (default: unlimited)",
    )
    parser.add_argument(
        "--max-rows-per-store", type=int, default=None,
        help="per-tenant row quota (default: unlimited)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text exposition on this port "
             "(0 lets the OS pick; default: no metrics endpoint)",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum structured-log level on stderr (default %(default)s)",
    )
    parser.add_argument(
        "--no-uvloop", action="store_true",
        help="stay on the default asyncio event loop even if uvloop "
             "is importable",
    )
    return parser


def _install_uvloop(disabled: bool) -> str:
    """Install uvloop's event-loop policy when available; name the loop used.

    uvloop is optional (never a hard dependency): the import is attempted
    and any failure silently keeps the stdlib loop.
    """
    if disabled:
        return "asyncio"
    try:
        import uvloop
    except Exception:  # noqa: BLE001 - absence or broken install both fine
        return "asyncio"
    uvloop.install()
    return "uvloop"


async def _amain(args: argparse.Namespace, loop_name: str) -> int:
    log = get_logger()
    host, port = parse_address(args.listen)
    server = ViolationServer(
        host, port,
        flush_window=args.flush_window,
        max_frame_bytes=args.max_frame_mb * 1024 * 1024,
        data_dir=args.data_dir,
        fsync=args.fsync,
        snapshot_every_bytes=args.snapshot_bytes,
        max_stores=args.max_stores,
        max_rows_per_store=args.max_rows_per_store,
        metrics_port=args.metrics_port,
    )
    log.info("event_loop_selected", loop=loop_name)
    host, port = await server.start()
    # Parse contract: wrappers and benchmarks wait for this stdout line.
    print(f"repro-serve listening on {host}:{port}", flush=True)
    metrics_address = server.metrics_address
    if metrics_address is not None:
        print(
            f"repro-serve metrics on "
            f"{metrics_address[0]}:{metrics_address[1]}",
            flush=True,
        )

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(
            signum, lambda: asyncio.ensure_future(server.stop())
        )
    await server.serve_forever()
    log.info("server_stopped", host=host, port=port)
    print("repro-serve drained and stopped", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    set_logger(JsonLogger(min_level=args.log_level))
    loop_name = _install_uvloop(args.no_uvloop)
    try:
        return asyncio.run(_amain(args, loop_name))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        return 130


if __name__ == "__main__":
    sys.exit(main())
