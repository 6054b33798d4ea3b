"""The cluster worker: a receive-execute-reply loop over one transport.

A worker is deliberately dumb and generic.  It receives a *context* object
once (the expensive payload — a prepared tile kernel and its schedule),
then answers ``task`` messages by calling ``context.run(payload)`` and
streaming each pickled result straight back.  Between tasks it answers
heartbeat pings; a task failure is reported as an ``error`` frame rather
than killing the loop, so one poisoned shard does not take the worker down
with it.

Remote deployment is one command per machine::

    python -m repro.cluster.worker --connect host:port [--worker-id ID]

Wire protocol (all frames are tuples, first element the kind):

======================  =============================  =======================
coordinator sends       worker replies                 meaning
======================  =============================  =======================
``("context", c)``      ``("ready",)``                 install work context
``("task", i, p[, t])`` ``("result", i, r)`` or        run ``c.run(p)``;
—                       ``("error", i, info)``         ``t`` = trace context
—                       ``("task_span", i, child)``    traced-task span, sent
—                                                      *after* its result
``("ping", n)``         ``("pong", n)``                heartbeat
``("metrics_pull", n)`` ``("metrics", n, snapshot)``   registry snapshot
``("shutdown",)``       —                              close and exit
======================  =============================  =======================

Observability (all of it gated on the process registry's ``REPRO_OBS``
switch, and none of it on the untraced hot path beyond counter bumps):

* A task frame carrying a trace context runs under a child
  :class:`~repro.obs.spans.Span` whose disjoint segments —
  ``deserialize`` / ``compute`` / ``serialize`` / ``send`` — sum to the
  task's wall time.  Because the ``serialize``/``send`` segments measure
  the *result frame itself*, the span cannot ride inside that frame; it
  follows in a tiny ``task_span`` frame on the same ordered stream, which
  the coordinator stitches into the requesting span's tree.
* ``repro_worker_*`` metric families count tasks (by context kind and
  outcome), task seconds, context installs and link bytes in *this
  process's* registry; the coordinator collects them via
  ``metrics_pull`` and federates them under a ``worker="<id>"`` label.
* Failures become bounded, structured error frames (capped traceback,
  task key, worker id) mirrored as a :class:`~repro.obs.logging.JsonLogger`
  record instead of raw stderr.
"""

from __future__ import annotations

import argparse
import os
import socket as socket_module
import time
import traceback

from repro.cluster.transport import (
    Transport,
    TransportClosed,
    connect_socket,
    parse_address,
)
from repro.obs import metrics as obs_metrics
from repro.obs.federate import prune_idle
from repro.obs.logging import get_logger
from repro.obs.registry import get_registry
from repro.obs.spans import Span

#: Hard cap on the traceback text an error frame ships — a repr-heavy
#: exception (say, a numpy array in the message) must not balloon a frame.
MAX_TRACEBACK_CHARS = 4096
_MAX_ERROR_CHARS = 512


def default_worker_id() -> str:
    """The worker's self-reported identity: ``host:pid``."""
    return f"{socket_module.gethostname()}:{os.getpid()}"


def _bounded_traceback() -> str:
    """The current exception's traceback, middle-elided past the cap."""
    text = traceback.format_exc(limit=20)
    if len(text) <= MAX_TRACEBACK_CHARS:
        return text
    keep = MAX_TRACEBACK_CHARS // 2
    dropped = len(text) - 2 * keep
    return f"{text[:keep]}\n... [{dropped} chars truncated] ...\n{text[-keep:]}"


def _error_info(worker_id: str, task_id: object, error: BaseException) -> dict:
    message = f"{type(error).__name__}: {error}"
    if len(message) > _MAX_ERROR_CHARS:
        message = message[:_MAX_ERROR_CHARS] + "..."
    return {
        "worker": worker_id,
        # Normally the (submission, index) pair; a protocol complaint can
        # carry whatever key the malformed frame held, so don't assume.
        "task": list(task_id) if isinstance(task_id, (tuple, list)) else task_id,
        "error": message,
        "traceback": _bounded_traceback(),
    }


def _task_meta(context: object, payload: object) -> dict:
    """Optional task metadata from the context (e.g. shard pair counts)."""
    describe = getattr(context, "describe", None)
    if describe is None:
        return {}
    try:
        meta = describe(payload)
    except Exception:
        return {}
    return dict(meta) if isinstance(meta, dict) else {}


def serve(transport: Transport, worker_id: str | None = None) -> int:
    """Run the worker loop until shutdown or peer death; tasks completed."""
    if worker_id is None:
        worker_id = default_worker_id()
    log = get_logger()
    registry = get_registry()
    context: object | None = None
    context_kind = "none"
    completed = 0
    bytes_reported = [0, 0]  # sent, received — last totals pushed to counters

    def push_bytes() -> None:
        if not registry.enabled:
            return
        sent, received = transport.bytes_sent, transport.bytes_received
        obs_metrics.WORKER_BYTES_SENT.inc(max(0, sent - bytes_reported[0]))
        obs_metrics.WORKER_BYTES_RECEIVED.inc(max(0, received - bytes_reported[1]))
        bytes_reported[0], bytes_reported[1] = sent, received

    def report_error(task_id: object, error: BaseException) -> None:
        obs_metrics.WORKER_TASKS.inc_labels(context_kind, "error")
        info = _error_info(worker_id, task_id, error)
        log.error(
            "task_failed",
            worker=worker_id, task=info["task"], error=info["error"],
        )
        transport.send(("error", task_id, info))

    while True:
        # A closed link — clean coordinator shutdown or its death — ends
        # the loop quietly wherever it surfaces, recv and send alike.
        try:
            message = transport.recv()
            kind = message[0]
            if kind == "context":
                context = message[1]
                context_kind = type(context).__name__
                obs_metrics.WORKER_CONTEXT_INSTALLS.inc()
                transport.send(("ready",))
            elif kind == "task":
                task_id, payload = message[1], message[2]
                trace_ctx = message[3] if len(message) > 3 else None
                deserialize_seconds = transport.last_unpickle_seconds
                started = time.perf_counter()
                try:
                    if context is None:
                        raise RuntimeError("no context installed before the first task")
                    result = context.run(payload)
                    computed = time.perf_counter()
                except TransportClosed:
                    raise
                except Exception as error:
                    report_error(task_id, error)
                    continue
                try:
                    transport.send(("result", task_id, result))
                except TransportClosed:
                    raise
                except Exception as error:
                    # An unpicklable result never reached the wire (send
                    # pickles before writing), so the stream is clean:
                    # report the failure instead of crashing the loop.
                    report_error(task_id, error)
                    continue
                finished = time.perf_counter()
                completed += 1
                wall = deserialize_seconds + (finished - started)
                result_bytes = transport.last_send_bytes
                obs_metrics.WORKER_TASKS.inc_labels(context_kind, "ok")
                obs_metrics.WORKER_TASK_SECONDS.observe(wall)
                if trace_ctx is not None:
                    # Disjoint segments covering the whole wall window; the
                    # serialize/send pair comes from the transport's timing
                    # of the result frame just shipped, which is why the
                    # span trails its result instead of riding inside it.
                    span = Span(
                        str(trace_ctx.get("trace_id", "")), op="cluster_task"
                    )
                    span.add_segment("deserialize", deserialize_seconds)
                    span.add_segment("compute", computed - started)
                    span.add_segment(
                        "serialize", transport.last_serialize_seconds
                    )
                    span.add_segment("send", transport.last_send_seconds)
                    child = span.jsonable()
                    child.update(_task_meta(context, payload))
                    child.update(
                        worker=worker_id,
                        task=list(task_id),
                        wall_seconds=wall,
                        result_bytes=result_bytes,
                    )
                    transport.send(("task_span", task_id, child))
            elif kind == "ping":
                transport.send(("pong", message[1]))
            elif kind == "metrics_pull":
                families = prune_idle(registry.snapshot()) if registry.enabled else {}
                transport.send((
                    "metrics",
                    message[1],
                    {
                        "worker": worker_id,
                        "enabled": registry.enabled,
                        "taken_at": time.time(),
                        "tasks_completed": completed,
                        "families": families,
                    },
                ))
            elif kind == "shutdown":
                transport.close()
                return completed
            else:
                transport.send((
                    "error", None,
                    {
                        "worker": worker_id,
                        "task": None,
                        "error": f"unknown message kind {kind!r}",
                        "traceback": "",
                    },
                ))
            push_bytes()
        except TransportClosed:
            try:
                transport.close()  # announce EOF on our side too
            except Exception:
                pass
            return completed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker", description=__doc__
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address to connect to",
    )
    parser.add_argument(
        "--send-timeout", type=float, default=60.0, metavar="SECONDS",
        help="give up on a send making no progress for this long — a "
             "frozen coordinator would otherwise hang the worker forever "
             "(0 disables the bound; default %(default)s)",
    )
    parser.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="self-reported identity used in federated metrics labels and "
             "error frames (default: host:pid)",
    )
    args = parser.parse_args(argv)
    host, port = parse_address(args.connect)
    send_timeout = args.send_timeout if args.send_timeout > 0 else None
    transport = connect_socket(host, port, send_timeout=send_timeout)
    worker_id = args.worker_id or default_worker_id()
    log = get_logger()
    log.info("worker_connected", worker=worker_id, coordinator=f"{host}:{port}")
    completed = serve(transport, worker_id=worker_id)
    log.info("worker_exiting", worker=worker_id, tasks_completed=completed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
