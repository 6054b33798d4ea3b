"""The cluster coordinator: worker registry, scheduling, failure recovery.

:class:`ClusterCoordinator` owns one transport per registered worker and
drives them through :meth:`submit`: the work context is broadcast once,
tasks are handed out largest-weight-first (for evidence shards the weight
is the shard's ordered-pair count, so the assignment is pair-count
balanced), and results are collected in completion order.  The machinery is
transport-agnostic — an in-process :class:`~repro.cluster.transport.LocalTransport`
pair and a TCP worker on another machine are driven identically.

Failure handling, the part that distinguishes this from a thread pool:

* **Worker death.**  Each worker has a daemon reader thread pumping frames
  into the coordinator inbox; a closed transport (SIGKILL'd process, died
  machine) surfaces as a ``dead`` event, the worker leaves the registry and
  its in-flight task is requeued for the survivors.
* **Stragglers.**  A task outstanding longer than ``task_timeout`` is
  *re-issued* to an idle worker while the original keeps running; the first
  result wins and late duplicates are discarded (shared-memory duplicates
  are still attached and unlinked, so nothing leaks).
* **Heartbeats.**  Idle workers are pinged every ``heartbeat_interval``
  seconds; one that stays silent past ``heartbeat_timeout`` is declared
  dead.  Busy workers are exempt — a kernel crunching a big shard cannot
  answer — and are covered by EOF detection and the straggler timeout.
  Workers still installing a broadcast context are equally deaf to pings,
  so they get their own, much longer ``context_timeout`` instead.

Correctness does not depend on any of this being lucky with timing: tasks
are idempotent pure functions of the context, so re-issues and duplicates
only ever produce byte-identical results, and the caller's merge is
order-insensitive (:func:`repro.cluster.build.merge_partials_tree`).
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.cluster.shm import ShmPartial, resolve_result
from repro.cluster.transport import (
    SocketTransport,
    Transport,
    TransportError,
    listen_socket,
)
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.logging import get_logger
from repro.obs.registry import get_registry


class ClusterError(RuntimeError):
    """Raised when the cluster cannot complete a submission."""


@dataclass
class _Worker:
    """Registry entry for one connected worker."""

    worker_id: int
    transport: Transport
    alive: bool = True
    ready: bool = False           # has acked the current submission's context
    task: object | None = None    # (submission, index) currently assigned
    context_pending: object | None = None  # context deferred while busy
    context_deferred_at: float = 0.0       # when the deferral started
    failure_counted: bool = False
    last_seen: float = field(default_factory=time.monotonic)
    last_ping: float = 0.0
    self_id: str | None = None    # worker's self-reported host:pid identity


@dataclass
class _TraceState:
    """Per-submission bookkeeping for distributed trace stitching.

    Lives only while a traced submission runs (ambient span present and
    the registry enabled); an untraced submission pays nothing — task
    frames keep their exact 3-tuple shape.
    """

    context: dict                                      # wire trace context
    dispatch_at: dict[int, float] = field(default_factory=dict)
    # task_key -> (worker id the accepted result came from, dispatch→result
    # gap in seconds); filled when a result lands, consumed when the
    # trailing task_span frame from the same worker arrives.
    awaiting: dict[object, tuple[int, float]] = field(default_factory=dict)
    children: dict[object, dict] = field(default_factory=dict)


class ClusterCoordinator:
    """Schedule work units over registered workers; recover from failures.

    Parameters
    ----------
    task_timeout:
        Seconds before an outstanding task is re-issued to an idle worker
        (``None`` disables straggler re-issue; worker *death* always
        requeues).
    heartbeat_interval:
        Seconds between pings to idle workers during a submission.
    heartbeat_timeout:
        Silence threshold after which a pinged idle worker is declared dead.
    context_timeout:
        Silence threshold for a worker that has not yet acked a broadcast
        context.  Such workers cannot answer pings (a single-threaded loop
        unpickling a large context is deaf), so the ordinary heartbeat
        timeout would shoot every worker on a big transfer; this separate,
        much longer bound still catches a frozen machine or blackholed
        link, where no EOF ever arrives (``None`` disables it).  It also
        bounds each frame send on sockets accepted via
        :meth:`accept_workers`, so a peer that stops draining its receive
        buffer cannot hang the broadcast loop itself.
    """

    def __init__(
        self,
        task_timeout: float | None = None,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 10.0,
        context_timeout: float | None = 60.0,
    ) -> None:
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if context_timeout is not None and context_timeout <= 0:
            raise ValueError("context_timeout must be positive (or None)")
        self.task_timeout = task_timeout
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.context_timeout = context_timeout
        self.reissued_tasks = 0
        self.failed_workers = 0
        self._workers: dict[int, _Worker] = {}
        self._inbox: "queue.Queue[tuple[int, object]]" = queue.Queue()
        self._next_worker_id = itertools.count()
        self._submission_counter = itertools.count()
        # Submissions are serialized: the scheduling loop assumes it is the
        # only consumer of the inbox and the only writer of worker.task, so
        # concurrent submit() calls — e.g. the serving layer folding delta
        # tiles for two tenants from different executor threads — queue
        # here instead of interleaving.
        self._submit_lock = threading.Lock()
        # Last transport byte totals pushed to the cumulative byte counters
        # (deltas only: dead-worker removal can shrink the live sums).
        self._bytes_metrics_lock = threading.Lock()
        self._bytes_sent_reported = 0
        self._bytes_received_reported = 0
        # Latest metrics_pull snapshot per registry worker id, with the
        # monotonic receive stamp that turns into the staleness age.
        self._metrics_lock = threading.Lock()
        self._worker_metrics: dict[int, dict] = {}
        self._log = get_logger()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    @property
    def n_alive(self) -> int:
        """Workers currently believed alive."""
        return sum(1 for worker in self._workers.values() if worker.alive)

    @property
    def bytes_received(self) -> int:
        """Payload bytes received from all workers (results, pongs, acks)."""
        return sum(w.transport.bytes_received for w in self._workers.values())

    @property
    def bytes_sent(self) -> int:
        """Payload bytes sent to all workers (contexts, tasks, pings)."""
        return sum(w.transport.bytes_sent for w in self._workers.values())

    def add_worker(self, transport: Transport) -> int:
        """Register a connected worker; returns its registry id."""
        worker_id = next(self._next_worker_id)
        worker = _Worker(worker_id, transport)
        self._workers[worker_id] = worker
        thread = threading.Thread(
            target=self._reader, args=(worker,), daemon=True,
            name=f"cluster-reader-{worker_id}",
        )
        self._threads.append(thread)
        thread.start()
        return worker_id

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Open the coordinator's accept socket; returns ``(host, port)``."""
        if self._listener is not None:
            raise ClusterError("coordinator is already listening")
        self._listener = listen_socket(host, port)
        bound_host, bound_port = self._listener.getsockname()[:2]
        return bound_host, bound_port

    def accept_workers(self, count: int, timeout: float = 30.0) -> list[int]:
        """Accept ``count`` socket workers on the listening address."""
        if self._listener is None:
            raise ClusterError("call listen() before accept_workers()")
        deadline = time.monotonic() + timeout
        accepted: list[int] = []
        for _ in range(count):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError(
                    f"only {len(accepted)} of {count} workers connected "
                    f"within {timeout} seconds"
                )
            self._listener.settimeout(remaining)
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                raise ClusterError(
                    f"only {len(accepted)} of {count} workers connected "
                    f"within {timeout} seconds"
                ) from None
            # context_timeout doubles as the send bound: a frozen peer stops
            # draining its receive buffer, and an unbounded sendall on a big
            # context frame would hang the broadcast loop before the
            # heartbeat machinery ever gets to run.
            accepted.append(
                self.add_worker(
                    SocketTransport(sock, send_timeout=self.context_timeout)
                )
            )
        return accepted

    @property
    def worker_ids(self) -> list[int]:
        """Registry ids of the workers currently alive."""
        return [w.worker_id for w in self._workers.values() if w.alive]

    def disconnect_worker(self, worker_id: int) -> None:
        """Sever one worker's link (chaos/testing hook).

        From the scheduler's point of view this is indistinguishable from
        the worker machine dying: the reader thread observes EOF, the
        worker is declared dead and its in-flight task is re-issued.
        """
        self._workers[worker_id].transport.close()

    def _worker_label(self, worker_id: int) -> str:
        """Metric label for a worker id — ``_unknown`` past deregistration."""
        return str(worker_id) if worker_id in self._workers else "_unknown"

    def worker_stats(self) -> list[dict]:
        """Per-worker health for the serve layer's ``stats`` op."""
        now = time.monotonic()
        return [
            {
                "worker": worker.worker_id,
                "self_id": worker.self_id,
                "alive": worker.alive,
                "last_seen_age_seconds": round(now - worker.last_seen, 3),
                "inflight_task": (
                    None if worker.task is None else list(worker.task)
                ),
                "bytes_sent": worker.transport.bytes_sent,
                "bytes_received": worker.transport.bytes_received,
            }
            for worker in self._workers.values()
        ]

    def _store_worker_metrics(self, worker_id: int, payload: object) -> None:
        """Cache one worker's metrics snapshot (from a ``metrics`` frame)."""
        if not isinstance(payload, Mapping):
            return
        worker = self._workers.get(worker_id)
        if worker is not None and payload.get("worker"):
            worker.self_id = str(payload["worker"])
        with self._metrics_lock:
            self._worker_metrics[worker_id] = {
                "payload": dict(payload),
                "received_at": time.monotonic(),
            }

    def pull_metrics(self, timeout: float = 1.0) -> list[dict]:
        """Best-effort snapshot of every live worker's metrics registry.

        Sends a ``metrics_pull`` frame to each alive, idle worker and
        collects the replies for up to ``timeout`` seconds — but never
        blocks behind a running submission: if the scheduling loop holds
        the submit lock (a fold in flight owns the inbox), the previously
        cached snapshots are returned as-is, each stamped with its
        ``age_seconds`` so the scrape shows exactly how stale it is.
        Dead workers are skipped and their stale snapshots dropped (the
        gap is logged, never raised).  With the obs registry disabled this
        is a no-op returning ``[]`` — no frames are sent at all.
        """
        if not get_registry().enabled:
            return []
        if self._submit_lock.acquire(blocking=False):
            try:
                self._pull_locked(timeout)
            finally:
                self._submit_lock.release()
        with self._metrics_lock:
            for worker_id in list(self._worker_metrics):
                worker = self._workers.get(worker_id)
                if worker is None or not worker.alive:
                    del self._worker_metrics[worker_id]
                    self._log.warning(
                        "worker_metrics_dropped", worker=worker_id,
                        reason="worker dead",
                    )
            now = time.monotonic()
            snapshots = []
            for worker_id, entry in sorted(self._worker_metrics.items()):
                payload = dict(entry["payload"])
                payload["age_seconds"] = round(now - entry["received_at"], 3)
                payload["registry_worker_id"] = worker_id
                snapshots.append(payload)
        return snapshots

    def _pull_locked(self, timeout: float) -> None:
        """Round-trip metrics_pull frames while owning the inbox."""
        nonce = time.monotonic()
        waiting: set[int] = set()
        for worker in self._workers.values():
            if worker.alive and worker.task is None:
                if self._send(worker, ("metrics_pull", nonce)):
                    waiting.add(worker.worker_id)
        deadline = time.monotonic() + timeout
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                worker_id, message = self._inbox.get(timeout=remaining)
            except queue.Empty:
                break
            worker = self._workers[worker_id]
            worker.last_seen = time.monotonic()
            kind = message[0]
            if kind == "metrics":
                self._store_worker_metrics(worker_id, message[2])
                waiting.discard(worker_id)
            elif kind == "dead":
                self._mark_dead(worker)
                waiting.discard(worker_id)
            elif kind == "result":
                # A stale straggler result: resolve so shm never leaks.
                resolve_result(message[2])
                if worker.task == message[1]:
                    worker.task = None
            elif kind == "error":
                if message[1] is not None and worker.task == message[1]:
                    worker.task = None

    def _reader(self, worker: _Worker) -> None:
        """Per-worker pump: frames (and the death notice) into the inbox.

        The thread flips ``alive`` itself so the scheduler stops assigning
        to a corpse immediately; the bookkeeping (failure count, requeue of
        the in-flight task) happens when the ``dead`` event is consumed.
        """
        while True:
            try:
                message = worker.transport.recv()
            except TransportError as error:
                worker.alive = False
                self._inbox.put((worker.worker_id, ("dead", str(error))))
                return
            self._inbox.put((worker.worker_id, message))

    def _mark_dead(self, worker: _Worker) -> None:
        worker.alive = False
        if not worker.failure_counted:
            worker.failure_counted = True
            self.failed_workers += 1
        try:
            worker.transport.close()
        except Exception:
            pass

    def _send(self, worker: _Worker, message: object) -> bool:
        """Send, demoting the worker to dead on a broken link."""
        try:
            worker.transport.send(message)
            return True
        except TransportError as error:
            if worker.alive:
                worker.alive = False
                self._inbox.put((worker.worker_id, ("dead", f"send failed: {error}")))
            return False

    def ping(self, timeout: float = 5.0) -> int:
        """Round-trip a heartbeat to every idle worker; returns live count.

        Workers that fail to answer within ``timeout`` are declared dead.
        Busy workers (a task still in flight from an earlier submission's
        re-issue) are skipped; stale results arriving meanwhile are
        resolved so shared-memory segments never leak.
        """
        nonce = time.monotonic()
        waiting: set[int] = set()
        for worker in self._workers.values():
            if worker.alive and worker.task is None:
                if self._send(worker, ("ping", nonce)):
                    waiting.add(worker.worker_id)
        deadline = time.monotonic() + timeout
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                worker_id, message = self._inbox.get(timeout=remaining)
            except queue.Empty:
                break
            worker = self._workers[worker_id]
            worker.last_seen = time.monotonic()
            if message[0] == "pong" and message[1] == nonce:
                waiting.discard(worker_id)
            elif message[0] == "dead":
                self._mark_dead(worker)
                waiting.discard(worker_id)
            elif message[0] == "result":
                resolve_result(message[2])
                if worker.task == message[1]:
                    worker.task = None
            elif message[0] == "metrics":
                self._store_worker_metrics(worker_id, message[2])
            elif message[0] == "error":
                # A stale straggler failing after its submission already
                # returned; swallowing the frame without clearing the task
                # would wedge the worker as busy-forever.  task_key=None is
                # a protocol complaint, not a task error — don't let
                # None == None take the clear-task path for it.
                if message[1] is not None and worker.task == message[1]:
                    worker.task = None
        for worker_id in waiting:
            self._mark_dead(self._workers[worker_id])
        return self.n_alive

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def submit(
        self,
        context: object,
        tasks: list[object],
        weights: list[int] | None = None,
    ) -> list[object]:
        """Run ``context.run(task)`` for every task; results in task order.

        ``weights`` (e.g. shard pair counts) order the hand-out
        largest-first, so the heaviest work units start earliest and the
        tail of the schedule stays short.  Raises :class:`ClusterError`
        when every worker dies before the work completes, or when a task
        fails with a worker-side exception (an ``error`` frame — those are
        not retried: the task would fail identically everywhere).

        Thread-safe: concurrent calls from different threads run one at a
        time (whole submissions, in lock-acquisition order).
        """
        if not tasks:
            return []
        if weights is not None and len(weights) != len(tasks):
            raise ValueError("weights must align with tasks")
        submit_start = time.perf_counter()
        try:
            with self._submit_lock:
                return self._submit_locked(context, tasks, weights)
        finally:
            elapsed = time.perf_counter() - submit_start
            obs_metrics.CLUSTER_SUBMIT_SECONDS.observe(elapsed)
            with self._bytes_metrics_lock:
                sent, received = self.bytes_sent, self.bytes_received
                obs_metrics.CLUSTER_BYTES_SENT.inc(
                    max(0, sent - self._bytes_sent_reported)
                )
                obs_metrics.CLUSTER_BYTES_RECEIVED.inc(
                    max(0, received - self._bytes_received_reported)
                )
                self._bytes_sent_reported = sent
                self._bytes_received_reported = received
            span = obs_spans.current()
            if span is not None:
                # Nested inside the caller's fold segment — detail, not a
                # top-level segment, so span sums stay disjoint.
                span.add_detail("cluster_submit", elapsed)

    def _submit_locked(
        self,
        context: object,
        tasks: list[object],
        weights: list[int] | None,
    ) -> list[object]:
        if self.n_alive == 0:
            raise ClusterError("no alive workers registered")
        submission = next(self._submission_counter)

        # Distributed tracing engages only when the caller's span is
        # ambient *and* the obs gate is open: untraced (or REPRO_OBS=0)
        # submissions ship byte-identical 3-tuple task frames and the
        # workers never serialize a span.
        span = obs_spans.current()
        trace = (
            _TraceState(context=span.wire_context())
            if span is not None and get_registry().enabled
            else None
        )

        # Broadcast the context; workers ack with ("ready",).  The loop is
        # serial, so with several simultaneously frozen peers the worst
        # case is one send_timeout *each* before their sends give up —
        # bounded, unlike the hang an unbounded send would be.
        for worker in self._workers.values():
            if worker.alive:
                worker.ready = False
                worker.context_pending = None  # drop any stale deferral
                if worker.task is not None:
                    # Busy with a prior submission's straggler duplicate:
                    # its single-threaded loop will not drain the socket
                    # until the shard finishes, so a bounded send could
                    # falsely kill a healthy worker (and an unbounded one
                    # could hang on a frozen peer).  Deliver the context
                    # when the stale result clears the task instead.
                    worker.context_pending = context
                    worker.context_deferred_at = time.monotonic()
                elif self._send(worker, ("context", context)):
                    worker.last_seen = time.monotonic()

        order = sorted(
            range(len(tasks)),
            key=(lambda i: -weights[i]) if weights is not None else (lambda i: i),
        )
        pending: deque[int] = deque(order)
        queued = set(order)          # indices currently waiting in `pending`
        done: dict[int, object] = {}
        deadlines: dict[int, float] = {}  # straggler deadline per live index

        try:
            while len(done) < len(tasks):
                self._assign(
                    submission, tasks, pending, queued, done, deadlines, trace
                )
                try:
                    worker_id, message = self._inbox.get(timeout=0.05)
                except queue.Empty:
                    # Only with the inbox drained can "no workers" mean
                    # failure: a worker that died right after sending the
                    # final result enqueues that result *before* its death
                    # notice.
                    if self.n_alive == 0:
                        raise ClusterError(
                            f"all workers died with {len(tasks) - len(done)} "
                            "tasks unfinished"
                        ) from None
                else:
                    self._handle(
                        submission, worker_id, message, pending, queued, done,
                        deadlines, trace,
                    )
                    while True:  # drain the backlog without blocking
                        try:
                            worker_id, message = self._inbox.get_nowait()
                        except queue.Empty:
                            break
                        self._handle(
                            submission, worker_id, message, pending, queued,
                            done, deadlines, trace,
                        )
                self._check_stragglers(pending, queued, done, deadlines)
                self._heartbeat()
            if trace is not None:
                self._collect_trailing_spans(
                    submission, trace, pending, queued, done, deadlines
                )
        finally:
            # An undelivered deferred context is dead weight once this
            # submission is over (it can pin the largest object in the
            # system); the next submission re-broadcasts its own.
            for worker in self._workers.values():
                worker.context_pending = None

        if trace is not None:
            span = obs_spans.current()
            if span is not None:
                for task_key in sorted(trace.children):
                    span.add_child(trace.children[task_key])

        return [done[index] for index in range(len(tasks))]

    def _collect_trailing_spans(
        self, submission, trace, pending, queued, done, deadlines
    ) -> None:
        """Wait briefly for task_span frames still in flight.

        A worker sends its span *after* the result frame it describes (the
        span's serialize/send segments time that frame), so the last
        result of a submission can land with its span still on the wire.
        The stream is ordered per worker, so one short drain collects the
        stragglers; spans from dead workers are abandoned — traces are
        best-effort, results are not.
        """
        deadline = time.monotonic() + 2.0
        while True:
            missing = {
                key
                for key, (worker_id, _) in trace.awaiting.items()
                if key not in trace.children
                and worker_id in self._workers
                and self._workers[worker_id].alive
            }
            if not missing:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._log.warning(
                    "trace_spans_missing", submission=submission,
                    missing=len(missing),
                )
                return
            try:
                worker_id, message = self._inbox.get(timeout=remaining)
            except queue.Empty:
                continue
            self._handle(
                submission, worker_id, message, pending, queued, done,
                deadlines, trace,
            )

    def _assign(
        self, submission, tasks, pending, queued, done, deadlines, trace=None
    ) -> None:
        for worker in self._workers.values():
            while pending and worker.alive and worker.ready and worker.task is None:
                index = pending.popleft()
                queued.discard(index)
                if index in done:
                    continue  # a re-issued task whose original already landed
                frame = (
                    ("task", (submission, index), tasks[index])
                    if trace is None
                    else ("task", (submission, index), tasks[index], trace.context)
                )
                if trace is not None:
                    # Stamped *before* the send so the task frame's own
                    # serialize+transit lands inside the dispatch→result
                    # gap.  Re-issues overwrite the stamp (the gap is then
                    # measured from the latest dispatch) and a failed send
                    # leaves a stale stamp the re-issue also overwrites.
                    trace.dispatch_at[index] = time.monotonic()
                if self._send(worker, frame):
                    worker.task = (submission, index)
                    obs_metrics.CLUSTER_DISPATCHED.inc_labels(worker.worker_id)
                    if self.task_timeout is not None:
                        deadlines[index] = time.monotonic() + self.task_timeout
                else:
                    # The link broke between the alive check and the write;
                    # the dead-event bookkeeping sees ``task is None`` and
                    # requeues nothing, so restore the index ourselves or
                    # the task is lost and the submission hangs.
                    pending.appendleft(index)
                    queued.add(index)
            if not pending:
                return

    def _handle(
        self, submission, worker_id, message, pending, queued, done, deadlines,
        trace=None,
    ) -> None:
        worker = self._workers[worker_id]
        worker.last_seen = time.monotonic()
        kind = message[0]
        if kind == "ready":
            worker.ready = True
        elif kind == "pong":
            pass
        elif kind == "result":
            _, task_key, payload = message
            via_shm = isinstance(payload, ShmPartial)
            # Resolve (and for shm: attach + unlink) before any dedup — a
            # discarded duplicate must still release its segment.
            payload = resolve_result(payload)
            obs_metrics.CLUSTER_RESULTS.inc_labels(
                self._worker_label(worker_id), "shm" if via_shm else "pipe"
            )
            if worker.task == task_key:
                worker.task = None
                self._deliver_pending_context(worker)
            their_submission, index = task_key
            if their_submission == submission and index not in done:
                done[index] = payload
                deadlines.pop(index, None)
                if trace is not None:
                    # Dispatch→result as the coordinator saw it; the
                    # worker's wall time arrives with the trailing span,
                    # and the difference is queue + network time.
                    dispatched = trace.dispatch_at.get(index)
                    if dispatched is not None:
                        gap = time.monotonic() - dispatched
                        trace.awaiting[task_key] = (worker_id, gap)
        elif kind == "task_span":
            _, task_key, child = message
            if (
                trace is not None
                and isinstance(child, dict)
                and task_key in trace.awaiting
                and task_key not in trace.children
            ):
                src_worker, gap = trace.awaiting[task_key]
                if src_worker == worker_id:
                    # Stitch the coordinator-side view into the worker's
                    # payload: the gap always contains the wall time, so
                    # queue_network is the cross-wire remainder.
                    wall = float(child.get("wall_seconds", 0.0))
                    child["dispatch_gap_seconds"] = round(gap, 9)
                    child["queue_network_seconds"] = round(max(0.0, gap - wall), 9)
                    child["coordinator_worker_id"] = worker_id
                    trace.children[task_key] = child
            if isinstance(child, dict) and child.get("worker"):
                worker.self_id = str(child["worker"])
        elif kind == "metrics":
            self._store_worker_metrics(worker_id, message[2])
        elif kind == "error":
            _, task_key, info = message
            if isinstance(info, Mapping):
                summary = str(info.get("error", ""))
                text = str(info.get("traceback") or summary)
                if info.get("worker"):
                    worker.self_id = str(info["worker"])
            else:  # a pre-structured (plain string) error frame
                summary = str(info).strip().splitlines()[-1] if info else ""
                text = str(info)
            if task_key is None:
                # A protocol-level complaint (unknown frame kind), not a
                # task failure: nothing to unpack or requeue.
                raise ClusterError(
                    f"protocol error from worker {worker_id}: {summary or text}"
                )
            if worker.task == task_key:
                worker.task = None
                self._deliver_pending_context(worker)
            their_submission, index = task_key
            # Stale frames — a previous submission's abandoned straggler, or
            # a current task whose re-issued twin already landed — must not
            # abort healthy work; only a live failure of *this* submission
            # is fatal (it would fail identically on every worker).
            stale = their_submission != submission or index in done
            self._log.log(
                "warning" if stale else "error",
                "worker_task_failed",
                worker=worker_id, worker_self=worker.self_id,
                task=list(task_key), error=summary, stale=stale,
            )
            if not stale:
                raise ClusterError(f"task failed on worker {worker_id}:\n{text}")
        elif kind == "dead":
            in_flight = worker.task
            worker.task = None
            worker.context_pending = None
            self._mark_dead(worker)
            if in_flight is not None:
                their_submission, index = in_flight
                if their_submission == submission and index not in done and index not in queued:
                    pending.appendleft(index)
                    queued.add(index)
                    obs_metrics.CLUSTER_REQUEUED.inc()

    def _deliver_pending_context(self, worker: _Worker) -> None:
        """Send the context deferred while the worker was busy, if any."""
        if worker.context_pending is not None and worker.alive:
            context = worker.context_pending
            worker.context_pending = None
            if self._send(worker, ("context", context)):
                worker.last_seen = time.monotonic()

    def _check_stragglers(self, pending, queued, done, deadlines) -> None:
        """Requeue overdue in-flight tasks for a second, parallel issue."""
        if self.task_timeout is None:
            return
        now = time.monotonic()
        for worker in self._workers.values():
            if not worker.alive or worker.task is None:
                continue
            _, index = worker.task
            deadline = deadlines.get(index)
            if (
                deadline is not None
                and now > deadline
                and index not in done
                and index not in queued
            ):
                pending.append(index)
                queued.add(index)
                self.reissued_tasks += 1
                obs_metrics.CLUSTER_REISSUED.inc()
                deadlines[index] = now + self.task_timeout

    def _heartbeat(self) -> None:
        now = time.monotonic()
        for worker in self._workers.values():
            if not worker.alive:
                continue
            if worker.task is not None:
                # Busy workers are exempt from health checks — except one
                # still holding a *deferred* context: its shard belongs to
                # a finished submission, so if it stays silent past
                # context_timeout it may be frozen, and as the last worker
                # standing it would otherwise hang the submission with no
                # bound at all.  (A healthy worker legitimately crunching a
                # stale shard that long loses only spare capacity.)
                if (
                    worker.context_pending is not None
                    and self.context_timeout is not None
                    and now - worker.context_deferred_at > self.context_timeout
                ):
                    worker.context_pending = None
                    self._mark_dead(worker)
                continue
            if not worker.ready:
                # Still receiving/unpickling the broadcast context: deaf to
                # pings, so the ordinary heartbeat timeout would kill it
                # mid-transfer.  Only the (long) context_timeout of silence
                # since the context send declares it dead — that is the one
                # liveness bound for a frozen peer that never sends EOF.
                if (
                    self.context_timeout is not None
                    and now - worker.last_seen > self.context_timeout
                ):
                    self._mark_dead(worker)
                continue
            if (
                worker.last_ping > worker.last_seen
                and now - worker.last_ping > self.heartbeat_timeout
            ):
                # We pinged after the last sign of life and heard nothing.
                self._mark_dead(worker)
            elif now - worker.last_ping > self.heartbeat_interval:
                worker.last_ping = now
                self._send(worker, ("ping", now))

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Ask every worker to exit and close all links."""
        # Release any late straggler results parked in the inbox first —
        # an unresolved shm handle would leak its segment past our exit.
        while True:
            try:
                _, message = self._inbox.get_nowait()
            except queue.Empty:
                break
            if message[0] == "result":
                try:
                    resolve_result(message[2])
                except Exception:
                    pass
        for worker in self._workers.values():
            if worker.alive:
                self._send(worker, ("shutdown",))
            try:
                worker.transport.close()
            except Exception:
                pass
            worker.alive = False
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
