"""The asyncio violation-serving server.

:class:`ViolationServer` turns the incremental subsystem's libraries —
:class:`~repro.incremental.store.EvidenceStore` +
:class:`~repro.incremental.serve.ViolationService` — into a multi-tenant
network service: one store per dataset name, a length-prefixed JSON
protocol (:mod:`repro.serve.protocol`), and two mechanisms that make it a
server rather than an RPC shim:

* **Coalesced appends** — concurrent ``append`` requests against one store
  flow through an :class:`~repro.serve.scheduler.AppendScheduler` and
  commit as one delta-tile fold per flush window.
* **Push-based counters** — every store with installed constraints carries
  :class:`~repro.serve.counters.ViolationCounters` maintained from each
  committed delta, so ``violations``/``report``/``check_batch`` never
  finalize evidence.  Read latency is independent of how much has been
  appended since the last finalize.

Every op is declared once, in :data:`repro.serve.protocol.OPS`: its
fields, whether it needs a store or installed constraints, where it runs,
and whether it answers during a drain.  The dispatcher resolves all of
that from the table and calls the op's ``_op_<name>`` handler with the
parsed values.

The heavyweight ops (``violating_pairs``, ``tuple_scores``, ``remine``)
run on the store's *cached finalized snapshot* — ``EvidenceStore`` already
caches ``evidence()`` and invalidates it on append — inside a worker
executor, under a per-store async lock, so the event loop never stalls and
reads never race a commit.  Each connection gets a bounded request queue
(backpressure stops the frame reader, slowing the peer instead of growing
the server), per-request error frames, and :meth:`ViolationServer.stop`
drains gracefully: pending appends commit, in-flight requests answer, then
connections close.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import re
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.dc import DenialConstraint
from repro.core.operators import Operator
from repro.core.predicates import Predicate, PredicateForm
from repro.data.relation import Relation
from repro.durability.journal import (
    DEFAULT_SNAPSHOT_BYTES,
    DedupWindow,
    RecoveryError,
    StoreJournal,
    plain_rows,
    relation_types,
)
from repro.incremental.serve import ViolationService
from repro.incremental.store import EvidenceStore
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.federate import render_federated
from repro.obs.httpd import MetricsHTTPServer
from repro.obs.logging import get_logger
from repro.obs.prometheus import render_text
from repro.obs.registry import get_registry as obs_get_registry
from repro.obs.spans import Span
from repro.serve import protocol
from repro.serve.counters import ViolationCounters
from repro.serve.protocol import RequestError
from repro.serve.scheduler import AppendScheduler

#: Per-connection pipelining bound: frames parked awaiting dispatch before
#: the reader stops pulling from the socket.
MAX_PIPELINE = 64

#: Worker threads for blocking store work; at least 2 so one tenant's fold
#: cannot starve another's snapshot query.
EXECUTOR_THREADS = 4

#: Requests slower than this are counted in ``repro_serve_slow_ops_total``
#: and logged (with the span's segment breakdown when traced).
SLOW_OP_SECONDS = 1.0

#: Durable store names double as directory names, so they must be safe to
#: join onto ``data_dir`` (no separators, no leading dot).
_STORE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


def constraint_specs(
    constraints: Sequence[object],
) -> list[list[dict[str, str]]]:
    """The wire/journal form of a constraint list (mined ADCs or plain DCs).

    The inverse of :func:`parse_predicate`, applied per predicate — what
    the journal replays through ``declare`` semantics at recovery.
    """
    specs: list[list[dict[str, str]]] = []
    for entry in constraints:
        dc = getattr(entry, "constraint", entry)  # DiscoveredADC unwraps
        specs.append([
            {
                "left": predicate.left_column,
                "op": predicate.operator.value,
                "right": predicate.right_column,
                "form": predicate.form.value,
            }
            for predicate in dc.predicates
        ])
    return specs


class StoreState:
    """Everything the server holds for one tenant store."""

    def __init__(self, name: str, store: EvidenceStore, scheduler: AppendScheduler,
                 lock: asyncio.Lock,
                 journal: StoreJournal | None = None,
                 dedup: DedupWindow | None = None) -> None:
        self.name = name
        self.store = store
        self.scheduler = scheduler
        self.lock = lock
        self.journal = journal
        self.dedup = dedup
        self.recovery: dict[str, object] | None = None
        self.service: ViolationService | None = None
        self.counters: ViolationCounters | None = None

    def close(self) -> None:
        """Release everything that outlives a plain ``del`` (drop path).

        The counters' append listener keeps the state alive through the
        store's listener list, and the journal keeps the WAL file handle
        open — both must be detached explicitly or a dropped tenant leaks.
        """
        if self.counters is not None:
            self.counters.detach()
            self.counters = None
        self.service = None
        if self.journal is not None:
            self.journal.close()


def parse_predicate(spec: Mapping[str, object]) -> Predicate:
    """Build a :class:`Predicate` from its wire form.

    The wire form mirrors the dataclass: ``{"left": "Income", "op": "<=",
    "right": "Tax", "form": "two_tuple_cross_column"}`` (``form`` defaults
    to the same-column two-tuple shape when the columns match).
    """
    try:
        left = str(spec["left"])
        right = str(spec["right"])
        operator = Operator(str(spec["op"]))
    except (KeyError, ValueError) as error:
        raise RequestError(
            protocol.BAD_REQUEST, f"bad predicate {spec!r}: {error}"
        ) from error
    form_text = spec.get("form")
    if form_text is None:
        form = (
            PredicateForm.TWO_TUPLE_SAME_COLUMN
            if left == right
            else PredicateForm.TWO_TUPLE_CROSS_COLUMN
        )
    else:
        try:
            form = PredicateForm(str(form_text))
        except ValueError as error:
            raise RequestError(
                protocol.BAD_REQUEST, f"unknown predicate form {form_text!r}"
            ) from error
    try:
        return Predicate(left, operator, right, form)
    except ValueError as error:
        raise RequestError(protocol.BAD_REQUEST, str(error)) from error


class ViolationServer:
    """Multi-tenant async front-end over evidence stores.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` lets the OS pick (read
        :attr:`address` after :meth:`start`).
    flush_window:
        Append-coalescing window per store (seconds; see
        :class:`~repro.serve.scheduler.AppendScheduler`).
    cluster:
        Optional :class:`~repro.cluster.coordinator.ClusterCoordinator` or
        :class:`~repro.cluster.local.LocalCluster`; tenant folds then run
        over the cluster's workers (coordinator submissions are
        thread-safe, so tenants share it across executor threads).
    max_frame_bytes:
        Refusal bound for a single request/response frame.
    data_dir:
        Optional durability root.  When set, every tenant store journals
        to ``data_dir/<name>/`` — appends are written ahead of every
        acknowledgment, snapshots bound the log, and :meth:`start`
        recovers every journaled tenant (bit-identically) before the
        server accepts connections.
    fsync:
        WAL fsync policy for tenant journals (``always``/``commit``/
        ``never``; see :class:`~repro.durability.wal.WriteAheadLog`).
    snapshot_every_bytes:
        WAL size that triggers per-tenant snapshot compaction.
    max_stores:
        Optional cap on live tenant stores (``quota_exceeded`` past it).
    max_rows_per_store:
        Optional per-tenant row quota, enforced by each store's
        append scheduler.
    metrics_port:
        When set, a stdlib HTTP listener on ``(host, metrics_port)``
        serves the process metrics registry in Prometheus text
        exposition (``GET /metrics``); ``0`` lets the OS pick (read
        :attr:`metrics_address` after :meth:`start`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        flush_window: float = 0.0,
        cluster: object | None = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        data_dir: str | Path | None = None,
        fsync: str = "commit",
        snapshot_every_bytes: int = DEFAULT_SNAPSHOT_BYTES,
        max_stores: int | None = None,
        max_rows_per_store: int | None = None,
        metrics_port: int | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.flush_window = float(flush_window)
        self.cluster = cluster
        self.max_frame_bytes = int(max_frame_bytes)
        self.data_dir = None if data_dir is None else Path(data_dir)
        self.fsync = str(fsync)
        self.snapshot_every_bytes = int(snapshot_every_bytes)
        self.max_stores = None if max_stores is None else int(max_stores)
        self.max_rows_per_store = (
            None if max_rows_per_store is None else int(max_rows_per_store)
        )
        self.metrics_port = None if metrics_port is None else int(metrics_port)
        self._metrics_httpd: MetricsHTTPServer | None = None
        self._log = get_logger()
        self.recovery_failures: dict[str, str] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS,
            thread_name_prefix="repro-serve",
        )
        self._stores: dict[str, StoreState | None] = {}  # None = being created
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._stopping = False
        self._stopped = asyncio.Event()
        self._started_at = time.monotonic()
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        With ``data_dir`` set, every journaled tenant is recovered *before*
        the listening socket opens, so the first client request already
        sees the restored stores.  A tenant whose journal cannot be
        recovered is reported in ``recovery_failures`` (and ``stats``)
        instead of taking the whole server down — its directory is left
        untouched for inspection.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.data_dir is not None:
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self._recover_all
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        if self.metrics_port is not None:
            self._metrics_httpd = MetricsHTTPServer(
                obs_get_registry(), self.host, self.metrics_port,
                collect=self._collect_exposition,
                health=self._health_info,
            )
            await self._metrics_httpd.start()
            self._log.info(
                "metrics_listening",
                host=self._metrics_httpd.host, port=self._metrics_httpd.port,
            )
        self._log.info(
            "server_listening", host=self.host, port=self.port,
            stores=sorted(k for k, v in self._stores.items() if v is not None),
            durable=self.data_dir is not None,
        )
        return self.host, self.port

    def _recover_all(self) -> None:
        """Recover every tenant journal under ``data_dir`` (executor)."""
        self.data_dir.mkdir(parents=True, exist_ok=True)
        for child in sorted(self.data_dir.iterdir()):
            if not child.is_dir():
                continue
            try:
                recovered = StoreJournal.recover(
                    child,
                    fsync=self.fsync,
                    snapshot_every_bytes=self.snapshot_every_bytes,
                    cluster=self.cluster,
                )
            except RecoveryError as error:
                self.recovery_failures[child.name] = str(error)
                obs_metrics.RECOVERY_STORES.inc_labels("failed")
                self._log.error(
                    "recovery_failed", store=child.name, error=str(error)
                )
                continue
            state = self._new_state(
                recovered.name, recovered.store, recovered.journal,
                recovered.dedup_entries,
            )
            state.recovery = recovered.stats.jsonable()
            if recovered.constraint_specs:
                try:
                    constraints = [
                        DenialConstraint(parse_predicate(p) for p in spec)
                        for spec in recovered.constraint_specs
                    ]
                    epsilon = recovered.epsilon
                    self._install_constraints(
                        state, constraints, 0.01 if epsilon is None else epsilon,
                        source=recovered.constraint_source or "declared",
                        journal=False,  # replaying, not a new declaration
                    )
                except Exception as error:  # noqa: BLE001 - keep the data
                    recovered.journal.close()
                    self.recovery_failures[child.name] = (
                        f"constraints failed to reinstall: {error}"
                    )
                    obs_metrics.RECOVERY_STORES.inc_labels("failed")
                    self._log.error(
                        "recovery_failed", store=child.name,
                        error=f"constraints failed to reinstall: {error}",
                    )
                    continue
            self._stores[recovered.name] = state
            obs_metrics.RECOVERY_STORES.inc_labels("recovered")
            self._log.info(
                "store_recovered", store=recovered.name,
                n_rows=recovered.store.n_rows, **(state.recovery or {}),
            )

    def _new_state(
        self,
        name: str,
        store: EvidenceStore,
        journal: StoreJournal | None,
        dedup_entries: Sequence[Sequence[object]] = (),
    ) -> StoreState:
        """Wrap a built or recovered store in its lock, scheduler and dedup."""
        dedup = DedupWindow()
        dedup.load(dedup_entries)
        lock = asyncio.Lock()
        scheduler = AppendScheduler(
            store, lock, self._executor,
            flush_window=self.flush_window,
            max_rows=self.max_rows_per_store,
            journal=journal, dedup=dedup,
        )
        return StoreState(name, store, scheduler, lock, journal=journal, dedup=dedup)

    @property
    def address(self) -> tuple[str, int]:
        """The bound listen address."""
        return self.host, self.port

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The Prometheus endpoint's ``(host, port)``, if one is serving."""
        if self._metrics_httpd is None:
            return None
        return self._metrics_httpd.address

    def _coordinator(self):
        """The cluster coordinator behind ``cluster=``, if any."""
        if self.cluster is None:
            return None
        from repro.cluster.local import resolve_coordinator

        try:
            return resolve_coordinator(self.cluster)
        except TypeError:
            return None

    def _collect_exposition(self) -> str:
        """Prometheus text for a scrape — federated when cluster-backed.

        Runs in an executor (worker pulls round-trip the cluster links);
        ``pull_metrics`` itself never blocks behind a running fold, so a
        scrape during heavy appends just serves the cached, age-stamped
        worker snapshots.
        """
        registry = obs_get_registry()
        coordinator = self._coordinator()
        if coordinator is None or not registry.enabled:
            return render_text(registry)
        return render_federated(registry, coordinator.pull_metrics(timeout=0.5))

    def _health_info(self) -> dict:
        """The ``/healthz`` body: liveness plus recovery state."""
        return {
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "stores": sum(1 for v in self._stores.values() if v is not None),
            "requests_served": self.requests_served,
            "recovery_failures": len(self.recovery_failures),
        }

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` completes (the ``__main__`` loop)."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful drain: commit pending appends, answer in-flight, close.

        New requests arriving during the drain are answered with a
        ``shutting_down`` error frame rather than dropped; pending append
        flushes commit (nothing acknowledged is ever lost), then every
        connection closes and the executor shuts down.
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_httpd is not None:
            await self._metrics_httpd.stop()
        for state in list(self._stores.values()):
            if state is not None:
                await state.scheduler.drain()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        for state in list(self._stores.values()):
            if state is not None:
                state.close()  # flush handles closed only after the drain
        await asyncio.get_running_loop().run_in_executor(
            None, self._executor.shutdown
        )
        self._stopped.set()

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(asyncio.current_task())
        peer = writer.get_extra_info("peername")
        obs_metrics.SERVE_CONNECTIONS_TOTAL.inc()
        obs_metrics.SERVE_CONNECTIONS.inc()
        self._log.debug("connection_open", peer=peer)
        queue: asyncio.Queue = asyncio.Queue(maxsize=MAX_PIPELINE)
        worker = asyncio.create_task(self._connection_worker(queue, writer))
        try:
            while True:
                header = await reader.readexactly(protocol.HEADER.size)
                length = protocol.frame_length(header, self.max_frame_bytes)
                payload = await reader.readexactly(length)
                # Bounded queue: a full pipeline parks the reader here, so
                # the kernel's receive window throttles the peer.
                await queue.put(protocol.decode_payload(payload))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # clean EOF or peer death: just drain and close
        except protocol.ProtocolError as error:
            await queue.put(error)  # answer once, then the link closes
        except asyncio.CancelledError:
            pass  # server stopping: let queued requests answer first
        finally:
            await queue.put(None)
            try:
                await asyncio.shield(worker)
            except asyncio.CancelledError:
                worker.cancel()
            self._connections.discard(asyncio.current_task())
            obs_metrics.SERVE_CONNECTIONS.dec()
            self._log.debug("connection_closed", peer=peer)

    async def _connection_worker(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one connection's requests in arrival order."""
        try:
            while True:
                message = await queue.get()
                if message is None:
                    break
                if isinstance(message, protocol.ProtocolError):
                    writer.write(protocol.encode_frame(
                        protocol.error_response(None, protocol.BAD_REQUEST, str(message))
                    ))
                    break
                response = await self._dispatch(message)
                writer.write(protocol.encode_frame(response))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # peer died mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, message: dict) -> dict:
        """Route one request; every failure becomes an error frame.

        Every dispatch lands in ``repro_serve_requests_total{op,store,code}``
        and the per-op latency histogram.  A request carrying a ``trace``
        field gets a :class:`~repro.obs.spans.Span`, handed to the ops that
        declare ``trace``; its segment breakdown rides back on the ok
        response under ``"trace"``, with the unattributed serve-path
        remainder reported as the ``ack`` segment.
        """
        request_id = message.get("id")
        op = message.get("op")
        self.requests_served += 1
        started = time.perf_counter()
        op_label = op if isinstance(op, str) else repr(op)
        store_field = message.get("store")
        store_label = store_field if isinstance(store_field, str) else ""
        # Stores the request could legitimately name at arrival time; a
        # drop_store removes the entry before metrics are recorded below,
        # so remember that the name was real.
        store_known = isinstance(store_field, str) and store_field in self._stores
        span: Span | None = None
        trace = message.get("trace")
        if trace:
            trace_id = trace if isinstance(trace, str) else obs_spans.new_trace_id()
            span = Span(trace_id, op=op_label, store=store_label or None)
        code = "ok"
        spec = protocol.OPS.get(op) if isinstance(op, str) else None
        try:
            if spec is None:
                raise RequestError(
                    protocol.UNKNOWN_OP,
                    f"unknown op {op!r}; supported: {sorted(protocol.OPS)}",
                )
            if self._stopping and not spec.drain_safe:
                raise RequestError(protocol.SHUTTING_DOWN, "server is draining")
            fields = await self._run_op(spec, message, span)
            response = protocol.ok_response(request_id, **fields)
        except RequestError as error:
            code, detail = error.code, str(error)
        except protocol.QuotaExceeded as error:
            code, detail = protocol.QUOTA_EXCEEDED, str(error)
        except (KeyError, ValueError, TypeError, IndexError) as error:
            code, detail = protocol.BAD_REQUEST, f"{type(error).__name__}: {error}"
        except Exception as error:  # noqa: BLE001 - must answer, not die
            code, detail = protocol.INTERNAL, f"{type(error).__name__}: {error}"
            self._log.error(
                "request_failed", op=op_label, store=store_label,
                code=code, error=detail,
            )
        if code != "ok":
            response = protocol.error_response(request_id, code, detail)
        duration = time.perf_counter() - started
        # Metric labels must stay low-cardinality: only ops/stores the
        # server actually knows get their own series, everything a client
        # invented collapses into a sentinel (create_store makes the name
        # real by now, hence the second membership check).
        metric_op = op if spec is not None else "_unknown"
        if store_field is None:
            metric_store = ""
        elif store_known or (
            isinstance(store_field, str) and store_field in self._stores
        ):
            metric_store = store_field
        else:
            metric_store = "_unknown"
        obs_metrics.SERVE_REQUESTS.inc_labels(metric_op, metric_store, code)
        obs_metrics.SERVE_REQUEST_SECONDS.observe_labels(
            metric_op, value=duration
        )
        if span is not None:
            span.add_segment("ack", duration - span.accounted())
            trace_payload = span.jsonable()
            trace_payload["seconds"] = round(duration, 9)
            if code == "ok":
                response["trace"] = trace_payload
        if duration >= SLOW_OP_SECONDS:
            obs_metrics.SERVE_SLOW_OPS.inc_labels(metric_op)
            self._log.warning(
                "slow_op", op=op_label, store=store_label, code=code,
                seconds=round(duration, 6),
                segments=None if span is None else span.jsonable()["segments"],
            )
        return response

    async def _run_op(
        self, spec: protocol.Op, message: Mapping[str, object], span: Span | None
    ) -> dict:
        """Resolve one op's store and fields per its table entry, then run it.

        ``_op_<name>`` receives the parsed fields by name, plus ``state``
        (store-bound ops), ``service`` (constraint-bound ops) and ``span``
        (unlocked ops declaring ``trace``; locked ones run inside it).
        Locked handlers are plain functions run on the executor under the
        store lock; the rest are coroutines on the event loop.
        """
        args: dict[str, object] = {}
        state: StoreState | None = None
        if spec.store:
            name = protocol.parse_store_name(message.get("store"))
            state = args["state"] = self._stores.get(name)
            if state is None:  # unknown, or still being created
                raise RequestError(protocol.UNKNOWN_STORE, f"no store named {name!r}")
        if spec.constraints:
            if state.service is None:
                raise RequestError(
                    protocol.NO_CONSTRAINTS,
                    f"store {state.name!r} has no constraints installed; "
                    "run 'remine' or 'declare' first",
                )
            args["service"] = state.service
        for field in spec.fields:
            if field.parse is not None:
                args[field.name] = field.read(message)
        if "dc" in args and not 0 <= args["dc"] < len(state.service.constraints):
            raise RequestError(
                protocol.BAD_REQUEST,
                f"dc index {args['dc']} out of range for "
                f"{len(state.service.constraints)} constraints",
            )
        handler = getattr(self, f"_op_{spec.name}")
        if protocol.TRACE not in spec.fields:
            span = None
        if spec.locked:
            fields = await self._run_locked(
                state, functools.partial(handler, **args), span
            )
        else:
            if protocol.TRACE in spec.fields:
                args["span"] = span
            fields = await handler(**args)
        return fields if state is None else {"store": state.name, **fields}

    async def _run_locked(self, state: StoreState, fn, span: Span | None = None):
        """Run blocking store work on the executor under the store's lock.

        ``span`` (when set) becomes the ambient trace span on the executor
        thread for the duration of ``fn`` — the hop would otherwise drop it.
        """
        async with state.lock:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, obs_spans.bound(span, fn)
            )

    def _install_constraints(
        self,
        state: StoreState,
        constraints: Sequence[object],
        epsilon: float,
        source: str = "declared",
        journal: bool = True,
    ) -> dict[str, object]:
        """Wire a constraint set to a store: service + fresh push counters.

        Runs on the executor (the counter seed is one pass over the stored
        partial).  The service reads its admission base counts from the
        counters, so ``check_batch`` never finalizes either.  With a
        durable store the installed set is journaled (``journal=False``
        only on the recovery path, which is replaying the journal).
        """
        counters_box: list[ViolationCounters] = []
        service = ViolationService(
            state.store,
            constraints,
            epsilon=epsilon,
            base_counts_provider=lambda: counters_box[0].counts(),
        )
        if journal and state.journal is not None:
            # Write-ahead: journal before the swap, so a journal failure
            # leaves the previous constraint set fully live.
            state.journal.log_constraints(
                constraint_specs(service.constraints), epsilon, source
            )
        if state.counters is not None:
            state.counters.detach()  # superseded counters must stop updating
        counters_box.append(ViolationCounters(service.hitting_words, state.store))
        state.service = service
        state.counters = counters_box[0]
        return {
            "constraints": [str(dc) for dc in service.constraints],
            "epsilon": service.epsilon,
        }

    # ------------------------------------------------------------------
    # Ops: one handler per protocol.OPS entry, called by _run_op
    # ------------------------------------------------------------------
    async def _op_ping(self) -> dict:
        return {
            "server": "repro-serve",
            "protocol": protocol.PROTOCOL_VERSION,
            "stores": sorted(k for k, v in self._stores.items() if v is not None),
            "stopping": self._stopping,
        }

    async def _op_create_store(
        self, store: str, rows: list[dict], types: dict
    ) -> dict:
        name = store
        if not rows:
            raise RequestError(
                protocol.BAD_REQUEST, "'rows' must seed at least one row"
            )
        if self.data_dir is not None and not _STORE_NAME.match(name):
            raise RequestError(
                protocol.BAD_REQUEST,
                f"store name {name!r} is not durable-safe: names double as "
                "directory names (letters, digits, '_', '.', '-'; no "
                "leading '.')",
            )
        if name in self._stores:
            raise RequestError(
                protocol.STORE_EXISTS, f"store {name!r} already exists"
            )
        if (
            self.max_stores is not None
            and len(self._stores) >= self.max_stores
        ):
            raise RequestError(
                protocol.QUOTA_EXCEEDED,
                f"server caps live stores at {self.max_stores}",
            )
        if (
            self.max_rows_per_store is not None
            and len(rows) > self.max_rows_per_store
        ):
            raise RequestError(
                protocol.QUOTA_EXCEEDED,
                f"seed of {len(rows)} rows exceeds the "
                f"{self.max_rows_per_store}-row per-store quota",
            )
        # Reserve the name before the (slow) executor build so a racing
        # duplicate create fails instead of building twice.
        self._stores[name] = None

        def build() -> StoreState:
            relation = Relation.from_records(name, rows, types or None)
            evidence_store = EvidenceStore(relation, cluster=self.cluster)
            journal = None
            if self.data_dir is not None:
                # Journal the creation only after the store accepted the
                # rows: a build failure must not leave a journal behind.
                journal = StoreJournal.create(
                    self.data_dir / name, name,
                    plain_rows(relation), relation_types(relation),
                    fsync=self.fsync,
                    snapshot_every_bytes=self.snapshot_every_bytes,
                )
            return self._new_state(name, evidence_store, journal)

        try:
            state = await asyncio.get_running_loop().run_in_executor(
                self._executor, build
            )
        except Exception:
            del self._stores[name]
            raise
        self._stores[name] = state
        return {
            "store": name,
            "n_rows": state.store.n_rows,
            "n_predicates": len(state.store.space),
            "columns": state.store.relation.column_names,
            "durable": state.journal is not None,
        }

    async def _op_drop_store(self, state: StoreState) -> dict:
        await state.scheduler.drain()
        del self._stores[state.name]

        def teardown() -> None:
            state.close()
            if self.data_dir is not None:
                shutil.rmtree(self.data_dir / state.name, ignore_errors=True)

        await asyncio.get_running_loop().run_in_executor(self._executor, teardown)
        return {"dropped": True}

    async def _op_append(
        self, state: StoreState, rows: list[dict], request_key: str | None,
        span: Span | None,
    ) -> dict:
        return await state.scheduler.append(rows, request_key=request_key, span=span)

    def _op_set_epsilon(
        self, state: StoreState, service: ViolationService, epsilon: float
    ) -> dict:
        """Change the served epsilon without re-installing constraints."""
        if state.journal is not None:
            state.journal.log_epsilon(epsilon)  # write-ahead of the swap
        service.epsilon = epsilon
        return {"epsilon": epsilon}

    def _op_remine(
        self, state: StoreState, epsilon: float, function: str,
        max_dc_size: int | None, limit: int | None,
    ) -> dict:
        adcs = state.store.remine(epsilon, function, max_dc_size=max_dc_size)
        if limit is not None:
            adcs = adcs[:limit]
        fields = {**self._install_constraints(state, adcs, epsilon, source="mined"),
                  "mined": len(adcs)}
        stats = state.store.last_enumeration_statistics
        if stats is not None:
            fields["enumeration"] = {
                "recursive_calls": stats.recursive_calls,
                "hit_branches": stats.hit_branches,
                "skip_branches": stats.skip_branches,
                "pruned_by_willcover": stats.pruned_by_willcover,
                "pruned_by_criticality": stats.pruned_by_criticality,
                "minimality_checks": stats.minimality_checks,
                "outputs": stats.outputs,
                "elapsed_seconds": stats.elapsed_seconds,
                "nodes_per_second": stats.nodes_per_second,
                "extra": dict(stats.extra),
            }
        return fields

    def _op_declare(
        self, state: StoreState, constraints: list[list], epsilon: float
    ) -> dict:
        """Install hand-written DCs (each a list of predicate specs)."""
        parsed = [
            DenialConstraint(parse_predicate(p) for p in spec) for spec in constraints
        ]
        space = state.store.space
        for constraint in parsed:
            for predicate in constraint.predicates:
                if predicate not in space:
                    raise RequestError(
                        protocol.BAD_REQUEST,
                        f"predicate {predicate} is outside the store's "
                        f"predicate space",
                    )
        return self._install_constraints(state, parsed, epsilon)

    async def _op_violations(
        self, state: StoreState, service: ViolationService, dc: int, mode: str
    ) -> dict:
        if mode == "finalize":
            # Benchmark baseline, deliberately kept: answer off a fresh
            # finalize of the store's evidence instead of the counters.
            def read() -> dict[str, object]:
                report = service.violations(dc)
                return {
                    "dc": dc,
                    "constraint": str(report.constraint),
                    "count": report.count,
                    "total_pairs": report.total_pairs,
                    "rate": report.rate,
                    "n_rows": state.store.n_rows,
                }
            return await self._run_locked(state, read)
        snapshot = state.counters.snapshot()
        return {
            "dc": dc,
            "constraint": str(service.constraints[dc]),
            "count": snapshot.counts[dc],
            "total_pairs": snapshot.total_pairs,
            "rate": snapshot.rate(dc),
            "n_rows": snapshot.n_rows,
        }

    async def _op_report(self, state: StoreState, service: ViolationService) -> dict:
        snapshot = state.counters.snapshot()
        return {
            "n_rows": snapshot.n_rows,
            "total_pairs": snapshot.total_pairs,
            "report": [
                {
                    "dc": index,
                    "constraint": str(service.constraints[index]),
                    "count": snapshot.counts[index],
                    "rate": snapshot.rate(index),
                    "exceeds_epsilon": snapshot.rate(index) > service.epsilon,
                }
                for index in range(len(service.constraints))
            ],
        }

    def _op_check_batch(
        self, state: StoreState, service: ViolationService, rows: list[dict]
    ) -> dict:
        return {
            "epsilon": service.epsilon,
            "rows": [
                {
                    "row": admission.row_index,
                    "rates": list(admission.rates),
                    "worst_rate": admission.worst_rate,
                    "admissible": admission.admissible,
                }
                for admission in service.check_batch(rows)
            ],
        }

    def _op_violating_pairs(
        self, state: StoreState, service: ViolationService, dc: int, limit: int
    ) -> dict:
        pairs = list(itertools.islice(service.violating_pairs(dc), limit + 1))
        return {
            "dc": dc,
            "pairs": [[left, right] for left, right in pairs[:limit]],
            "truncated": len(pairs) > limit,
        }

    def _op_tuple_scores(
        self, state: StoreState, service: ViolationService, dc: int, ranking: bool
    ) -> dict:
        fields: dict[str, object] = {"dc": dc, "scores": service.tuple_scores(dc)}
        if ranking:
            fields["ranking"] = service.repair_ranking(dc)
        return fields

    async def _op_stats(self) -> dict:
        stores: dict[str, object] = {}
        for name, state in self._stores.items():
            if state is None:
                stores[name] = {"status": "creating"}
                continue
            scheduler = state.scheduler
            entry: dict[str, object] = {
                "n_rows": state.store.n_rows,
                "generation": state.store.generation,
                "distinct_evidences": len(state.store.partial),
                "partial_chunks": state.store.partial.chunk_count,
                "partial_bytes": state.store.partial.chunk_bytes,
                "compactions": state.store.compactions,
                "snapshot_cached": state.store._evidence is not None,
                "constraints": (
                    len(state.service.constraints) if state.service else 0
                ),
                "append": {
                    "flushes": scheduler.flushes,
                    "coalesced_requests": scheduler.coalesced_requests,
                    "appended_rows": scheduler.appended_rows,
                    "fallback_flushes": scheduler.fallback_flushes,
                    "pending_requests": scheduler.pending_requests,
                },
            }
            if state.counters is not None:
                snapshot = state.counters.snapshot()
                entry["counters"] = {
                    "counts": list(snapshot.counts),
                    "n_rows": snapshot.n_rows,
                    "applied_deltas": state.counters.applied_deltas,
                }
            if state.journal is not None:
                entry["durability"] = {
                    "records_logged": state.journal.records_logged,
                    "wal_bytes": state.journal.wal.size_bytes,
                    "snapshots_written": state.journal.snapshots_written,
                    "snapshot_version": state.journal.snapshot_version,
                    "dedup_entries": len(state.dedup) if state.dedup else 0,
                    "recovered": state.recovery,  # None on a fresh create
                }
            stores[name] = entry
        fields: dict[str, object] = {
            "uptime_seconds": time.monotonic() - self._started_at,
            "requests_served": self.requests_served,
            "connections": len(self._connections),
            "stores": stores,
        }
        if self.data_dir is not None:
            fields["durability"] = {
                "data_dir": str(self.data_dir),
                "fsync": self.fsync,
                "recovery_failures": dict(self.recovery_failures),
            }
        coordinator = self._coordinator()
        if coordinator is not None:
            fields["cluster"] = {
                "alive_workers": coordinator.n_alive,
                "failed_workers": coordinator.failed_workers,
                "reissued_tasks": coordinator.reissued_tasks,
                "workers": coordinator.worker_stats(),
            }
        return fields

    async def _op_metrics(self, format: str) -> dict:
        """Dump the process metrics registry over the wire protocol.

        ``format: "json"`` (default) returns the structured snapshot;
        ``format: "text"`` returns the same Prometheus exposition the HTTP
        endpoint serves, for clients without a scraper.
        """
        registry = obs_get_registry()
        # Cluster-backed servers answer with the federated view: worker
        # registries pulled over the fabric (never blocking a running
        # fold — see ClusterCoordinator.pull_metrics), each snapshot
        # already stamped with its worker id and staleness age.
        coordinator = self._coordinator()
        workers: list[dict] | None = None
        if coordinator is not None and registry.enabled:
            loop = asyncio.get_running_loop()
            workers = await loop.run_in_executor(
                self._executor, lambda: coordinator.pull_metrics(timeout=0.5)
            )
        if format == "text":
            text = (
                render_federated(registry, workers)
                if workers
                else render_text(registry)
            )
            fields: dict[str, object] = {
                "format": "text",
                "enabled": registry.enabled,
                "text": text,
            }
        else:
            fields = {
                "format": "json",
                "enabled": registry.enabled,
                "metrics": registry.snapshot(),
            }
        if workers is not None:
            fields["workers"] = workers
        return fields


class ServerThread:
    """A :class:`ViolationServer` on a private loop in a daemon thread.

    What tests, benchmarks, and examples use to get a live listening
    server inside an otherwise synchronous program::

        with ServerThread() as (host, port):
            with ServeClient(host, port) as client:
                ...

    ``stop()`` performs the same graceful drain as SIGTERM would.
    """

    def __init__(self, **server_kwargs: object) -> None:
        self._loop = asyncio.new_event_loop()
        self._server = ViolationServer(**server_kwargs)
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._failure is not None:
            raise self._failure

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._server.start())
        except BaseException as error:  # bind failure: surface in __init__
            self._failure = error
            self._ready.set()
            return
        self._ready.set()
        self._loop.run_until_complete(self._server.serve_forever())
        self._loop.close()

    @property
    def address(self) -> tuple[str, int]:
        """The listening ``(host, port)``."""
        return self._server.address

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The Prometheus endpoint's address, when ``metrics_port`` was set."""
        return self._server.metrics_address

    @property
    def server(self) -> ViolationServer:
        """The wrapped server (only touch it from its own loop)."""
        return self._server

    def stop(self, timeout: float | None = 30.0) -> None:
        """Drain and stop the server, then join the loop thread."""
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self._server.stop(), self._loop)
        future.result(timeout)
        self._thread.join(timeout)

    def __enter__(self) -> tuple[str, int]:
        return self.address

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
