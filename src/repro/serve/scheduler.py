"""Coalescing append scheduler.

Every commit has a fixed overhead: its delta fold walks all ``n`` stored
rows through the two cross strips however few rows it adds, and it pays a
partial merge, a counter update and, when durable, a journal fsync.  So
ten concurrent one-row appends cost far more as ten folds than as one
ten-row fold.  :class:`AppendScheduler` exploits that: concurrent
``append`` requests against one store are parked in a pending list, and a
single flusher task commits *everything pending* as one combined batch —
one :meth:`EvidenceStore.append`, one delta-tile fold, one counter update,
one generation bump — then parcels the result back to every waiter.

Semantics:

* Requests in one flush commit atomically and observe the same
  post-commit generation; requests never commit out of arrival order.
* A poisoned flush (one request's rows fail type coercion) falls back to
  committing each request separately, so one bad batch fails alone
  instead of failing its innocent flush-mates — at the cost of the
  coalescing win on that flush only.
* ``max_pending_rows`` bounds the parked rows; excess appenders wait
  (backpressure propagates to the connection's read loop, which stops
  reading frames — the network peer slows down instead of the server
  ballooning).
* ``max_rows`` counts committed, parked and in-flight rows, and is checked
  again after a backpressure wait, so concurrent appends cannot overshoot
  the quota while a flush is committing.

The scheduler never blocks the event loop: the fold runs in the server's
executor while the store's async lock is held, which is also what keeps
commits serialized against the heavyweight read ops.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.spans import Span
from repro.serve.protocol import QuotaExceeded

if TYPE_CHECKING:
    from repro.durability.journal import DedupWindow, StoreJournal
    from repro.incremental.store import EvidenceStore

Row = Mapping[str, object]

# One parked append request: rows, waiter, idempotency key, optional trace
# span, and the perf_counter instant it was parked (for the queue segment).
_Entry = tuple[list[Row], asyncio.Future, "str | None", "Span | None", float]


class AppendScheduler:
    """Batch concurrent appends to one store into single delta folds.

    Parameters
    ----------
    store:
        The evidence store commits apply to.
    lock:
        The store's async lock (shared with the server's heavyweight read
        ops); held across every commit.
    executor:
        Where the blocking fold runs.
    flush_window:
        Seconds a flush waits for more requests to coalesce.  ``0.0``
        (default) still yields to the event loop once, so requests that
        are already queued coalesce for free; positive values trade
        latency for bigger flushes.
    max_pending_rows:
        Parked-row bound; appenders past it wait for the next flush.
    max_rows:
        Optional per-tenant row quota: an append that would grow the store
        (plus everything already parked) past it is refused with
        :class:`~repro.serve.protocol.QuotaExceeded` instead of parked.
    journal:
        Optional :class:`~repro.durability.journal.StoreJournal`.  Each
        flush's batch is journaled (and fsynced) inside the store's
        ``pre_commit`` hook — write-ahead of the in-memory commit, and
        therefore of every acknowledgment the flush produces.  The flush
        window *is* the commit+fsync unit: one coalesced flush pays one
        record and one fsync.
    dedup:
        Optional :class:`~repro.durability.journal.DedupWindow` giving
        keyed appends exactly-once semantics across retries and restarts.
    """

    def __init__(
        self,
        store: "EvidenceStore",
        lock: asyncio.Lock,
        executor: Executor,
        flush_window: float = 0.0,
        max_pending_rows: int = 100_000,
        max_rows: int | None = None,
        journal: "StoreJournal | None" = None,
        dedup: "DedupWindow | None" = None,
    ) -> None:
        if flush_window < 0:
            raise ValueError("flush_window must be >= 0")
        if max_pending_rows < 1:
            raise ValueError("max_pending_rows must be positive")
        self._store = store
        self._lock = lock
        self._executor = executor
        self.flush_window = float(flush_window)
        self.max_pending_rows = int(max_pending_rows)
        self.max_rows = None if max_rows is None else int(max_rows)
        self.journal = journal
        self.dedup = dedup
        self._store_label = store.relation.name
        self._pending: list[_Entry] = []
        self._pending_rows = 0
        # Store rows once the flush in flight commits (None when idle).
        self._inflight_target: int | None = None
        self._space: asyncio.Condition = asyncio.Condition()
        self._flusher: asyncio.Task | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self.flushes = 0
        self.coalesced_requests = 0
        self.appended_rows = 0
        self.fallback_flushes = 0

    @property
    def pending_requests(self) -> int:
        """Requests parked for the next flush (load signal for ``stats``)."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    async def append(
        self,
        rows: Sequence[Row],
        request_key: str | None = None,
        span: Span | None = None,
    ) -> dict[str, object]:
        """Park ``rows`` for the next flush; resolves once committed.

        Returns ``{"appended", "n_rows", "generation", "coalesced"}`` for
        the flush that carried the request.  Raises whatever the store's
        append raised for *this request's* rows (flush-mates unaffected).

        ``request_key`` makes the append idempotent: a key already in the
        dedup window returns the original commit's result (marked
        ``"deduplicated": true``) without committing again, and a key
        whose first attempt is still in flight awaits that same commit —
        the retry semantics clients need when an acknowledgment is lost.
        """
        rows = list(rows)
        if not rows:
            return {
                "appended": 0,
                "n_rows": self._store.n_rows,
                "generation": self._store.generation,
                "coalesced": 0,
            }
        if request_key is not None and self.dedup is not None:
            previous = self.dedup.get(request_key)
            if previous is not None:
                return {**previous, "deduplicated": True}
            pending = self._inflight.get(request_key)
            if pending is not None:
                # The first attempt is mid-commit; share its outcome (and
                # shield it — a retry's disconnect must not cancel it).
                result = await asyncio.shield(pending)
                return {**result, "deduplicated": True}
        self._check_quota(len(rows))
        async with self._space:
            while self._pending_rows >= self.max_pending_rows:
                await self._space.wait()
                # Others may have parked or committed rows while we waited.
                self._check_quota(len(rows))
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._pending.append(
                (rows, future, request_key, span, time.perf_counter())
            )
            self._pending_rows += len(rows)
            obs_metrics.SERVE_PENDING_ROWS.set_labels(
                self._store_label, value=self._pending_rows
            )
            if request_key is not None:
                self._inflight[request_key] = future
            if self._flusher is None or self._flusher.done():
                self._flusher = asyncio.create_task(self._flush_loop())
        return await future

    def _check_quota(self, n_new: int) -> None:
        """Refuse ``n_new`` rows that would grow the store past ``max_rows``.

        Counts the committed rows, the parked rows, and the rows of the
        flush in flight: those left the pending list when the flush took
        them, but the store does not hold them until the commit returns.
        """
        if self.max_rows is None:
            return
        committed = self._store.n_rows
        if self._inflight_target is not None:
            # The in-flight commit only ever grows the store up to its
            # target, so the target bounds it whether or not it landed yet.
            committed = max(committed, self._inflight_target)
        if committed + self._pending_rows + n_new > self.max_rows:
            raise QuotaExceeded(
                f"append of {n_new} rows would exceed the store's "
                f"{self.max_rows}-row quota ({committed} committed or "
                f"committing, {self._pending_rows} pending)"
            )

    async def drain(self) -> None:
        """Wait until every parked request has committed (shutdown path)."""
        while True:
            flusher = self._flusher
            if flusher is None or flusher.done():
                async with self._space:
                    if not self._pending:
                        return
                await asyncio.sleep(0)
                continue
            await asyncio.shield(flusher)

    # ------------------------------------------------------------------
    # Flush side
    # ------------------------------------------------------------------
    async def _flush_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            # The window lets concurrent requests pile up; even 0 yields
            # once, so whatever is already scheduled on the loop lands in
            # this flush instead of the next.
            await asyncio.sleep(self.flush_window)
            async with self._space:
                batch, self._pending = self._pending, []
                if batch:
                    self._inflight_target = self._store.n_rows + self._pending_rows
                self._pending_rows = 0
                obs_metrics.SERVE_PENDING_ROWS.set_labels(
                    self._store_label, value=0
                )
                self._space.notify_all()
            if batch:
                try:
                    async with self._lock:
                        outcomes = await loop.run_in_executor(
                            self._executor, self._commit, batch
                        )
                finally:
                    self._inflight_target = None
                for future, outcome in outcomes:
                    if future.done():
                        continue  # waiter gave up (connection died)
                    if isinstance(outcome, BaseException):
                        future.set_exception(outcome)
                    else:
                        future.set_result(outcome)
                for _, future, key, _, _ in batch:
                    if key is not None and self._inflight.get(key) is future:
                        del self._inflight[key]
            async with self._space:
                if not self._pending:
                    self._flusher = None
                    return

    def _journal_hook(self, rows: list[Row], requests: list[list[object]]):
        """The ``pre_commit`` hook journaling one commit, or ``None``.

        Runs inside :meth:`EvidenceStore.append` after the batch is
        validated but before any state swaps in: the record is written and
        fsynced first, so a journal failure fails the append with the
        store untouched, and a crash after the hook replays to exactly the
        committed state.
        """
        journal = self.journal
        if journal is None:
            return None
        return lambda n_new: journal.log_append(rows, requests)

    def _record_results(
        self, requests: list[list[object]], result_for: dict
    ) -> None:
        """Remember keyed requests' results for idempotent retries."""
        if self.dedup is None:
            return
        for key, n_rows in requests:
            if key is not None:
                self.dedup.record(key, dict(result_for, appended=int(n_rows)))

    def _commit(self, batch: list[_Entry]) -> list[tuple[asyncio.Future, object]]:
        """Apply one flush on the executor thread; never raises.

        The combined commit is tried first (one fold, one journal record,
        one fsync for the whole flush); if the store rejects it — one
        request's rows failed coercion, and the store's atomic append
        rolled everything back — each request is retried alone so the
        failure stays with its owner (each surviving request then journals
        its own record, keeping replayed generation numbers in step).
        """
        store = self._store
        label = self._store_label
        self.flushes += 1
        self.coalesced_requests += len(batch)
        commit_start = time.perf_counter()
        traced = [span for _, _, _, span, _ in batch if span is not None]
        for _, _, _, span, enqueued_at in batch:
            if span is not None:
                span.add_segment("queue", commit_start - enqueued_at)
        combined: list[Row] = [row for rows, _, _, _, _ in batch for row in rows]
        requests = [[key, len(rows)] for rows, _, key, _, _ in batch]
        obs_metrics.SERVE_FLUSHES.inc_labels(label)
        obs_metrics.SERVE_BATCH_ROWS.observe_labels(label, value=len(combined))
        obs_metrics.SERVE_BATCH_REQUESTS.observe_labels(label, value=len(batch))
        # One ambient span collects the flush's fold/fsync/commit segments;
        # they are copied to every traced flush-mate (each waited on the
        # whole combined commit, so the decomposition is theirs too).
        collector = Span("flush", op="flush", store=label) if traced else None
        try:
            with obs_spans.use(collector):
                store.append(
                    combined, pre_commit=self._journal_hook(combined, requests)
                )
        except Exception as combined_error:
            if len(batch) == 1:
                # The combined batch *is* the lone request; the failure is
                # its answer (the atomic append left the store untouched).
                return [(batch[0][1], combined_error)]
            self.fallback_flushes += 1
            obs_metrics.SERVE_FALLBACK_FLUSHES.inc_labels(label)
            outcomes: list[tuple[asyncio.Future, object]] = []
            for rows, future, key, span, _ in batch:
                try:
                    with obs_spans.use(span):
                        appended = store.append(
                            rows,
                            pre_commit=self._journal_hook(rows, [[key, len(rows)]]),
                        )
                except Exception as error:
                    outcomes.append((future, error))
                else:
                    self.appended_rows += appended
                    result = {
                        "appended": appended,
                        "n_rows": store.n_rows,
                        "generation": store.generation,
                        "coalesced": 1,
                    }
                    self._record_results([[key, appended]], result)
                    outcomes.append((future, result))
            self._maybe_snapshot()
            return outcomes
        if collector is not None:
            for span in traced:
                for name, seconds in collector.segments.items():
                    span.add_segment(name, seconds)
        self.appended_rows += len(combined)
        base = {
            "n_rows": store.n_rows,
            "generation": store.generation,
            "coalesced": len(batch),
        }
        self._record_results(requests, base)
        self._maybe_snapshot()
        return [
            (future, {"appended": len(rows), **base})
            for rows, future, _, _, _ in batch
        ]

    def _maybe_snapshot(self) -> None:
        """Compact the journal when its WAL has outgrown the threshold.

        Called on the executor thread right after a commit, store lock
        held, so the snapshot sees a quiescent store.  A snapshot failure
        is deliberately swallowed: the WAL is intact, so durability holds
        — compaction just retries after the next flush.
        """
        if self.journal is None:
            return
        try:
            self.journal.maybe_snapshot(self._store, self.dedup)
        except Exception:  # noqa: BLE001 - compaction is best-effort
            pass
