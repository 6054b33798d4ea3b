"""Lightweight trace spans: decompose one request's latency into segments.

A :class:`Span` is created at the serving boundary when a request carries a
``trace`` field, and rides along (explicitly, or ambiently via a
thread-local stack) while the request crosses layers:

* ``queue``  — time parked in the :class:`~repro.serve.scheduler.AppendScheduler`
* ``fold``   — delta-tile evidence fold inside ``EvidenceStore.append``
* ``journal_fsync`` — WAL serialize+write+fsync inside ``StoreJournal``
* ``commit`` — commit-point swap + listener fan-out
* ``ack``    — everything else on the serve path (decode, dispatch, encode)

``segments`` are **disjoint** by construction, so they sum to (approximately)
the request's wall latency — the end-to-end test holds the sum to within
10%.

Propagation is a plain ``threading.local`` stack, not ``contextvars``:
the serve layer hops from the event loop onto an executor thread via
``loop.run_in_executor``, which does not propagate contextvars, and the
whole store commit then runs synchronously on that one thread — a
thread-local stack crosses exactly the boundary we need with
:func:`bound`, and costs one attribute load in :func:`current`.
"""

from __future__ import annotations

import contextlib
import threading
import time
import uuid
from typing import Callable, Iterator, TypeVar

__all__ = ["Span", "bound", "current", "new_trace_id", "use"]

T = TypeVar("T")


def new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One traced operation: named disjoint segments."""

    __slots__ = ("trace_id", "op", "store", "started", "segments")

    def __init__(self, trace_id: str, op: str, store: str | None = None) -> None:
        self.trace_id = trace_id
        self.op = op
        self.store = store
        self.started = time.perf_counter()
        self.segments: dict[str, float] = {}

    def add_segment(self, name: str, seconds: float) -> None:
        """Accumulate a top-level (disjoint) segment."""
        if seconds < 0.0:
            seconds = 0.0
        self.segments[name] = self.segments.get(name, 0.0) + seconds

    @contextlib.contextmanager
    def segment(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_segment(name, time.perf_counter() - start)

    def accounted(self) -> float:
        """Total seconds already attributed to segments."""
        return sum(self.segments.values())

    def jsonable(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "trace_id": self.trace_id,
            "op": self.op,
            "segments": {k: round(v, 9) for k, v in self.segments.items()},
        }
        if self.store is not None:
            payload["store"] = self.store
        return payload


_ambient = threading.local()


def current() -> Span | None:
    """The innermost active span on this thread, or ``None``."""
    stack = getattr(_ambient, "stack", None)
    if not stack:
        return None
    return stack[-1]


@contextlib.contextmanager
def use(span: Span | None) -> Iterator[None]:
    """Make ``span`` the ambient span for this thread within the block.

    ``use(None)`` is a no-op block, so call sites don't need to branch.
    """
    if span is None:
        yield
        return
    stack = getattr(_ambient, "stack", None)
    if stack is None:
        stack = _ambient.stack = []
    stack.append(span)
    try:
        yield
    finally:
        stack.pop()


def bound(span: Span | None, fn: Callable[[], T]) -> Callable[[], T]:
    """Wrap ``fn`` so it runs with ``span`` ambient — survives the hop onto
    an executor thread, which ``contextvars`` would not."""
    if span is None:
        return fn

    def runner() -> T:
        with use(span):
            return fn()

    return runner
