"""Percentiles and span arithmetic shared by the benchmark and its tests.

Everything here is pure Python over plain lists so the self-tests can
check it on synthetic inputs without booting a server.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: A high percentile is reported only when at least this many samples
#: lie beyond it, so one outlier cannot set it.
MIN_SAMPLES_BEYOND = 10

#: Candidate high percentiles, highest first.
TAIL_PERCENTILES = (99.0, 90.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 < q <= 100) of ``values`` by nearest rank."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ranked = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ranked)))
    return ranked[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(n: int) -> float | None:
    """The highest percentile with ``MIN_SAMPLES_BEYOND`` samples beyond it.

    ``None`` when even p90 lacks them (fewer than 100 samples).
    """
    for q in TAIL_PERCENTILES:
        if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND:
            return q
    return None


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def median_replay(replays: Sequence[Sequence[float]]) -> float:
    """Round time from several replays of one op sequence: for each op
    position, the median of its replays, summed.

    An op slowed in one replay by a second-long slow spell of the host
    does not move the median of its position.  A replay with a failed op
    (shorter: a failed op has no time) no longer lines up with the others
    and is left out.
    """
    full = max(len(replay) for replay in replays)
    complete = [replay for replay in replays if len(replay) == full]
    return sum(statistics.median(column) for column in zip(*complete))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: ``name`` is its metric, ``layer`` the package it is in."""

    name: str
    layer: str
    start: float
    end: float
    counts: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    parent: "Span | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def nest(spans: list[Span]) -> None:
    """Link each span to the innermost span whose interval contains it.

    Nesting is by interval, not by thread, so a store call that the server
    runs on an executor thread nests under the event-loop call that awaited
    it.
    """
    stack: list[Span] = []
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        span.children = []
        span.parent = None
        while stack and stack[-1].end <= span.start:
            stack.pop()
        if stack and span.end <= stack[-1].end:
            span.parent = stack[-1]
            stack[-1].children.append(span)
        stack.append(span)


def self_time(span: Span) -> float:
    """The span's duration minus the part of it its child spans cover."""
    return span.duration - covered(
        ((c.start, c.end) for c in span.children), span.start, span.end
    )


def inclusive(span: Span) -> bool:
    """Whether the span counts toward its metric's inclusive time.

    A call nested inside another call of the same metric (a kernel that
    calls a helper timed under the same name) is already inside its
    ancestor's interval and is skipped.
    """
    node = span.parent
    while node is not None:
        if node.name == span.name:
            return False
        node = node.parent
    return True


@dataclass
class OpBreakdown:
    """Where one client op's wall time went.

    ``layer_self`` is self time per layer, ``call_time`` inclusive time per
    call metric, ``call_count`` the counts the spans carried and ``calls``
    how many spans of each metric there were.
    """

    wall: float
    layer_self: dict[str, float]
    call_time: dict[str, float]
    call_count: dict[str, float]
    calls: dict[str, int]

    @property
    def unattributed(self) -> float:
        return self.wall - sum(self.layer_self.values())


def breakdown(wall_start: float, wall_end: float, spans: list[Span]) -> OpBreakdown:
    """Split one op's wall interval over the spans recorded inside it.

    The spans lie inside the op: with one closed-loop client the server
    finishes a request's work before the reply that ends the op is sent.
    """
    nest(spans)
    layer_self: dict[str, float] = {}
    call_time: dict[str, float] = {}
    call_count: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + self_time(span)
        calls[span.name] = calls.get(span.name, 0) + 1
        if inclusive(span):
            call_time[span.name] = call_time.get(span.name, 0.0) + span.duration
            for name, count in span.counts.items():
                call_count[name] = call_count.get(name, 0.0) + count
    return OpBreakdown(wall_end - wall_start, layer_self, call_time, call_count, calls)


def assign(
    ops: Sequence[tuple[str, float, float]], spans: Iterable[Span]
) -> list[list[Span]]:
    """Give each span to the op whose interval holds its start.

    ``ops`` are ``(type, start, end)`` in time order and do not overlap (one
    closed-loop client).  Spans that start outside every op are dropped.
    """
    starts = [start for _, start, _ in ops]
    buckets: list[list[Span]] = [[] for _ in ops]
    for span in spans:
        index = bisect.bisect_right(starts, span.start) - 1
        if index >= 0 and span.start <= ops[index][2]:
            buckets[index].append(span)
    return buckets
