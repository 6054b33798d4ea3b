"""The host's speed, measured next to the program's work.

The measuring host shares its cores with other tenants.  A core runs the
same code up to twice as slowly for seconds to minutes at a time, so raw
wall times of one program differ that much from run to run.  A *burst* is
a fixed slice of interpreter and numpy work that no program change
touches.  The benchmark measures the host's *pace* (a burst's time)
before and after every timed op, on the CPU the op runs on (``run.py``
pins itself and every process it starts to one CPU), and scales the op's
time by the paces nearest it against :data:`REFERENCE_S`.  A slower host
slows the op and the bursts alike; a slower program slows the op only.
"""

from __future__ import annotations

import os
import statistics

# Before numpy is imported here or in any process the benchmark starts (they
# inherit the environment): numpy asks for transparent huge pages on large
# arrays, and whether a process gets them depends on how fragmented the
# shared host's memory is.  That lottery moved mine-wide's calls by about
# 5% from process to process.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

from tracing import clock

#: Seconds one burst takes at the reference speed.  Scaled times read as
#: seconds on a host where a burst takes this long (a fast phase of the
#: 2-core host the benchmark was sized on).
REFERENCE_S = 0.006

_ARRAY = np.random.default_rng(0).integers(0, 1 << 30, 40_000)
#: 8 MB, more than a core's caches hold; read at a stride of 4 words.
_WIDE = np.random.default_rng(1).integers(0, 1 << 62, 1_000_000, dtype=np.int64)[::4]


def burst() -> float:
    """Seconds of one burst: dict updates in the interpreter, a numpy sort
    of a cache-sized array, and bitwise ops streaming an array from memory
    -- the kinds of work the program does.  A burst of only the first two
    tracked the interpreter-bound ``mine-deep`` but not the memory-bound
    evidence kernels of ``mine-wide``."""
    start = clock()
    table: dict[int, int] = {}
    for index in range(15_000):
        key = index % 997
        table[key] = table.get(key, 0) + index
    ordered = np.sort(_ARRAY)
    int(np.bitwise_and(ordered[:-1], ordered[1:]).sum())
    int(np.count_nonzero(np.bitwise_and(_WIDE, _WIDE >> 3) & 7))
    return clock() - start


def pace(repeats: int = 2) -> float:
    """The host's current burst time: the fastest of ``repeats`` bursts, so
    an interrupt that lands in one burst does not count."""
    return min(burst() for _ in range(repeats))


def scaled(seconds: float, before: float, after: float) -> float:
    """Reference seconds of one op timed between the paces ``before`` and
    ``after`` (a set-up: nothing else runs near it)."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


def scale_series(seconds: list[float | None], paces: list[float], reach: int = 3) -> list[float]:
    """Reference seconds of a series of ops timed between paces: op ``i``
    ran between ``paces[i]`` and ``paces[i + 1]``.  Its pace is the median
    of the ``2 * reach`` paces nearest it, so one burst slowed by an
    interrupt does not scale an op.  Failed ops (``None``) are left out."""
    result = []
    for index, value in enumerate(seconds):
        if value is None:
            continue
        window = paces[max(0, index + 1 - reach):index + 1 + reach]
        result.append(value * REFERENCE_S / statistics.median(window))
    return result


pace(3)  # first bursts allocate; later ones in this process do not
