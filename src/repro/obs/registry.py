"""Dependency-free metrics registry: counters, gauges, histograms.

Design constraints (see ISSUE 9):

* **Lock-cheap.**  Each metric *child* (one label combination) owns its own
  ``threading.Lock``; an ``inc``/``observe`` takes exactly one uncontended
  lock plus a float add.  The registry-level lock is only taken when a new
  family or child is created, never on the hot path.
* **Thread-agnostic.**  The same child can be driven from asyncio callbacks
  and executor threads; snapshots are consistent per-child (taken under
  the child lock).
* **Gateable.**  ``REPRO_OBS=0`` (or ``off``/``false``) disables the default
  registry: every mutator early-returns before touching a lock so the
  instrumented hot paths cost a single attribute load.  The overhead budget
  is enforced by ``benchmarks/bench_obs.py``.
* **Fixed buckets.**  Histograms use explicit upper bounds chosen at
  registration (no dynamic resizing); counts live in a numpy ``int64``
  array so Prometheus-style cumulative buckets are one ``cumsum`` away.

The module-level :func:`get_registry` returns the process-wide default
registry used by the instrumented subsystems; tests that need isolation
construct their own :class:`MetricsRegistry`.
"""

from __future__ import annotations

import bisect
import os
import threading
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "get_registry",
    "set_registry",
]

# Seconds, spanning ~10us .. 60s: wide enough for fsync latencies and whole
# remine runs without per-metric tuning.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.00001, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

# Row/batch sizes (powers of two-ish).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)


def _check_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")


class _Child:
    """State for one label combination of a family."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class _CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeChild(_Child):
    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _HistogramChild(_Child):
    __slots__ = ("_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Sequence[float]) -> None:
        super().__init__()
        self._bounds = list(bounds)
        # One slot per finite bound plus the +Inf overflow slot.
        self._counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            counts = self._counts.copy()
            total = self._count
            total_sum = self._sum
        cumulative = np.cumsum(counts)
        buckets = [
            [bound, int(cumulative[i])] for i, bound in enumerate(self._bounds)
        ]
        buckets.append(["+Inf", int(cumulative[-1])])
        return {"count": int(total), "sum": float(total_sum), "buckets": buckets}

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class _Family:
    """A named metric with a fixed label schema and per-combination children."""

    kind = "untyped"
    _child_cls: type[_Child] = _Child

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
    ) -> None:
        _check_name(name)
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()
        if not labelnames:
            # Pre-create the single child so unlabeled metrics never pay the
            # child-lookup dict access on the hot path.
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self) -> _Child:
        return self._child_cls()

    def labels(self, *values: object) -> _Child:
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _items(self) -> list[tuple[tuple[str, ...], _Child]]:
        with self._lock:
            return sorted(self._children.items())


class Counter(_Family):
    """Monotonically increasing count (events, bytes, rows)."""

    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        self._default.inc(amount)  # type: ignore[union-attr]

    def labels(self, *values: object) -> _CounterChild:  # type: ignore[override]
        return super().labels(*values)  # type: ignore[return-value]

    def inc_labels(self, *values: object, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        self.labels(*values).inc(amount)

    @property
    def value(self) -> float:
        return self._default.value  # type: ignore[union-attr]

    def value_labels(self, *values: object) -> float:
        return self.labels(*values).value


class Gauge(_Family):
    """Point-in-time value (connections, backlog, live nodes/sec)."""

    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self._default.set(value)  # type: ignore[union-attr]

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        self._default.inc(amount)  # type: ignore[union-attr]

    def dec(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        self._default.dec(amount)  # type: ignore[union-attr]

    def labels(self, *values: object) -> _GaugeChild:  # type: ignore[override]
        return super().labels(*values)  # type: ignore[return-value]

    def set_labels(self, *values: object, value: float) -> None:
        if not self._registry.enabled:
            return
        self.labels(*values).set(value)

    @property
    def value(self) -> float:
        return self._default.value  # type: ignore[union-attr]

    def value_labels(self, *values: object) -> float:
        return self.labels(*values).value


class Histogram(_Family):
    """Fixed-bucket distribution (latencies in seconds, sizes in rows)."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: Sequence[float],
    ) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"{name}: histograms need at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"{name}: duplicate bucket bounds")
        self.buckets = tuple(bounds)
        super().__init__(registry, name, help, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self._default.observe(value)  # type: ignore[union-attr]

    def labels(self, *values: object) -> _HistogramChild:  # type: ignore[override]
        return super().labels(*values)  # type: ignore[return-value]

    def observe_labels(self, *values: object, value: float) -> None:
        if not self._registry.enabled:
            return
        self.labels(*values).observe(value)


class MetricsRegistry:
    """Families keyed by name; registration is idempotent and type-checked."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _register(self, cls: type[_Family], name: str, help: str,
                  labelnames: Iterable[str], **kwargs: object) -> _Family:
        labels = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.labelnames}"
                    )
                return existing
            family = cls(self, name, help, labels, **kwargs)  # type: ignore[arg-type]
            self._families[name] = family
            return family

    def counter(self, name: str, help: str,
                labelnames: Iterable[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str,
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(self, name: str, help: str,
                  labelnames: Iterable[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)  # type: ignore[return-value]

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> dict[str, dict[str, object]]:
        """JSON-friendly dump of every family (for the ``metrics`` wire op)."""
        out: dict[str, dict[str, object]] = {}
        for family in self.families():
            samples: list[dict[str, object]] = []
            for key, child in family._items():
                labels = dict(zip(family.labelnames, key))
                if isinstance(child, _HistogramChild):
                    sample: dict[str, object] = {"labels": labels}
                    sample.update(child.snapshot())
                else:
                    sample = {"labels": labels, "value": child.value}  # type: ignore[union-attr]
                samples.append(sample)
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out


def _enabled_from_env() -> bool:
    return os.environ.get("REPRO_OBS", "1").strip().lower() not in (
        "0", "off", "false", "no",
    )


_default_registry = MetricsRegistry(enabled=_enabled_from_env())


def get_registry() -> MetricsRegistry:
    """The process-wide registry all built-in instrumentation reports to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one.

    Only affects *new* family lookups — modules that cached family objects
    at import keep reporting to the old registry, so prefer toggling
    ``get_registry().enabled`` where possible.
    """
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
