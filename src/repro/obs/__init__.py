"""Unified observability layer: metrics, trace spans, structured logs.

Three pillars, all dependency-free (stdlib + numpy):

* :mod:`repro.obs.registry` / :mod:`repro.obs.metrics` — a process-wide
  metrics registry (counters, gauges, fixed-bucket histograms; per-child
  locks, ``REPRO_OBS=0`` kill-switch) with every built-in family declared
  centrally in ``metrics.py``.
* :mod:`repro.obs.spans` — lightweight trace spans propagated from
  :class:`~repro.serve.client.ServeClient` through the wire envelope's
  ``trace`` field into scheduler flushes, store folds and journal fsyncs.
* :mod:`repro.obs.logging` — line-oriented JSON event logs replacing
  ad-hoc stderr prints, including the span-aware slow-op log.

Exposure: the ``metrics`` wire op (JSON snapshot or text exposition), the
optional ``--metrics-port`` HTTP listener (:mod:`repro.obs.httpd`,
Prometheus text format 0.0.4 via :mod:`repro.obs.prometheus`, plus a
``/healthz`` liveness probe).
"""

from repro.obs.logging import JsonLogger, get_logger, set_logger
from repro.obs.prometheus import render_text
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.spans import Span, new_trace_id

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "MetricsRegistry",
    "Span",
    "get_logger",
    "get_registry",
    "new_trace_id",
    "render_text",
    "set_logger",
    "set_registry",
]
