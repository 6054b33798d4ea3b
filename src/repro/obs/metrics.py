"""Every built-in metric family, declared once on the default registry.

Centralizing the declarations keeps names/labels/buckets in one place,
avoids import-order surprises (any instrumented module importing this one
makes the *whole* metric surface visible to a scrape, including families
that have not fired yet), and keeps the instrumented modules down to
``from repro.obs import metrics as obs_metrics`` plus one-line calls.

Naming follows Prometheus conventions: ``repro_<subsystem>_<what>_<unit>``,
``_total`` for counters, seconds for latencies, base units everywhere.
"""

from __future__ import annotations

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    get_registry,
)

_r = get_registry()

# --------------------------------------------------------------------------
# serve: request front-end
# --------------------------------------------------------------------------
SERVE_REQUESTS = _r.counter(
    "repro_serve_requests_total",
    "Requests dispatched, by op, tenant store, and result code.",
    ("op", "store", "code"),
)
SERVE_REQUEST_SECONDS = _r.histogram(
    "repro_serve_request_seconds",
    "Request latency from decoded frame to encoded response, by op.",
    ("op",),
)
SERVE_CONNECTIONS = _r.gauge(
    "repro_serve_connections",
    "Currently open client connections.",
)
SERVE_CONNECTIONS_TOTAL = _r.counter(
    "repro_serve_connections_total",
    "Client connections accepted since boot.",
)
SERVE_SLOW_OPS = _r.counter(
    "repro_serve_slow_ops_total",
    "Requests that exceeded the slow-op log threshold, by op.",
    ("op",),
)

# serve: append coalescing
SERVE_PENDING_ROWS = _r.gauge(
    "repro_serve_append_pending_rows",
    "Rows parked in the append scheduler awaiting a flush, by store.",
    ("store",),
)
SERVE_FLUSHES = _r.counter(
    "repro_serve_append_flushes_total",
    "Coalesced append flushes committed, by store.",
    ("store",),
)
SERVE_FALLBACK_FLUSHES = _r.counter(
    "repro_serve_append_fallback_flushes_total",
    "Flushes that fell back to per-request commits after a batch error.",
    ("store",),
)
SERVE_BATCH_ROWS = _r.histogram(
    "repro_serve_append_batch_rows",
    "Rows per committed flush batch, by store.",
    ("store",),
    buckets=DEFAULT_SIZE_BUCKETS,
)
SERVE_BATCH_REQUESTS = _r.histogram(
    "repro_serve_append_batch_requests",
    "Client requests coalesced per flush batch, by store.",
    ("store",),
    buckets=DEFAULT_SIZE_BUCKETS,
)

# --------------------------------------------------------------------------
# store: delta folds
# --------------------------------------------------------------------------
STORE_APPENDED_ROWS = _r.counter(
    "repro_store_appended_rows_total",
    "Rows committed into evidence stores, by store.",
    ("store",),
)
STORE_FOLD_SECONDS = _r.histogram(
    "repro_store_fold_seconds",
    "Delta-tile evidence fold latency per append, by store.",
    ("store",),
)

# --------------------------------------------------------------------------
# durability: WAL, snapshots, recovery
# --------------------------------------------------------------------------
WAL_RECORDS = _r.counter(
    "repro_wal_records_total",
    "Records appended to write-ahead logs.",
)
WAL_BYTES = _r.counter(
    "repro_wal_bytes_total",
    "Bytes appended to write-ahead logs (framing included).",
)
WAL_FSYNC_SECONDS = _r.histogram(
    "repro_wal_fsync_seconds",
    "Latency of WAL flush+fsync calls.",
)
SNAPSHOT_WRITES = _r.counter(
    "repro_durability_snapshot_writes_total",
    "Snapshot compactions written.",
)
SNAPSHOT_SECONDS = _r.histogram(
    "repro_durability_snapshot_seconds",
    "Snapshot write+compaction latency.",
)
RECOVERY_SECONDS = _r.histogram(
    "repro_durability_recovery_seconds",
    "Per-store recovery (snapshot load + WAL replay) latency.",
)
RECOVERY_RECORDS = _r.counter(
    "repro_durability_recovery_replayed_records_total",
    "WAL records replayed during recoveries.",
)
RECOVERY_STORES = _r.counter(
    "repro_durability_recovery_stores_total",
    "Store recoveries at boot, by outcome.",
    ("outcome",),
)

# --------------------------------------------------------------------------
# mining: enumeration + evidence build throughput
# --------------------------------------------------------------------------
MINING_RUNS = _r.counter(
    "repro_mining_runs_total",
    "Enumeration runs started, by store.",
    ("store",),
)
MINING_SECONDS = _r.histogram(
    "repro_mining_enumeration_seconds",
    "Wall time of enumeration runs, by store.",
    ("store",),
)
MINING_NODES_VISITED = _r.gauge(
    "repro_mining_nodes_visited",
    "Search nodes visited by the live (or last) enumeration, by store.",
    ("store",),
)
MINING_NODES_PER_SECOND = _r.gauge(
    "repro_mining_nodes_per_second",
    "Live search throughput of the running enumeration, by store.",
    ("store",),
)
MINING_MAX_STACK_DEPTH = _r.gauge(
    "repro_mining_max_stack_depth",
    "Deepest explicit-stack depth reached, by store.",
    ("store",),
)
EVIDENCE_TILES = _r.counter(
    "repro_evidence_tiles_total",
    "Evidence tiles folded (serial in-process path).",
)
EVIDENCE_PAIRS = _r.counter(
    "repro_evidence_pairs_total",
    "Ordered tuple pairs covered by folded evidence tiles.",
)
EVIDENCE_TILE_SECONDS = _r.histogram(
    "repro_evidence_tile_seconds",
    "Kernel latency of one tile fold: one kernel call over a whole tile "
    "list (serial in-process path).",
    buckets=DEFAULT_LATENCY_BUCKETS,
)
