"""Per-layer metrics of a traced run, from client ops and program spans.

Every time is milliseconds per round (a round is one fixed op sequence from
fresh state, or one ``mine`` call), averaged over the run's rounds, so the
layer self times and the ``unattributed`` shares of one workload add up to
its traced round time.  Call metrics (``engine.tile_ms`` ...) are inclusive:
they are the time inside that call, children included.
"""

from __future__ import annotations

import json
from pathlib import Path

from stats import Span, assign, breakdown
from tracing import LAYERS

OP_KINDS = ("append", "read", "check", "recover", "mine")

#: Inclusive call metrics, as named in :data:`tracing.TARGETS`.
CALL_METRICS = (
    "serve.codec_ms", "serve.counters_ms", "data.copy_ms", "data.append_rows_ms",
    "incremental.append_ms", "incremental.delta_ms", "incremental.check_ms",
    "engine.rebase_ms", "engine.merge_ms", "engine.kernel_prep_ms", "engine.tile_ms",
    "core.space_ms", "core.sample_ms", "core.evidence_ms", "core.enum_ms",
    "durability.log_append_ms", "durability.recover_ms",
)
#: Counts recorded on the spans, summed per round.
COUNT_METRICS = (
    "engine.tiles", "core.evidence_distinct", "core.enum_nodes", "core.adcs",
    "durability.replayed_records",
)

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("setup.import_s", "s"),
    ("setup.seed_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.flush_rows", "rows"),
    *((name, "ms") for name in CALL_METRICS),
    *((name, "count") for name in COUNT_METRICS),
    ("engine.pairs_per_s", "1/s"),
    ("core.enum_nodes_per_s", "1/s"),
    ("durability.wal_bytes_per_row", "B/row"),
    *((f"self.{layer}_ms", "ms") for layer in LAYERS),
    *((f"{kind}.wall_ms", "ms") for kind in OP_KINDS),
    *((f"{kind}.unattributed_ms", "ms") for kind in OP_KINDS),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)


def load_spans(paths: list[Path]) -> list[Span]:
    spans = []
    for path in paths:
        for name, start, end, counts in json.loads(path.read_text()):
            spans.append(Span(name, name.split(".", 1)[0], start, end, counts))
    return spans


def _queue_seconds(span: Span) -> float:
    """Scheduler entry to the store append that carried the rows."""
    pending = list(span.children)
    while pending:
        child = pending.pop(0)
        if child.name == "incremental.append_ms":
            return child.start - span.start
        pending.extend(child.children)
    return 0.0


def round_totals(
    ops: list[tuple[str, float, float]], spans: list[Span]
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """One round's per-layer totals, and its op-type x layer matrix (ms)."""
    totals: dict[str, float] = {}
    matrix: dict[str, dict[str, float]] = {}
    flush_rows = store_appends = pairs = 0.0

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    ops = sorted(ops, key=lambda op: op[1])
    for (kind, start, end), inside in zip(ops, assign(ops, spans)):
        split = breakdown(start, end, inside)
        row = matrix.setdefault(kind, {"n": 0.0})
        row["n"] += 1
        for key, seconds in (("wall", split.wall), ("unattributed", split.unattributed),
                             *split.layer_self.items()):
            row[key] = row.get(key, 0.0) + seconds * 1e3
        add(f"{kind}.wall_ms", split.wall * 1e3)
        add("trace.spans", len(inside))
        add(f"{kind}.unattributed_ms", split.unattributed * 1e3)
        for layer, seconds in split.layer_self.items():
            add(f"self.{layer}_ms", seconds * 1e3)
        for name, seconds in split.call_time.items():
            add(name, seconds * 1e3)
        for name, count in split.call_count.items():
            if name == "engine.pairs":
                pairs += count
            elif name == "serve.flush_rows":
                if kind == "append":
                    flush_rows += count
                    store_appends += split.calls.get("incremental.append_ms", 0)
            else:
                add(name, count)
        for span in inside:
            if span.name == "serve.scheduler_ms":
                add("serve.queue_ms", _queue_seconds(span) * 1e3)
    totals["serve.flush_rows"] = flush_rows / store_appends if store_appends else 0.0
    tile_s = totals.get("engine.tile_ms", 0.0) / 1e3
    totals["engine.pairs_per_s"] = pairs / tile_s if tile_s else 0.0
    enum_s = totals.get("core.enum_ms", 0.0) / 1e3
    totals["core.enum_nodes_per_s"] = totals.get("core.enum_nodes", 0.0) / enum_s if enum_s else 0.0
    return totals, matrix


def per_layer(
    rounds: list[tuple[list[tuple[str, float, float]], list[Span]]],
    extra: dict[str, float],
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Mean of the round totals for every :data:`PER_LAYER` metric.

    ``extra`` supplies the metrics measured outside the spans (set-up, WAL
    bytes).  ``trace.overhead_frac`` is left for the caller, which knows
    the untraced round time.  Returns the metrics and the op-type x layer
    matrix in ms per op.
    """
    results = [round_totals(ops, spans) for ops, spans in rounds]
    metrics = {}
    for name, _ in PER_LAYER:
        if name in extra:
            metrics[name] = extra[name]
        else:
            metrics[name] = sum(t.get(name, 0.0) for t, _ in results) / len(results)
    matrix: dict[str, dict[str, float]] = {}
    for _, round_matrix in results:
        for kind, row in round_matrix.items():
            merged = matrix.setdefault(kind, {})
            for key, value in row.items():
                merged[key] = merged.get(key, 0.0) + value
    for row in matrix.values():
        n = row.pop("n")
        for key in row:
            row[key] /= n
    return metrics, matrix

