"""Incremental store — delta append vs full evidence rebuild.

Not a paper figure: this benchmark tracks the incremental evidence store of
``repro.incremental``.  Starting from an ``n``-row seed build, it appends a
batch of ``m`` rows through :meth:`EvidenceStore.append` (delta tiles +
partial rebase/merge + finalize) and compares against rebuilding the
evidence set of the concatenated ``n + m`` rows from scratch with the tiled
builder.  The delta path evaluates ``2·n·m + m·(m-1)`` ordered pairs
instead of ``(n+m)·(n+m-1)``, so its advantage grows as ``m`` shrinks
relative to ``n`` — the continuous-arrival regime the store exists for.

Expectation: for batches up to ``n/10`` the delta append is at least
``EXPECTED_SPEEDUP`` times faster than the full rebuild (enforced with
``--require-speedup``; CI runs the benchmark informationally and archives
the JSON artifact).

A second table trickles single-row appends (with participation) onto
stores of ``TRICKLE_ROWS`` seed rows and reports the delta tiles each
append folds and the append p50.  The ratio of the p50s across seed sizes
tracks how far append cost still grows with ``n``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_incremental.py \
        [--json BENCH_incremental.json] [--rows 2000] [--require-speedup]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core.evidence_builder import build_evidence_set_tiled
from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import generate_dataset
from repro.incremental import EvidenceStore, delta_tiles

#: Rows of the seed relation the store is built on.
BENCH_ROWS = 2000

#: Appended batch sizes swept by the benchmark.
BATCH_SIZES = (1, 10, 100, 1000)

#: Minimum append-vs-rebuild speedup required for batches up to ROWS / 10.
EXPECTED_SPEEDUP = 5.0

#: Seed sizes of the single-row trickle.
TRICKLE_ROWS = (2000, 8000)

#: Single-row appends timed per trickle.
TRICKLE_APPENDS = 100


def _assert_identical(left, right) -> None:
    """Bit-identity guard: the benchmark must compare equal outputs."""
    if not (
        np.array_equal(left.words, right.words)
        and np.array_equal(left.counts, right.counts)
        and left.n_rows == right.n_rows
    ):
        raise AssertionError("delta append and full rebuild disagree")


def run_incremental_comparison(
    n_rows: int = BENCH_ROWS,
    batch_sizes: tuple[int, ...] = BATCH_SIZES,
) -> list[dict[str, object]]:
    """One row per batch size: append seconds, rebuild seconds, speedup."""
    pool = generate_dataset("tax", n_rows=n_rows + max(batch_sizes), seed=7).relation
    base = pool.take(range(n_rows))
    space = build_predicate_space(base)
    # Participation off: the serving counters run off words/counts alone,
    # and both sides of the comparison skip the same histogram work.
    store = EvidenceStore(base, space=space, include_participation=False)
    store.evidence()  # warm the seed finalize outside the timed region

    rows: list[dict[str, object]] = []
    for m in batch_sizes:
        batch = pool.take(range(n_rows, n_rows + m))

        trial = store.clone()
        started = time.perf_counter()
        trial.append(batch)
        append_seconds = time.perf_counter() - started
        incremental = trial.evidence()
        append_with_finalize = time.perf_counter() - started

        concatenated = base.copy()
        concatenated.append_rows(batch)
        started = time.perf_counter()
        rebuilt = build_evidence_set_tiled(
            concatenated, space, include_participation=False
        )
        rebuild_seconds = time.perf_counter() - started

        _assert_identical(incremental, rebuilt)
        rows.append({
            "batch_rows": m,
            "append_seconds": append_seconds,
            "append_finalize_seconds": append_with_finalize,
            "rebuild_seconds": rebuild_seconds,
            "speedup": rebuild_seconds / append_with_finalize,
            "delta_pairs": 2 * n_rows * m + m * (m - 1),
            "total_pairs": (n_rows + m) * (n_rows + m - 1),
            "evidences": len(rebuilt),
        })
    return rows


def run_single_row_trickle(
    n_rows: int, appends: int = TRICKLE_APPENDS
) -> dict[str, object]:
    """Tiles per single-row append and the append latency percentiles."""
    pool = generate_dataset("tax", n_rows=n_rows + appends, seed=7).relation
    store = EvidenceStore(pool.take(range(n_rows)))
    edge = store.builder.tile_edge(n_rows + 1)
    tiles = [tile for tile in delta_tiles(n_rows, n_rows + 1, edge) if tile.n_pairs]
    seconds = []
    for index in range(n_rows, n_rows + appends):
        row = [pool.row(index)]
        started = time.perf_counter()
        store.append(row)
        seconds.append(time.perf_counter() - started)
    p50, p90 = np.percentile(seconds, [50, 90]) * 1e3
    return {
        "n_rows": n_rows,
        "appends": appends,
        "tiles_per_append": len(tiles),
        "append_p50_ms": float(p50),
        "append_p90_ms": float(p90),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=BENCH_ROWS)
    parser.add_argument("--json", type=str, default=None,
                        help="also write results to this JSON file")
    parser.add_argument("--require-speedup", action="store_true",
                        help=f"fail unless every batch <= rows/10 appends "
                             f">= {EXPECTED_SPEEDUP}x faster than a rebuild")
    args = parser.parse_args()

    batch_sizes = tuple(m for m in BATCH_SIZES if m <= args.rows)
    rows = run_incremental_comparison(args.rows, batch_sizes)

    header = (
        f"{'batch':>6} {'append s':>9} {'+final s':>9} {'rebuild s':>10} "
        f"{'speedup':>8} {'delta pairs':>12} {'evidences':>10}"
    )
    print(f"Incremental store on {args.rows} seed rows:")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['batch_rows']:>6} {row['append_seconds']:>9.3f} "
            f"{row['append_finalize_seconds']:>9.3f} {row['rebuild_seconds']:>10.3f} "
            f"{row['speedup']:>7.1f}x {row['delta_pairs']:>12} {row['evidences']:>10}"
        )

    trickle = [run_single_row_trickle(n) for n in TRICKLE_ROWS]
    print(f"\nSingle-row appends ({TRICKLE_APPENDS} per seed, with participation):")
    print(f"{'seed rows':>10} {'tiles':>6} {'p50 ms':>8} {'p90 ms':>8}")
    for row in trickle:
        print(
            f"{row['n_rows']:>10} {row['tiles_per_append']:>6} "
            f"{row['append_p50_ms']:>8.2f} {row['append_p90_ms']:>8.2f}"
        )

    gated = [row for row in rows if row["batch_rows"] * 10 <= args.rows]
    worst = min((float(row["speedup"]) for row in gated), default=float("inf"))
    if gated and worst < EXPECTED_SPEEDUP:
        message = (
            f"delta append reached only {worst:.1f}x over full rebuild for "
            f"batches <= rows/10 (expected >= {EXPECTED_SPEEDUP}x)"
        )
        if args.require_speedup:
            print(f"ERROR: {message}", file=sys.stderr)
            return 1
        print(f"WARNING: {message}", file=sys.stderr)

    if args.json:
        payload = {
            "benchmark": "incremental",
            "n_rows": args.rows,
            "expected_speedup_small_batches": EXPECTED_SPEEDUP,
            "rows": rows,
            "single_row_trickle": trickle,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
