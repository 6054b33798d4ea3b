"""Durability layer — WAL append overhead and recovery time vs log length.

Not a paper figure: this benchmark tracks the crash-safety layer of
``repro.durability``.  It measures the two costs durability introduces:

* **Append overhead.**  Each journaled append pays one WAL record write
  plus one fsync (policy ``commit``) inside the store's ``pre_commit``
  hook, before the in-memory fold commits.  At the default 2000 base rows
  the fold dominates, so the WAL-on p50 must stay within
  ``MAX_OVERHEAD_RATIO`` of the in-memory p50 (enforced with
  ``--require-overhead``; CI runs the smoke variant informationally).
  The two modes run alternately, :data:`APPEND_PAIRS` rounds, and the
  overhead is the median of the per-round p50 ratios: a slow phase of a
  shared host then moves one ratio, not the whole comparison.
* **Recovery time vs log length.**  Recovery replays the WAL tail behind
  the newest snapshot; the benchmark recovers journals holding k appended
  batches with and without a final snapshot, showing compaction flattening
  the replay cost.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_durability.py \
        [--json BENCH_durability.json] [--rows 2000] [--require-overhead] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data.datasets import generate_dataset
from repro.data.relation import Relation
from repro.data.types import ColumnType
from repro.durability.journal import StoreJournal, plain_rows, relation_types
from repro.incremental.store import EvidenceStore

#: Rows of the base relation the appends land on.
BENCH_ROWS = 2000

#: Single-row appends measured per mode and round.
APPEND_REPS = 60

#: Alternating in-memory / WAL-on rounds of the append measurement.
APPEND_PAIRS = 7

#: WAL-on p50 must stay within this multiple of the in-memory p50.
MAX_OVERHEAD_RATIO = 1.5

#: Appended batches per recovery scenario (the WAL length axis).
RECOVERY_LENGTHS = (8, 32, 128)


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) of ``values`` by nearest-rank."""
    ranked = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ranked)) - 1)
    return ranked[rank]


def make_rows(n_rows: int, extra: int) -> tuple[list[dict], dict[str, str]]:
    relation = generate_dataset("tax", n_rows + extra, seed=5).relation
    return plain_rows(relation), relation_types(relation)


def build_store(base: list[dict], types: dict[str, str]) -> EvidenceStore:
    column_types = {column: ColumnType(text) for column, text in types.items()}
    return EvidenceStore(Relation.from_records("bench", base, column_types))


def _append_latencies(
    base: list[dict], feed: list[dict], types: dict[str, str], reps: int, mode: str
) -> list[float]:
    """Seconds of ``reps`` single-row appends to a fresh store, in memory
    or journaled (fsync=commit)."""
    store = build_store(base, types)
    journal = None
    tmp = None
    if mode == "wal":
        tmp = tempfile.mkdtemp(prefix="bench-durability-")
        journal = StoreJournal.create(
            Path(tmp) / "bench", "bench", base, types, fsync="commit"
        )
    samples: list[float] = []
    for index in range(reps):
        row = feed[index % len(feed)]
        started = time.perf_counter()
        if journal is None:
            store.append([row])
        else:
            store.append(
                [row],
                pre_commit=lambda n, r=row, k=index: journal.log_append(
                    [r], [[f"bench-{k}", 1]]
                ),
            )
        samples.append(time.perf_counter() - started)
    if journal is not None:
        journal.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return samples


def measure_append_overhead(
    base: list[dict], feed: list[dict], types: dict[str, str], reps: int, pairs: int
) -> dict[str, object]:
    """Single-row append p50/p99, in-memory vs journaled (fsync=commit).

    ``pairs`` rounds each run both modes, in alternating order; the
    overhead is the median of the rounds' WAL-on / in-memory p50 ratios,
    and the p50/p99 columns pool every round's samples.
    """
    latencies: dict[str, list[float]] = {"memory": [], "wal": []}
    ratios = []
    for round_index in range(pairs):
        modes = ("memory", "wal") if round_index % 2 == 0 else ("wal", "memory")
        p50 = {}
        for mode in modes:
            samples = _append_latencies(base, feed, types, reps, mode)
            latencies[mode].extend(samples)
            p50[mode] = percentile(samples, 50)
        ratios.append(p50["wal"] / p50["memory"])
    return {
        "reps": reps,
        "pairs": pairs,
        "memory_p50_ms": percentile(latencies["memory"], 50) * 1e3,
        "memory_p99_ms": percentile(latencies["memory"], 99) * 1e3,
        "wal_p50_ms": percentile(latencies["wal"], 50) * 1e3,
        "wal_p99_ms": percentile(latencies["wal"], 99) * 1e3,
        "paired_ratios": ratios,
        "overhead_ratio_p50": statistics.median(ratios),
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
    }


def measure_recovery(
    base: list[dict], feed: list[dict], types: dict[str, str], lengths: tuple[int, ...]
) -> list[dict[str, object]]:
    """Recovery wall time for k-append WALs, with and without a snapshot."""
    results = []
    for k in lengths:
        for compacted in (False, True):
            tmp = tempfile.mkdtemp(prefix="bench-durability-")
            directory = Path(tmp) / "bench"
            journal = StoreJournal.create(directory, "bench", base, types)
            store = build_store(base, types)
            for index in range(k):
                row = feed[index % len(feed)]
                store.append(
                    [row],
                    pre_commit=lambda n, r=row: journal.log_append([r], [[None, 1]]),
                )
            if compacted:
                journal.snapshot(store, None)
            wal_bytes = journal.wal.size_bytes
            journal.close()

            started = time.perf_counter()
            recovered = StoreJournal.recover(directory)
            elapsed = time.perf_counter() - started
            assert recovered.store.n_rows == len(base) + k
            recovered.journal.close()
            shutil.rmtree(tmp, ignore_errors=True)
            results.append({
                "appended_batches": k,
                "snapshot": compacted,
                "wal_bytes": wal_bytes,
                "source": recovered.stats.source,
                "replayed_records": recovered.stats.replayed_records,
                "recovery_seconds": elapsed,
            })
    return results


def run_durability_benchmark(
    n_rows: int, reps: int, pairs: int, lengths: tuple[int, ...]
) -> dict[str, object]:
    feed_len = max(reps, max(lengths))
    rows, types = make_rows(n_rows, feed_len)
    base, feed = rows[:n_rows], rows[n_rows:]
    overhead = measure_append_overhead(base, feed, types, reps, pairs)
    print(
        f"append @{n_rows} rows: memory p50 {overhead['memory_p50_ms']:.2f} ms, "
        f"wal p50 {overhead['wal_p50_ms']:.2f} ms "
        f"(median paired ratio {overhead['overhead_ratio_p50']:.2f} of {pairs}, "
        f"bound {MAX_OVERHEAD_RATIO})"
    )
    recovery = measure_recovery(base, feed, types, lengths)
    for entry in recovery:
        print(
            f"recovery k={entry['appended_batches']:<4} "
            f"snapshot={str(entry['snapshot']):<5} "
            f"source={entry['source']:<12} {entry['recovery_seconds']*1e3:.1f} ms"
        )
    return {
        "benchmark": "durability",
        "rows": n_rows,
        "append_overhead": overhead,
        "recovery": recovery,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=BENCH_ROWS)
    parser.add_argument("--json", type=Path, default=None, metavar="PATH")
    parser.add_argument(
        "--require-overhead", action="store_true",
        help=f"fail unless the median paired WAL-on / in-memory append p50 "
             f"ratio is within {MAX_OVERHEAD_RATIO}x",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI wiring checks (no perf claims)",
    )
    args = parser.parse_args()

    n_rows = 200 if args.smoke else args.rows
    reps = 12 if args.smoke else APPEND_REPS
    pairs = 3 if args.smoke else APPEND_PAIRS
    lengths = (4, 16) if args.smoke else RECOVERY_LENGTHS
    results = run_durability_benchmark(n_rows, reps, pairs, lengths)

    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")

    ratio = results["append_overhead"]["overhead_ratio_p50"]
    if args.require_overhead and ratio > MAX_OVERHEAD_RATIO:
        print(
            f"FAIL: WAL append overhead {ratio:.2f}x exceeds the "
            f"{MAX_OVERHEAD_RATIO}x bound"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
