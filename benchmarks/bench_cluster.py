"""Distributed fabric — cluster evidence build vs the serial tiled builder.

Not a paper figure: this benchmark tracks the cluster layer of
``repro.cluster``.  Three sections:

1. **Speedup** — the benchmark relation's evidence set built serially
   (tiled) and over local *socket* workers at 1, 2 and 4 workers (real
   ``python -m repro.cluster.worker`` subprocesses on localhost TCP).  The
   ≥ ``EXPECTED_SPEEDUP``× bar at 4 workers applies on machines with at
   least 4 CPUs and is enforced with ``--require-speedup`` (CI runners are
   too noisy/narrow for a hard wall-clock gate; the JSON artifact tracks
   the trajectory).
2. **Correctness sweep** — {1, 2, 4} workers × {local, socket} transports,
   each bit-identical to ``method="tiled"``.
3. **Failure injection** — for each transport, a 2-worker build with one
   worker severed mid-shard; the shard must be re-issued and the result
   stay bit-identical.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_cluster.py \
        [--json BENCH_cluster.json] [--rows 1000] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import numpy as np

from repro.cluster import (
    LocalCluster,
    TileFoldContext,
    build_evidence_set_cluster,
    merge_partials_tree,
    shard_tasks,
)
from repro.core.evidence_builder import build_evidence_set_tiled
from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import generate_dataset
from repro.engine.kernel import TileKernel
from repro.engine.scheduler import TileScheduler

#: Rows of the benchmark relation (the "1k-row" reference point).
BENCH_ROWS = 1000

#: Worker counts swept by the speedup section.
WORKER_COUNTS = (1, 2, 4)

#: Speedup 4 socket workers must reach over the serial tiled builder when
#: the machine actually has 4 CPUs.
EXPECTED_SPEEDUP = 2.0

#: Rows of the (smaller) correctness/failure-injection relation.
VERIFY_ROWS = 120


def identical(left, right) -> bool:
    """Bit-identity of two evidence sets (words + multiplicities)."""
    return np.array_equal(left.words, right.words) and np.array_equal(
        left.counts, right.counts
    )


def measure_serial(relation, space) -> tuple[float, int]:
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        evidence = build_evidence_set_tiled(
            relation, space, include_participation=False
        )
        best = min(best, time.perf_counter() - started)
    return best, len(evidence)


def measure_cluster(relation, space, n_workers: int):
    """One cluster build: wall seconds, evidence count, result bytes."""
    with LocalCluster(n_workers, transport="socket") as cluster:
        started = time.perf_counter()
        evidence = build_evidence_set_cluster(
            relation, space, cluster, include_participation=False
        )
        elapsed = time.perf_counter() - started
        received = cluster.coordinator.bytes_received
    return elapsed, len(evidence), received


def run_speedup(relation, space, worker_counts) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    seconds, evidences = measure_serial(relation, space)
    rows.append({
        "builder": "tiled", "n_workers": "-", "seconds": seconds,
        "evidences": evidences,
    })
    baseline = seconds
    for n_workers in worker_counts:
        seconds, evidences, received = measure_cluster(relation, space, n_workers)
        rows.append({
            "builder": "cluster", "n_workers": n_workers, "seconds": seconds,
            "evidences": evidences, "result_bytes": received,
            "speedup_vs_tiled": baseline / seconds,
        })
    return rows


def run_correctness(verify_relation, verify_space, worker_counts) -> list[dict[str, object]]:
    reference = build_evidence_set_tiled(verify_relation, verify_space)
    rows: list[dict[str, object]] = []
    for transport in ("local", "socket"):
        for n_workers in worker_counts:
            with LocalCluster(n_workers, transport=transport) as cluster:
                built = build_evidence_set_cluster(
                    verify_relation, verify_space, cluster, tile_rows=24
                )
            rows.append({
                "transport": transport, "n_workers": n_workers,
                "failure_injected": False,
                "bit_identical": identical(built, reference),
            })
        rows.append(run_failure_injection(
            verify_relation, verify_space, reference, transport
        ))
    return rows


def run_failure_injection(relation, space, reference, transport) -> dict[str, object]:
    """Sever one of two workers mid-shard; shard re-issue must cover it."""
    kernel = TileKernel.from_relation(relation, space, include_participation=True)
    tiles = TileScheduler(relation.n_rows, tile_rows=24).tiles()
    tasks, weights = shard_tasks(tiles, 8)
    with LocalCluster(2, transport=transport) as cluster:
        context = TileFoldContext(kernel, tiles, delay_per_task=0.2)
        outcome: dict[str, object] = {}

        def submit():
            outcome["partials"] = cluster.submit(context, tasks, weights)

        runner = threading.Thread(target=submit)
        runner.start()
        time.sleep(0.3)  # both workers are inside a shard
        cluster.coordinator.disconnect_worker(cluster.coordinator.worker_ids[0])
        runner.join(timeout=120.0)
        evidence = merge_partials_tree(outcome["partials"]).finalize(space)
        reissued = cluster.coordinator.reissued_tasks
        failed = cluster.coordinator.failed_workers
    return {
        "transport": transport, "n_workers": 2, "failure_injected": True,
        "failed_workers": failed, "reissued_or_requeued": reissued,
        "bit_identical": identical(evidence, reference),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=BENCH_ROWS)
    parser.add_argument("--json", type=str, default=None,
                        help="also write results to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration: fewer rows, 2 workers max")
    parser.add_argument("--require-speedup", action="store_true",
                        help=f"fail unless 4 workers reach {EXPECTED_SPEEDUP}x "
                             "(implied soft check runs when >= 4 CPUs are present)")
    args = parser.parse_args()

    n_rows = min(args.rows, 300) if args.smoke else args.rows
    worker_counts = (1, 2) if args.smoke else WORKER_COUNTS
    cpu_count = os.cpu_count() or 1

    relation = generate_dataset("tax", n_rows=n_rows, seed=7).relation
    space = build_predicate_space(relation)
    verify_relation = generate_dataset("tax", n_rows=VERIFY_ROWS, seed=11).relation
    verify_space = build_predicate_space(verify_relation)

    print(f"Cluster evidence build on {n_rows} rows ({cpu_count} CPUs):")
    speedup_rows = run_speedup(relation, space, worker_counts)
    header = (
        f"{'builder':<9} {'workers':>7} {'seconds':>9} {'speedup':>8} "
        f"{'result KB':>10} {'evidences':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in speedup_rows:
        speedup = row.get("speedup_vs_tiled")
        speedup_text = f"{speedup:.2f}x" if speedup is not None else "-"
        kb = row.get("result_bytes")
        kb_text = f"{kb / 1024:.1f}" if kb is not None else "-"
        print(
            f"{row['builder']:<9} {str(row['n_workers']):>7} "
            f"{row['seconds']:>9.3f} {speedup_text:>8} {kb_text:>10} "
            f"{row['evidences']:>10}"
        )

    failures: list[str] = []
    sizes = {row["evidences"] for row in speedup_rows}
    if len(sizes) != 1:
        failures.append(f"builders disagree on evidence count: {sizes}")

    correctness_rows = run_correctness(verify_relation, verify_space, worker_counts)
    print(f"\ncorrectness sweep on {VERIFY_ROWS} rows:")
    for row in correctness_rows:
        status = "ok" if row["bit_identical"] else "MISMATCH"
        failure_text = " +1 worker killed mid-shard" if row["failure_injected"] else ""
        print(
            f"  {row['transport']:>6} x {row['n_workers']} workers"
            f"{failure_text}: {status}"
        )
        if not row["bit_identical"]:
            failures.append(
                f"cluster build not bit-identical: {row['transport']} "
                f"x {row['n_workers']} (failure={row['failure_injected']})"
            )

    best_speedup = max(
        float(row.get("speedup_vs_tiled", 0.0)) for row in speedup_rows
    )
    if cpu_count >= 4 and not args.smoke and best_speedup < EXPECTED_SPEEDUP:
        message = (
            f"cluster build reached only {best_speedup:.2f}x on {cpu_count} CPUs "
            f"(expected >= {EXPECTED_SPEEDUP}x)"
        )
        if args.require_speedup:
            failures.append(message)
        else:
            print(f"WARNING: {message}", file=sys.stderr)
    elif cpu_count < 4:
        print(
            f"note: {cpu_count} CPU(s) available; the {EXPECTED_SPEEDUP}x target "
            "applies on >= 4 CPUs"
        )

    if args.json:
        payload = {
            "benchmark": "cluster",
            "n_rows": n_rows,
            "cpu_count": cpu_count,
            "smoke": args.smoke,
            "expected_speedup_at_4_workers": EXPECTED_SPEEDUP,
            "speedup": speedup_rows,
            "correctness": correctness_rows,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    for message in failures:
        print(f"ERROR: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
