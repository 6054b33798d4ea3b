"""Enumeration core — word-native ADCEnum vs the pre-refactor enumerator.

Not a paper figure: this benchmark tracks the word-native enumeration core
on a Figure-6-style workload (the tax relation, full predicate space, f1,
``max_dc_size=3``).  It sweeps epsilon in {0, 0.01, 0.05} crossed with the
three evidence-selection strategies, reporting wall-clock seconds, search
nodes and nodes/second for the word-native :class:`repro.core.adc_enum.ADCEnum`.
At every epsilon (selection "max", plus all selections at the reference
epsilon 0.01) it also runs the frozen pre-refactor enumerator
(``LegacyADCEnum`` in ``tests/legacy_enum.py``), asserts the two emit
bit-identical DiscoveredADC lists, and reports the speedup.  The headline
number is the speedup at epsilon = 0.01, which must stay above
``EXPECTED_SPEEDUP``.

Results are also written as a JSON artifact (``--json PATH``) so CI can
archive the perf trajectory next to ``BENCH_incremental.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_enum_core.py \
        [--json BENCH_enum_core.json] [--rows 400] [--require-speedup]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# The pre-refactor enumerator is a test oracle, kept under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1
from repro.core.evidence_builder import build_evidence_set
from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import generate_dataset
from tests.legacy_enum import LegacyADCEnum

#: Rows of the benchmark relation (Figure-6-style tax workload).
BENCH_ROWS = 400

#: Epsilon sweep; EPSILON_REFERENCE carries the speedup acceptance bar.
EPSILONS = (0.0, 0.01, 0.05)
EPSILON_REFERENCE = 0.01

#: Evidence-selection strategies of Figure 10.
SELECTIONS = ("max", "min", "random")

#: Per-DC predicate cap, matching the experiment harness configuration.
MAX_DC_SIZE = 3

#: Required speedup of the word-native core over the pre-refactor one at
#: the reference epsilon.
EXPECTED_SPEEDUP = 3.0

#: Timing repetitions (best-of).
REPEATS = 3


def _discovered(adcs):
    return [(adc.hitting_set_mask, adc.violation_score) for adc in adcs]


def _best_of(factory, repeats: int = REPEATS):
    """Best wall time over ``repeats`` runs; returns (seconds, enumerator, adcs)."""
    best = None
    for _ in range(repeats):
        enumerator = factory()
        started = time.perf_counter()
        adcs = enumerator.enumerate()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, enumerator, adcs)
    return best


def run_enum_core_comparison(n_rows: int = BENCH_ROWS) -> list[dict[str, object]]:
    """One row per (epsilon, selection) configuration."""
    relation = generate_dataset("tax", n_rows=n_rows, seed=7).relation
    space = build_predicate_space(relation)
    evidence = build_evidence_set(relation, space)

    rows: list[dict[str, object]] = []
    for epsilon in EPSILONS:
        for selection in SELECTIONS:
            seconds, enumerator, adcs = _best_of(
                lambda: ADCEnum(evidence, F1(), epsilon, selection=selection,
                                max_dc_size=MAX_DC_SIZE)
            )
            nodes = enumerator.statistics.recursive_calls
            row: dict[str, object] = {
                "epsilon": epsilon,
                "selection": selection,
                "seconds": seconds,
                "nodes": nodes,
                "nodes_per_second": nodes / seconds if seconds else 0.0,
                "dcs": len(adcs),
            }
            # The legacy baseline is expensive; run it where it matters —
            # selection "max" at every epsilon, all selections at the
            # reference epsilon — and confirm bit-identical output.
            if selection == "max" or epsilon == EPSILON_REFERENCE:
                legacy_seconds, _, legacy_adcs = _best_of(
                    lambda: LegacyADCEnum(evidence, F1(), epsilon,
                                          selection=selection,
                                          max_dc_size=MAX_DC_SIZE)
                )
                if _discovered(adcs) != _discovered(legacy_adcs):
                    raise AssertionError(
                        f"word-native output differs from pre-refactor at "
                        f"epsilon={epsilon}, selection={selection}"
                    )
                row["legacy_seconds"] = legacy_seconds
                row["speedup_vs_legacy"] = legacy_seconds / seconds if seconds else 0.0
                row["bit_identical"] = True
            rows.append(row)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=BENCH_ROWS)
    parser.add_argument("--json", type=str, default=None,
                        help="also write results to this JSON file")
    parser.add_argument("--require-speedup", action="store_true",
                        help=f"fail unless the epsilon={EPSILON_REFERENCE} "
                             f"speedup reaches {EXPECTED_SPEEDUP}x")
    args = parser.parse_args()

    rows = run_enum_core_comparison(args.rows)

    header = (
        f"{'epsilon':>8} {'selection':>9} {'seconds':>9} {'nodes':>8} "
        f"{'nodes/s':>10} {'dcs':>6} {'legacy s':>9} {'speedup':>8}"
    )
    print(f"Enumeration core on tax x {args.rows} rows "
          f"(f1, max_dc_size={MAX_DC_SIZE}, best of {REPEATS}):")
    print(header)
    print("-" * len(header))
    for row in rows:
        legacy = row.get("legacy_seconds")
        legacy_text = f"{legacy:.3f}" if legacy is not None else "-"
        speedup = row.get("speedup_vs_legacy")
        speedup_text = f"{speedup:.2f}x" if speedup is not None else "-"
        print(
            f"{row['epsilon']:>8} {row['selection']:>9} {row['seconds']:>9.3f} "
            f"{row['nodes']:>8} {row['nodes_per_second']:>10,.0f} {row['dcs']:>6} "
            f"{legacy_text:>9} {speedup_text:>8}"
        )

    reference_speedups = [
        float(row["speedup_vs_legacy"])
        for row in rows
        if row["epsilon"] == EPSILON_REFERENCE and "speedup_vs_legacy" in row
    ]
    best_reference = max(reference_speedups) if reference_speedups else 0.0
    print(f"\nbest speedup at epsilon={EPSILON_REFERENCE}: {best_reference:.2f}x "
          f"(target {EXPECTED_SPEEDUP}x)")

    # Write the artifact before evaluating the gate: when the gate fails,
    # the per-configuration timings are exactly the data needed to diagnose
    # the regression.
    if args.json:
        payload = {
            "benchmark": "enum_core",
            "n_rows": args.rows,
            "max_dc_size": MAX_DC_SIZE,
            "expected_speedup": EXPECTED_SPEEDUP,
            "reference_epsilon": EPSILON_REFERENCE,
            "best_reference_speedup": best_reference,
            "rows": rows,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if best_reference < EXPECTED_SPEEDUP:
        message = (
            f"word-native core reached only {best_reference:.2f}x at "
            f"epsilon={EPSILON_REFERENCE} (expected >= {EXPECTED_SPEEDUP}x)"
        )
        if args.require_speedup:
            print(f"ERROR: {message}", file=sys.stderr)
            return 1
        print(f"WARNING: {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
