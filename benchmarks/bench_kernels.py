"""Native kernel layer — the compiled C backend vs the numpy reference.

Not a paper figure: this benchmark tracks the compiled C kernels
(:mod:`repro.native.cext`) against the pure-numpy reference backend they
are dispatched over.  Three measurement families:

* **micro-kernels** — ``popcount``, the fused per-evidence intersection
  counts and the one-call tile pass on synthetic planes shaped like the
  real workloads;
* **end-to-end evidence build** — the tiled builder on the tax relation
  under each backend (the tile pass dominates), outputs asserted
  bit-identical;
* **end-to-end enumeration** — ``ADCEnum`` nodes/second on the
  Figure-6-style tax workload (f1, ``epsilon = 0.01``,
  ``max_dc_size = 3``) under each backend, outputs asserted bit-identical.

The acceptance bars of the native layer are enforced with
``--require-speedup``: enumeration nodes/second >= 3x and evidence build
>= 2x over the numpy backend.  Without a C compiler on the host the
script reports numpy-only numbers (and fails only under the gate).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        [--json BENCH_kernels.json] [--rows 400] [--require-speedup]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1
from repro.core.evidence_builder import build_evidence_set_tiled
from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import generate_dataset
from repro.engine.kernel import TileKernel
from repro.native import NumpyKernels, dispatch

#: Rows of the benchmark relation (Figure-6-style tax workload).
BENCH_ROWS = 400

#: Enumeration configuration, matching ``bench_enum_core``'s headline row.
EPSILON = 0.01
MAX_DC_SIZE = 3

#: Acceptance bars of the native layer over the numpy backend.
EXPECTED_ENUM_SPEEDUP = 3.0
EXPECTED_BUILD_SPEEDUP = 2.0

#: Timing repetitions (best-of).
REPEATS = 3


def _compiled_backend():
    """The C backend of this host, or ``None`` when it does not build.

    Resolved explicitly (not through the environment) so the benchmark can
    compare both backends regardless of what ``REPRO_NATIVE`` selects for
    the process default.
    """
    try:
        return dispatch.resolve_backend("cext")
    except RuntimeError:
        return None


def _best_seconds(fn, repeats: int = REPEATS, inner: int = 1) -> float:
    """Best per-call wall time of ``fn`` over ``repeats`` x ``inner`` runs."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - started) / inner)
    return best


def _micro_rows(compiled, packed) -> list[dict[str, object]]:
    """One row per micro-kernel: compiled vs numpy on synthetic planes."""
    rng = np.random.default_rng(7)
    numpy_kernels = NumpyKernels()

    words = rng.integers(0, 2**64, size=1 << 20, dtype=np.uint64)
    planes = rng.integers(0, 2**64, size=(8, 50_000), dtype=np.uint64)
    mask = rng.integers(0, 2**64, size=8, dtype=np.uint64)
    kinds, a, b, lookup = packed
    n_words = lookup.shape[2]
    n_rows = a.shape[1]
    tile = min(128, n_rows)

    cases = [
        ("popcount", lambda k: k.popcount(words)),
        ("intersection_counts", lambda k: k.intersection_counts(planes, mask)),
        (
            "tile_plane",
            lambda k: k.tile_plane(kinds, a, b, lookup, 0, tile, 0, tile, n_words),
        ),
    ]
    rows = []
    for name, call in cases:
        reference = call(numpy_kernels)
        numpy_seconds = _best_seconds(lambda: call(numpy_kernels), inner=5)
        row: dict[str, object] = {"kernel": name, "numpy_seconds": numpy_seconds}
        if compiled is not None:
            assert np.array_equal(np.asarray(call(compiled.kernels)), np.asarray(reference)), name
            native_seconds = _best_seconds(lambda: call(compiled.kernels), inner=5)
            row["native_seconds"] = native_seconds
            row["speedup"] = numpy_seconds / native_seconds if native_seconds else 0.0
        rows.append(row)
    return rows


def _build_row(compiled, relation, space) -> dict[str, object]:
    """End-to-end tiled evidence build under each backend."""

    def build(backend):
        with dispatch.use_backend(backend):
            return build_evidence_set_tiled(relation, space)

    reference = build("numpy")
    numpy_seconds = _best_seconds(lambda: build("numpy"))
    row: dict[str, object] = {
        "n_evidences": len(reference),
        "numpy_seconds": numpy_seconds,
    }
    if compiled is not None:
        native = build(compiled)
        assert np.array_equal(native.words, reference.words)
        assert np.array_equal(native.counts, reference.counts)
        native_seconds = _best_seconds(lambda: build(compiled))
        row["native_seconds"] = native_seconds
        row["speedup"] = numpy_seconds / native_seconds if native_seconds else 0.0
        row["bit_identical"] = True
    return row


def _enum_row(compiled, evidence) -> dict[str, object]:
    """End-to-end enumeration nodes/second under each backend."""

    def run(backend):
        with dispatch.use_backend(backend):
            enumerator = ADCEnum(
                evidence, F1(), EPSILON, selection="max", max_dc_size=MAX_DC_SIZE
            )
            started = time.perf_counter()
            adcs = enumerator.enumerate()
            elapsed = time.perf_counter() - started
            return elapsed, enumerator.statistics, adcs

    def best(backend):
        runs = [run(backend) for _ in range(REPEATS)]
        return min(runs, key=lambda r: r[0])

    numpy_seconds, numpy_stats, numpy_adcs = best("numpy")
    row: dict[str, object] = {
        "epsilon": EPSILON,
        "max_dc_size": MAX_DC_SIZE,
        "nodes": numpy_stats.recursive_calls,
        "dcs": len(numpy_adcs),
        "numpy_seconds": numpy_seconds,
        "numpy_nodes_per_second": numpy_stats.recursive_calls / numpy_seconds,
    }
    if compiled is not None:
        native_seconds, native_stats, native_adcs = best(compiled)
        assert [(a.hitting_set_mask, a.violation_score) for a in native_adcs] == [
            (a.hitting_set_mask, a.violation_score) for a in numpy_adcs
        ]
        assert native_stats.recursive_calls == numpy_stats.recursive_calls
        row["native_seconds"] = native_seconds
        row["native_nodes_per_second"] = native_stats.recursive_calls / native_seconds
        row["speedup"] = numpy_seconds / native_seconds if native_seconds else 0.0
        row["bit_identical"] = True
    return row


def run_kernel_comparison(n_rows: int = BENCH_ROWS) -> dict[str, object]:
    compiled = _compiled_backend()
    relation = generate_dataset("tax", n_rows=n_rows, seed=7).relation
    space = build_predicate_space(relation)
    # Warm the factorization caches and the packed tile kernel once so
    # neither backend pays one-time costs inside the timed region.
    kernel = TileKernel.from_relation(relation, space)
    evidence = build_evidence_set_tiled(relation, space)

    return {
        "benchmark": "kernels",
        "n_rows": n_rows,
        "compiled_backend": compiled.name if compiled is not None else None,
        "expected_enum_speedup": EXPECTED_ENUM_SPEEDUP,
        "expected_build_speedup": EXPECTED_BUILD_SPEEDUP,
        "micro": _micro_rows(compiled, kernel._packed),
        "evidence_build": _build_row(compiled, relation, space),
        "enumeration": _enum_row(compiled, evidence),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=BENCH_ROWS)
    parser.add_argument("--json", type=str, default=None,
                        help="also write results to this JSON file")
    parser.add_argument("--require-speedup", action="store_true",
                        help=f"fail unless enumeration reaches "
                             f"{EXPECTED_ENUM_SPEEDUP}x and the evidence "
                             f"build {EXPECTED_BUILD_SPEEDUP}x")
    args = parser.parse_args()

    results = run_kernel_comparison(args.rows)
    compiled_name = results["compiled_backend"]

    print(f"Native kernel layer on tax x {args.rows} rows "
          f"(compiled backend: {compiled_name or 'none'}, best of {REPEATS}):")
    header = f"{'kernel':>22} {'numpy s':>10} {'native s':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for row in results["micro"]:
        native = row.get("native_seconds")
        native_text = f"{native:.6f}" if native is not None else "-"
        speedup = row.get("speedup")
        speedup_text = f"{speedup:.2f}x" if speedup is not None else "-"
        print(f"{row['kernel']:>22} {row['numpy_seconds']:>10.6f} "
              f"{native_text:>10} {speedup_text:>8}")
    build = results["evidence_build"]
    enum = results["enumeration"]
    for label, row in (("evidence build", build), ("enumeration", enum)):
        native = row.get("native_seconds")
        native_text = f"{native:.3f}" if native is not None else "-"
        speedup = row.get("speedup")
        speedup_text = f"{speedup:.2f}x" if speedup is not None else "-"
        print(f"{label:>22} {row['numpy_seconds']:>10.3f} "
              f"{native_text:>10} {speedup_text:>8}")
    if "native_nodes_per_second" in enum:
        print(f"\nnodes/second: {enum['numpy_nodes_per_second']:,.0f} (numpy) "
              f"-> {enum['native_nodes_per_second']:,.0f} ({compiled_name})")

    # Write the artifact before evaluating the gates: when a gate fails,
    # the per-kernel timings are exactly the data needed to diagnose it.
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"wrote {args.json}")

    failures = []
    if compiled_name is None:
        failures.append("no compiled backend available on this host")
    else:
        if enum["speedup"] < EXPECTED_ENUM_SPEEDUP:
            failures.append(
                f"enumeration speedup {enum['speedup']:.2f}x < "
                f"{EXPECTED_ENUM_SPEEDUP}x"
            )
        if build["speedup"] < EXPECTED_BUILD_SPEEDUP:
            failures.append(
                f"evidence build speedup {build['speedup']:.2f}x < "
                f"{EXPECTED_BUILD_SPEEDUP}x"
            )
    for message in failures:
        stream = sys.stderr if args.require_speedup else sys.stdout
        prefix = "ERROR" if args.require_speedup else "WARNING"
        print(f"{prefix}: {message}", file=stream)
    return 1 if (failures and args.require_speedup) else 0


if __name__ == "__main__":
    sys.exit(main())
