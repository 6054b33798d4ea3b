"""Native kernel layer — the compiled C backend vs the numpy reference.

Not a paper figure: this benchmark tracks the compiled C kernels
(:mod:`repro.native.cext`) against the pure-numpy reference backend they
are dispatched over.  Six measurement families:

* **micro-kernels** — the tile pass on the tax relation's planes (a
  square tile of edge 256 and both one-row strip shapes) and
  ``unique_rows`` on that tile's evidence words, with nanoseconds per pair;
* **tile folds** — ``fold_tiles`` over a whole build's schedule, in
  nanoseconds per pair: the ``mine-wide`` relation (a 30% sample of 8,000
  tax rows, 2,400 rows) without participation, as ADCMiner folds it for
  f1', and 2,000 tax rows with participation, as an evidence store seeds.
  The compiled fold is one native call; the numpy fold runs the per-tile
  steps.  Outputs are asserted bit-identical;
* **end-to-end evidence build** — the tiled builder on the tax relation
  under each backend (the tile pass dominates), outputs asserted
  bit-identical;
* **end-to-end enumeration** — ``ADCEnum`` nodes/second on the
  Figure-6-style tax workload (f1, ``epsilon = 0.01``,
  ``max_dc_size = 3``) under each backend, outputs and counters asserted
  identical.  f1 is pair-determined, so the compiled backend runs the
  whole search in its C driver and the numpy backend runs the Python
  driver.  The two backends' runs alternate, and the reported speedup is
  the median of the per-pair ratios: a slow phase of a shared host then
  costs one pair, not the whole comparison;
* **Python-driver enumeration** — the same row for f1' (``z = 1.645``) at
  ``epsilon = 0.5``, where f1' has no integer pass bound: both backends
  run the Python driver, the compiled one over its arena's per-node
  operations, so this row guards the path f2, f3 and f1' from ``epsilon
  = 0.5`` on take;
* **backend resolution** — the first ``get_backend()`` of a fresh
  interpreter (imports excluded), median over :data:`RESOLUTION_RUNS`
  processes each with a cold probe verdict (the process probes the
  library and caches the verdict) and a warm one (the process finds the
  verdict and skips the probe).  Every server start, recovery and miner
  process pays this once.

The acceptance bars of the native layer are enforced with
``--require-speedup``: enumeration nodes/second >= 3x and Python-driver
enumeration >= 2x (median paired ratios), evidence build >= 2x (best of
:data:`REPEATS`) over the numpy backend.  The Python-driver bar is lower
because that search still scores f1' in Python at every node.  Without a C compiler on the host the script reports numpy-only
numbers (and fails only under the gate).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        [--json BENCH_kernels.json] [--rows 400] [--require-speedup]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1, F1Adjusted
from repro.core.evidence_builder import build_evidence_set_tiled
from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import generate_dataset
from repro.engine.kernel import TileKernel
from repro.engine.scheduler import block_tiles, choose_tile_rows
import repro
from repro.native import NumpyKernels, dispatch
from repro.native.build import build_library

#: Rows of the benchmark relation (Figure-6-style tax workload).
BENCH_ROWS = 400

#: Enumeration configuration, matching ``bench_enum_core``'s headline row.
EPSILON = 0.01
MAX_DC_SIZE = 3

#: The Python-driver row: f1' at the smallest threshold without an
#: integer pass bound.
PY_DRIVER_CONFIDENCE_Z = 1.645
PY_DRIVER_EPSILON = 0.5

#: Acceptance bars of the native layer over the numpy backend.
EXPECTED_ENUM_SPEEDUP = 3.0
EXPECTED_PY_DRIVER_SPEEDUP = 2.0
EXPECTED_BUILD_SPEEDUP = 2.0

#: Timing repetitions of the micro-kernels and the build (best-of).
REPEATS = 3

#: Alternating numpy/compiled enumeration pairs (median of the ratios).
ENUM_PAIRS = 5

#: Edge of the square tile the per-tile kernels are timed on.
TILE_EDGE = 256

#: Fresh interpreters per side (cold and warm verdict) of the
#: backend-resolution row.
RESOLUTION_RUNS = 6

#: Run in a fresh interpreter: the seconds of its first ``get_backend()``.
_FIRST_GET_BACKEND = """
import time
from repro.native.dispatch import get_backend
started = time.perf_counter()
backend = get_backend()
print(time.perf_counter() - started, backend.name)
"""

#: The tile-fold rows: ``(label, tax rows, sample fraction, participation)``.
#: The first is the ``mine-wide`` relation's sample, the second a store seed.
FOLD_CASES = (
    ("mine-wide 2400", 8000, 0.3, False),
    ("tax 2000 +participation", 2000, 1.0, True),
)


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
    """One row per micro-kernel: compiled vs numpy, with nanoseconds per pair.

    The tile pass runs on the tax relation's own planes — a square tile of
    edge :data:`TILE_EDGE` and the two strip shapes a one-row append or
    ``check_batch`` row is cut into (1 x n and n x 1) — and ``unique_rows``
    deduplicates the square tile's real evidence words.
    """
    numpy_kernels = NumpyKernels()

    kinds, a, b, lookup = packed
    n_words = lookup.shape[2]
    n_rows = a.shape[1]
    edge = min(TILE_EDGE, n_rows)
    row = n_rows // 2

    def tile(i0, i1, j0, j1):
        return lambda k: k.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words)

    tile_words = numpy_kernels.tile_plane(kinds, a, b, lookup, 0, edge, 0, edge, n_words)
    cases = [
        (f"tile_plane {edge}x{edge}", tile(0, edge, 0, edge), edge * edge),
        (f"tile_plane 1x{n_rows}", tile(row, row + 1, 0, n_rows), n_rows),
        (f"tile_plane {n_rows}x1", tile(0, n_rows, row, row + 1), n_rows),
        (f"unique_rows {edge}x{edge}", lambda k: k.unique_rows(tile_words), edge * edge),
    ]
    rows = []
    for name, call, pairs in cases:
        reference = call(numpy_kernels)
        numpy_seconds = _best_seconds(lambda: call(numpy_kernels), inner=5)
        row: dict[str, object] = {
            "kernel": name,
            "numpy_seconds": numpy_seconds,
            "pairs": pairs,
            "numpy_ns_per_pair": numpy_seconds * 1e9 / pairs,
        }
        if compiled is not None:
            native = call(compiled.kernels)
            if isinstance(reference, tuple):
                assert all(np.array_equal(x, y) for x, y in zip(native, reference)), name
            else:
                assert np.array_equal(np.asarray(native), np.asarray(reference)), name
            native_seconds = _best_seconds(lambda: call(compiled.kernels), inner=5)
            row["native_seconds"] = native_seconds
            row["speedup"] = numpy_seconds / native_seconds if native_seconds else 0.0
            row["native_ns_per_pair"] = native_seconds * 1e9 / pairs
        rows.append(row)
    return rows


def _fold_rows(compiled) -> list[dict[str, object]]:
    """One row per :data:`FOLD_CASES` entry: a whole schedule's fold.

    The compiled fold is timed best of :data:`REPEATS`; the numpy fold,
    some 200x slower, is timed once, on the call that provides the
    reference output.
    """
    rows = []
    for label, n_rows, fraction, participation in FOLD_CASES:
        relation = generate_dataset("tax", n_rows=n_rows, seed=0).relation
        space = build_predicate_space(relation)
        sample = relation.sample(fraction, seed=0)
        kernel = TileKernel.from_relation(sample, space, participation)
        kinds, a, b, lookup = kernel._packed
        edge = choose_tile_rows(sample.n_rows, kernel.n_words)
        tiles = block_tiles((0, sample.n_rows), (0, sample.n_rows), edge)
        bounds = np.array([(t.i0, t.i1, t.j0, t.j1) for t in tiles], dtype=np.int64)
        pairs = sample.n_rows * (sample.n_rows - 1)

        def fold(kernels):
            return kernels.fold_tiles(kinds, a, b, lookup, bounds, kernel.n_words, participation)

        started = time.perf_counter()
        reference = fold(NumpyKernels)
        numpy_seconds = time.perf_counter() - started
        row: dict[str, object] = {
            "kernel": f"fold_tiles {label}",
            "rows": sample.n_rows,
            "tiles": len(tiles),
            "pairs": pairs,
            "participation": participation,
            "n_evidences": len(reference[0]),
            "numpy_seconds": numpy_seconds,
            "numpy_ns_per_pair": numpy_seconds * 1e9 / pairs,
        }
        if compiled is not None:
            native = fold(compiled.kernels)
            assert all(
                (x is None and y is None) or np.array_equal(x, y)
                for x, y in zip(native, reference)
            ), label
            native_seconds = _best_seconds(lambda: fold(compiled.kernels))
            row["native_seconds"] = native_seconds
            row["native_ns_per_pair"] = native_seconds * 1e9 / pairs
            row["speedup"] = numpy_seconds / native_seconds if native_seconds else 0.0
            row["bit_identical"] = True
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


def _enum_row(compiled, evidence, function, epsilon) -> dict[str, object]:
    """End-to-end enumeration nodes/second under each backend.

    Runs alternate between the backends, :data:`ENUM_PAIRS` pairs; the row
    reports each backend's median time and the median of the paired
    ratios.
    """

    def run(backend):
        with dispatch.use_backend(backend):
            enumerator = ADCEnum(
                evidence, function, epsilon, selection="max", max_dc_size=MAX_DC_SIZE
            )
            started = time.perf_counter()
            adcs = enumerator.enumerate()
            elapsed = time.perf_counter() - started
            return elapsed, enumerator.statistics, adcs

    def identity(counters, adcs):
        fields = dataclasses.asdict(counters)
        del fields["elapsed_seconds"]
        return fields, [(a.hitting_set_mask, a.violation_score) for a in adcs]

    numpy_times, native_times, ratios = [], [], []
    for _ in range(ENUM_PAIRS):
        numpy_seconds, numpy_stats, numpy_adcs = run("numpy")
        numpy_times.append(numpy_seconds)
        if compiled is None:
            continue
        native_seconds, native_stats, native_adcs = run(compiled)
        assert identity(native_stats, native_adcs) == identity(numpy_stats, numpy_adcs)
        native_times.append(native_seconds)
        ratios.append(numpy_seconds / native_seconds)
    nodes = numpy_stats.recursive_calls
    numpy_seconds = statistics.median(numpy_times)
    row: dict[str, object] = {
        "function": function.name,
        "epsilon": epsilon,
        "max_dc_size": MAX_DC_SIZE,
        "nodes": nodes,
        "dcs": len(numpy_adcs),
        "pairs": ENUM_PAIRS,
        "numpy_seconds": numpy_seconds,
        "numpy_nodes_per_second": nodes / numpy_seconds,
    }
    if compiled is not None:
        native_seconds = statistics.median(native_times)
        row["native_seconds"] = native_seconds
        row["native_nodes_per_second"] = nodes / native_seconds
        row["paired_speedups"] = ratios
        row["speedup"] = statistics.median(ratios)
        row["bit_identical"] = True
    return row


def _resolution_row() -> dict[str, object]:
    """The first ``get_backend()`` of a fresh interpreter, cold and warm.

    The processes share a private kernel cache holding a copy of the built
    library, so none of them compiles.  Before each cold process the cache's
    verdicts are deleted; the warm process after it finds the verdict the
    cold one left.  Both run with ``REPRO_NATIVE=1``, so a library that
    fails the probe fails the row rather than timing the numpy fallback.
    """
    times: dict[str, list[float]] = {"cold": [], "warm": []}
    with tempfile.TemporaryDirectory() as cache:
        library = build_library()
        shutil.copyfile(library, Path(cache) / library.name)
        env = {
            **os.environ, "REPRO_NATIVE": "1", "REPRO_NATIVE_CACHE": cache,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        for _ in range(RESOLUTION_RUNS):
            for verdict in Path(cache).glob("probed-*"):
                verdict.unlink()
            for side in ("cold", "warm"):
                result = subprocess.run(
                    [sys.executable, "-c", _FIRST_GET_BACKEND], env=env,
                    capture_output=True, text=True, check=True, timeout=300,
                )
                seconds, name = result.stdout.split()
                assert name == "cext", name
                times[side].append(float(seconds))
    return {
        "runs": RESOLUTION_RUNS,
        "cold_seconds": statistics.median(times["cold"]),
        "warm_seconds": statistics.median(times["warm"]),
        "cold_runs": times["cold"],
        "warm_runs": times["warm"],
    }


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
        "expected_py_driver_speedup": EXPECTED_PY_DRIVER_SPEEDUP,
        "expected_build_speedup": EXPECTED_BUILD_SPEEDUP,
        "micro": _micro_rows(compiled, kernel._packed),
        "fold": _fold_rows(compiled),
        "evidence_build": _build_row(compiled, relation, space),
        "enumeration": _enum_row(compiled, evidence, F1(), EPSILON),
        "enumeration_python_driver": _enum_row(
            compiled, evidence, F1Adjusted(PY_DRIVER_CONFIDENCE_Z), PY_DRIVER_EPSILON
        ),
        "backend_resolution": _resolution_row() if compiled is not None else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=BENCH_ROWS)
    parser.add_argument("--json", type=str, default=None,
                        help="also write results to this JSON file")
    parser.add_argument("--require-speedup", action="store_true",
                        help=f"fail unless enumeration reaches "
                             f"{EXPECTED_ENUM_SPEEDUP}x, Python-driver "
                             f"enumeration {EXPECTED_PY_DRIVER_SPEEDUP}x and "
                             f"the evidence build {EXPECTED_BUILD_SPEEDUP}x")
    args = parser.parse_args()

    results = run_kernel_comparison(args.rows)
    compiled_name = results["compiled_backend"]

    print(f"Native kernel layer on tax x {args.rows} rows "
          f"(compiled backend: {compiled_name or 'none'}; kernels and build "
          f"best of {REPEATS}, enumeration median of {ENUM_PAIRS} pairs):")
    header = (f"{'kernel':>38} {'numpy s':>10} {'native s':>10} {'speedup':>8} "
              f"{'ns/pair':>8} {'numpy ns/pair':>14}")
    print(header)
    print("-" * len(header))
    for row in results["micro"] + results["fold"]:
        native = row.get("native_seconds")
        native_text = f"{native:.6f}" if native is not None else "-"
        speedup = row.get("speedup")
        speedup_text = f"{speedup:.2f}x" if speedup is not None else "-"
        per_pair = row.get("native_ns_per_pair")
        per_pair_text = f"{per_pair:.1f}" if per_pair is not None else "-"
        numpy_per_pair = row.get("numpy_ns_per_pair")
        numpy_per_pair_text = f"{numpy_per_pair:.1f}" if numpy_per_pair is not None else "-"
        print(f"{row['kernel']:>38} {row['numpy_seconds']:>10.6f} "
              f"{native_text:>10} {speedup_text:>8} {per_pair_text:>8} "
              f"{numpy_per_pair_text:>14}")
    build = results["evidence_build"]
    enum = results["enumeration"]
    py_driver = results["enumeration_python_driver"]
    for label, row in (("evidence build", build), ("enumeration", enum),
                       ("Python-driver enum", py_driver)):
        native = row.get("native_seconds")
        native_text = f"{native:.3f}" if native is not None else "-"
        speedup = row.get("speedup")
        speedup_text = f"{speedup:.2f}x" if speedup is not None else "-"
        print(f"{label:>38} {row['numpy_seconds']:>10.3f} "
              f"{native_text:>10} {speedup_text:>8}")
    if "native_nodes_per_second" in enum:
        print(f"\nnodes/second: {enum['numpy_nodes_per_second']:,.0f} (numpy) "
              f"-> {enum['native_nodes_per_second']:,.0f} ({compiled_name})")
    resolution = results["backend_resolution"]
    if resolution is not None:
        print(f"backend resolution (first get_backend(), median of "
              f"{resolution['runs']} fresh processes): "
              f"{resolution['cold_seconds'] * 1e3:.1f} ms with a cold verdict, "
              f"{resolution['warm_seconds'] * 1e3:.1f} ms with a warm one")

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
        if py_driver["speedup"] < EXPECTED_PY_DRIVER_SPEEDUP:
            failures.append(
                f"Python-driver enumeration speedup {py_driver['speedup']:.2f}x "
                f"< {EXPECTED_PY_DRIVER_SPEEDUP}x"
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
