"""The repository's benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload trickle --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the untraced program and prints the end-to-end
metrics; ``--trace 1`` also runs the workload traced and prints the
per-layer metrics instead.  Human-readable lines come first; the last line
of stdout is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
from common import BUILD, EXPECTED_BACKEND, ROOT, SRC, child_env, prepare_environment  # noqa: E402
import layers  # noqa: E402
import mine_workloads  # noqa: E402
import serve_workloads  # noqa: E402
import tracing  # noqa: E402
from stats import median, median_replay, percentile, tail_percentile  # noqa: E402

WORKLOADS = ("trickle", "mine-wide", "mine-deep")

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
END_TO_END = (("setup_s", "s"), ("round_s", "s"), ("rss_mb", "MB"))

#: ``(name, unit)`` of the per-op metrics of the untraced run.  Every run
#: prints the ones its workload has; ``--trace 1`` also puts all of them in
#: the JSON result, 0 where the workload has no such op.
OP_METRICS = (
    ("append_p50_ms", "ms"), ("append_p90_ms", "ms"), ("read_p50_ms", "ms"),
    ("check_p50_ms", "ms"), ("ingest_rows_per_s", "rows/s"), ("recover_s", "s"),
    ("mine_s", "s"), ("evidence_s", "s"), ("enumeration_s", "s"), ("fail_frac", "ratio"),
)

#: Warm-up probe run in a fresh interpreter before anything is timed: it
#: builds the kernel library, resolves the backend and fills the page cache
#: with the modules every timed process imports.
_WARM_UP = """
import json, numpy
import repro.serve.server, repro.core.miner
from repro.native.dispatch import get_backend
print(json.dumps({"backend": get_backend().name, "numpy": numpy.__version__}))
"""

_IMPORT_PROBE = """
import time
started = time.perf_counter()
import repro.serve.server
print(time.perf_counter() - started)
"""


def pin_to_one_cpu() -> int:
    """Run this process and every process it starts on one CPU, so the
    host pace (:mod:`calibrate`) is measured where the work runs.  The
    client waits on a closed loop and the miner is serial, so the work
    never needs a second CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=600,
    )


def warm_up() -> dict[str, object]:
    """Compile bytecode, build the kernels, check the backend, record context."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    probe = run_python(_WARM_UP)
    if probe.returncode != 0:
        fail(f"the program does not import:\n{probe.stderr}")
    found = json.loads(probe.stdout.strip().splitlines()[-1])
    if found["backend"] != EXPECTED_BACKEND:
        fail(f"kernel backend resolved to {found['backend']!r}, but the baseline "
             f"used {EXPECTED_BACKEND!r}; refusing to compare across backends", 3)
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                         text=True, cwd=ROOT) if shutil.which("git") else None
    return {
        "backend": found["backend"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": found["numpy"],
        "REPRO_OBS": os.environ.get("REPRO_OBS", "unset"),
        "git_sha": sha.stdout.strip() if sha is not None and sha.returncode == 0 else "none",
    }


def import_probe() -> tuple[float, list[str]]:
    """``import repro.serve.server`` in a fresh interpreter: its seconds, and
    the third-party modules costing most, with the repro module importing them."""
    probe = run_python(_IMPORT_PROBE, "-X", "importtime")
    if probe.returncode != 0:
        fail(f"import probe failed:\n{probe.stderr}")
    entries = []  # (depth, module, cumulative us), in the order printed
    for line in probe.stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(fields[1])))
    heavy = []
    for index, (depth, module, cumulative) in enumerate(entries):
        # importtime prints children before their parent, one level deeper.
        parent = next((m for d, m, _ in entries[index + 1:] if d == depth - 1), "")
        if not module.startswith("repro") and parent.startswith("repro"):
            heavy.append((cumulative, f"{module} via {parent}: {cumulative / 1e6:.2f} s"))
    heavy.sort(reverse=True)
    return float(probe.stdout.strip()), [text for _, text in heavy[:5]]


def latency_rows(name: str, samples: list[float]) -> list[tuple]:
    """Median, plus the highest percentile with ten samples beyond it (ms)."""
    if not samples:
        return []
    rows = [(f"{name}_p50_ms", percentile(samples, 50), "ms", len(samples))]
    q = tail_percentile(len(samples))
    if q is not None:
        rows.append((f"{name}_p{q:g}_ms", percentile(samples, q), "ms", len(samples)))
    return rows


def run_serve(seed: int, spans_dir: Path | None):
    rounds = serve_workloads.run_rounds(seed, spans_dir)

    def pooled(kind: str) -> list[float]:
        return [value for r in rounds for value in r.log.seconds(kind)]

    attempted = sum(r.log.attempted for r in rounds)
    failed = sum(r.log.failed for r in rounds)
    table = [("setup_s", median(r.setup_s for r in rounds), "s", len(rounds))]
    for kind in ("append", "read", "check"):
        table += latency_rows(kind, [value * 1e3 for value in pooled(kind)])
    # One closed-loop stream's rows per second of its own ops, reads included.
    table.append(("ingest_rows_per_s", median(r.acked_rows / sum(r.op_seconds()) for r in rounds),
                  "rows/s", len(rounds)))
    table.append(("recover_s", median(pooled("recover")), "s", len(rounds)))
    checks = {}
    for index, round_ in enumerate(rounds):
        for name, ok in round_.checks.items():
            checks[f"round {index}: {name}"] = ok
    errors = [error for r in rounds for error in r.log.errors]
    return {
        "e2e": {
            "setup_s": median(r.setup_s for r in rounds),
            "round_s": median_replay([r.scaled for r in rounds]),
            "rss_mb": median(r.rss_mb for r in rounds),
        },
        "round_raw_s": median_replay([r.op_seconds() for r in rounds]),
        "paces": [pace for r in rounds for pace in r.paces],
        "table": table, "checks": checks, "attempted": attempted, "failed": failed,
        "errors": errors,
        "traced_rounds": [
            ([op for op in r.log.timed if op[0] in serve_workloads.TRACED_OPS], r.spans_files)
            for r in rounds
        ],
        "extra": {
            "setup.seed_ms": median(r.seed_s for r in rounds) * 1e3,
            "durability.wal_bytes_per_row": median(r.wal_bytes / r.acked_rows for r in rounds),
        },
    }


def run_mine(workload: str, seed: int, seconds: float, spans_dir: Path | None):
    runs = mine_workloads.run_miners(workload, seed, seconds, spans_dir)
    calls = [call for run in runs for call in run.calls]
    mine_s = [call["end"] - call["start"] for call in calls]
    table = [
        ("setup_s", median(run.setup_s for run in runs), "s", len(runs)),
        ("mine_s", median(mine_s), "s", len(mine_s)),
        ("evidence_s", median(call["evidence_s"] for call in calls), "s", len(calls)),
        ("enumeration_s", median(call["enumeration_s"] for call in calls), "s", len(calls)),
        ("adcs", calls[0]["adcs"], "count", len(calls)),
    ]
    checks = mine_workloads.checks(workload, runs)
    checks["backend is the baseline's"] = all(run.backend == EXPECTED_BACKEND for run in runs)
    return {
        "e2e": {
            "setup_s": median(run.setup_s for run in runs),
            # One mine call is one round.
            "round_s": median(call["scaled"] for call in calls),
            "rss_mb": median(run.rss_mb for run in runs),
        },
        "round_raw_s": median(mine_s),
        "paces": [pace for run in runs for pace in run.paces],
        "table": table, "checks": checks, "attempted": len(calls), "failed": 0,
        "errors": [],
        # One mine call is one round.
        "traced_rounds": [([op], run.spans_files) for run in runs for op in run.timed],
        "extra": {"setup.seed_ms": 0.0, "durability.wal_bytes_per_row": 0.0},
    }


def run_workload(workload: str, seed: int, seconds: float, spans_dir: Path | None):
    """``trickle`` runs a fixed number of rounds; miners mine for a share
    of ``seconds``."""
    if workload.startswith("mine"):
        return run_mine(workload, seed, seconds, spans_dir)
    return run_serve(seed, spans_dir)


def traced_layers(workload: str, seed: int, seconds: float, plain: dict):
    """Run the workload again with the layer wrappers; per-layer metrics."""
    spans_dir = BUILD / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    traced = run_workload(workload, seed, seconds, spans_dir)
    import_s, heavy = import_probe()
    cache: dict[Path, list] = {}
    rounds = []
    for ops, files in traced["traced_rounds"]:
        spans = []
        for path in files:
            if path not in cache:
                cache[path] = layers.load_spans([path])
            spans.extend(cache[path])
        rounds.append((ops, spans))
    metrics, matrix = layers.per_layer(rounds, {**plain["extra"], "setup.import_s": import_s})
    # What the wrappers add to a round: its spans times one wrapper's cost,
    # measured here on a no-op.  Comparing the traced and untraced round
    # times would measure the host's drift between the two runs instead.
    metrics["trace.overhead_frac"] = (
        metrics["trace.spans"] * tracing.wrapper_seconds() / plain["round_raw_s"]
    )
    shutil.rmtree(spans_dir, ignore_errors=True)
    return metrics, matrix, heavy, traced


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC}; run from the root of a checkout")

    prepare_environment()
    cpu = pin_to_one_cpu()
    context = warm_up()
    print("context:", json.dumps({**context, "cpu": cpu}))
    result = run_workload(args.workload, args.seed, args.seconds, None)
    paces = result["paces"]
    print(f"host pace: median {median(paces) * 1e3:.3f} ms per burst over {len(paces)} "
          f"(reference {calibrate.REFERENCE_S * 1e3:g} ms); unscaled round "
          f"{result['round_raw_s']:.4f} s")
    failed = result["failed"]
    table = result["table"] + [("fail_frac", failed / result["attempted"], "ratio",
                                result["attempted"])]
    for name, value, unit, n in table:
        print(f"{args.workload:10s} {name:20s} {value:12.4f} {unit:7s} n={n}")
    checks = dict(result["checks"])
    errors = list(result["errors"])

    if args.trace:
        metrics, matrix, heavy, traced = traced_layers(
            args.workload, args.seed, args.seconds, result)
        checks.update({f"traced {name}": ok for name, ok in traced["checks"].items()})
        errors += traced["errors"]
        failed += traced["failed"]
        attempted = result["attempted"] + traced["attempted"]
        for line in heavy:
            print(f"import: {line}")
        print(f"{'op (ms/op)':10s} {'wall':>9s} " + " ".join(f"{layer:>11s}" for layer in layers.LAYERS)
              + f" {'unattributed':>12s}")
        for kind, row in matrix.items():
            print(f"{kind:10s} {row['wall']:9.3f} "
                  + " ".join(f"{row.get(layer, 0.0):11.3f}" for layer in layers.LAYERS)
                  + f" {row['unattributed']:12.3f}")
        measured = {name: value for name, value, _, _ in table}
        output = {name: {"value": measured.get(name, 0.0), "unit": unit}
                  for name, unit in OP_METRICS}
        output.update({name: {"value": metrics[name], "unit": unit}
                       for name, unit in layers.PER_LAYER})
    else:
        attempted = result["attempted"]
        output = {name: {"value": result["e2e"][name], "unit": unit} for name, unit in END_TO_END}

    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for error in errors:
        print(f"error {error}")
    print(json.dumps({
        "correct": all(checks.values()), "attempted": attempted, "failed": failed,
        "metrics": output,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
