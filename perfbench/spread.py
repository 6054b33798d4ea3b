"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

Runs the benchmark ``--runs`` times on one workload with seeds 1..N and
prints, per metric, the median of the run values and the distance between
their first and third quartiles as a share of the median::

    python3 perfbench/spread.py --workload mine-deep --runs 10 --seconds 12

Compare each spread with the metric's ``bound`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        output = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(output.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4f}" for name, metric in result["metrics"].items()),
            flush=True)
    for name, series in values.items():
        print(f"{args.workload} {name}: median {median(series):.4f} "
              f"spread {quartile_spread(series):.4f} over {len(series)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
