"""The two offline mining workloads, ``mine-wide`` and ``mine-deep``.

A run starts six miner processes one after another (six set-up samples);
each mines for its workload's share of ``--seconds``.  The miner runs with
no wrappers unless the run is traced.  The host's pace (:mod:`calibrate`)
is measured before each spawn, after ``ready`` and after every call, and
the set-up and every call are scaled by it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
from common import BENCH_DIR, ROOT, child_env
from tracing import clock

#: Miner processes per run.  A process's calls run a few percent faster or
#: slower than another's on the same host, so a run pools several.
PROCESSES = 6
#: Share of ``--seconds`` each miner process mines for (at least one call).
SHARE = {"mine-wide": 0.2, "mine-deep": 0.16}


@dataclass
class MinerRun:
    """One miner process: its host-scaled set-up time, the paces around its
    work, and what it printed."""

    setup_s: float
    calls: list[dict]
    rss_mb: float
    backend: str
    reference: str | None
    paces: list[float]
    spans_files: list[Path] = field(default_factory=list)

    @property
    def timed(self) -> list[tuple[str, float, float]]:
        return [("mine", call["start"], call["end"]) for call in self.calls]


def run_process(workload: str, seed: int, seconds: float, spans_file: Path | None,
                reference: bool) -> MinerRun:
    command = [sys.executable, str(BENCH_DIR / "mine_worker.py"), workload, str(seed),
               repr(seconds)]
    if spans_file is not None:
        command.append(str(spans_file))
    if reference:
        command.append("--reference")
    spawned_pace = calibrate.pace()
    started = clock()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = clock() - started
        output = proc.stdout.read()
    finally:
        code = proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"{workload} miner exited with code {code}")
    result = json.loads(output.strip().splitlines()[-1])
    setup_s = calibrate.scaled(setup_s, spawned_pace, result["paces"][0])
    return MinerRun(setup_s, result["calls"], result["rss_mb"], result["backend"],
                    result["reference"], [spawned_pace, *result["paces"]],
                    [] if spans_file is None else [spans_file])


def run_miners(workload: str, seed: int, seconds: float, spans_dir: Path | None) -> list[MinerRun]:
    return [
        run_process(
            workload, seed, seconds * SHARE[workload],
            None if spans_dir is None else spans_dir / f"{workload}-{index}.json",
            reference=index == 0 and workload == "mine-deep",
        )
        for index in range(PROCESSES)
    ]


def checks(workload: str, runs: list[MinerRun]) -> dict[str, bool]:
    digests = {call["digest"] for run in runs for call in run.calls}
    result = {"ADC list equal in every call": len(digests) == 1}
    if workload == "mine-deep":
        result["ADC list equals the dense-evidence list"] = digests == {runs[0].reference}
    return result

