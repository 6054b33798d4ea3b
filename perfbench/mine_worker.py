"""One miner process of the ``mine-wide`` / ``mine-deep`` workloads.

Usage: ``python perfbench/mine_worker.py WORKLOAD SEED SECONDS [SPANS_FILE]``.

The process imports the miner, builds the workload's relation, warms the
kernels and prints ``ready`` — the parent times set-up from spawn to that
line, and measures the host's pace right after it.  It then calls
``ADCMiner.mine`` until ``SECONDS`` are spent (at least once), measuring
the pace after every call, and prints one JSON line with each call's
interval, host-scaled seconds and ADC digest, the paces, its peak RSS and, with
``--reference``, the digest of the ADCs mined from
``evidence_method="dense"`` (computed before the timed calls).
With ``SPANS_FILE`` the layer wrappers are installed first and the spans
are written there at the end.
"""

from __future__ import annotations

import argparse
import json
import sys

import calibrate
from common import digest, prepare_environment, vmhwm_mb
from tracing import Recorder, clock, install

#: Seed of the relation and of mine-wide's sample; ``--seed`` orders rows.
DATA_SEED = 0

#: ``(rows, ADCMiner kwargs)`` per workload.  mine-wide follows the paper's
#: sampling path (30% sample, f1 adjusted to f1', serial tiled evidence);
#: mine-deep mines a small relation to a deeper DC size.
WORKLOADS = {
    "mine-wide": (8000, {"function": "f1", "epsilon": 0.01, "sample_fraction": 0.3,
                          "adjust_for_sample": True, "max_dc_size": 2,
                          "evidence_method": "tiled"}),
    "mine-deep": (500, {"function": "f1", "epsilon": 0.01, "max_dc_size": 3,
                        "evidence_method": "tiled"}),
}


def adc_digest(result) -> str:
    return digest([
        [str(adc.constraint), adc.hitting_set_mask, adc.violation_score]
        for adc in result.adcs
    ])


def build(workload: str, seed: int):
    """The relation and miner.  ``seed`` orders the rows; the set of rows
    mined stays fixed, so the work does too.

    mine-deep mines every row.  mine-wide's miner samples with the fixed
    seed :data:`DATA_SEED`, so ``seed`` permutes the rows within the
    positions that sample draws and, separately, within the rest: every
    seed samples the same tuples, in another order.
    """
    import random

    import numpy as np
    from repro.core.miner import ADCMiner
    from repro.data.datasets import generate_dataset

    n_rows, kwargs = WORKLOADS[workload]
    relation = generate_dataset("tax", n_rows, seed=DATA_SEED).relation
    rng = np.random.default_rng(seed)
    if workload == "mine-deep":
        return relation.take(rng.permutation(n_rows)), ADCMiner(**kwargs)
    fraction = kwargs["sample_fraction"]
    # The positions Relation.sample draws with this seed (a self-test checks
    # that they still are).
    drawn = sorted(random.Random(DATA_SEED).sample(range(n_rows), round(fraction * n_rows)))
    rest = sorted(set(range(n_rows)) - set(drawn))
    order = np.empty(n_rows, dtype=np.int64)
    order[drawn] = rng.permutation(drawn)
    order[rest] = rng.permutation(rest)
    return relation.take(order), ADCMiner(**kwargs, seed=DATA_SEED)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("spans_file", nargs="?")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    prepare_environment()

    recorder = Recorder()
    if args.spans_file:
        install(recorder)
    from repro.core.miner import ADCMiner
    from repro.native.dispatch import get_backend

    relation, miner = build(args.workload, args.seed)
    # Warm-up: resolve the kernel backend and touch every phase once on a
    # tiny slice, so the first timed call pays no one-off cost.
    backend = get_backend().name
    ADCMiner(max_dc_size=2).mine(relation.take(range(40)))
    print("ready", flush=True)
    paces = [calibrate.pace()]

    reference = None
    if args.reference:
        dense = ADCMiner(**{**WORKLOADS[args.workload][1], "evidence_method": "dense"})
        reference = adc_digest(dense.mine(relation))

    calls = []
    spent = 0.0
    while not calls or spent < args.seconds:
        start = clock()
        result = miner.mine(relation)
        end = clock()
        paces.append(calibrate.pace())
        spent += end - start
        timings = result.timings
        calls.append({
            "start": start, "end": end, "digest": adc_digest(result),
            "adcs": len(result.adcs), "evidence_s": timings.evidence,
            "enumeration_s": timings.enumeration,
        })
    # paces[0] is the pace after ready; call i ran between paces[i] and paces[i + 1].
    scaled = calibrate.scale_series([call["end"] - call["start"] for call in calls], paces)
    for call, seconds in zip(calls, scaled):
        call["scaled"] = seconds
    if args.spans_file:
        recorder.dump(args.spans_file)
    print(json.dumps({
        "calls": calls, "rss_mb": vmhwm_mb(), "backend": backend, "reference": reference,
        "paces": paces,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
