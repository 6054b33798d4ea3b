"""Tiny runs of each workload against the real program.

Each passes its correctness checks as is, and trips one check when the
program's answer is deliberately broken.  Run with::

    python3 -m pytest perfbench/tests -q
"""

import pytest

import mine_worker
import mine_workloads
import run
import serve_workloads


@pytest.fixture
def tiny_serve(monkeypatch):
    monkeypatch.setattr(serve_workloads, "N_BASE", 200)
    monkeypatch.setattr(serve_workloads, "N_POOL", 60)
    monkeypatch.setattr(serve_workloads, "_DATA", None)
    monkeypatch.setattr(serve_workloads, "TRICKLE_APPENDS", 5)
    monkeypatch.setattr(serve_workloads, "ROUNDS", 2)


def test_trickle_smoke(tiny_serve, monkeypatch):
    result = run.run_serve(3, None)
    assert all(result["checks"].values()), result["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["e2e"]) == {name for name, _ in run.END_TO_END}

    # A server whose counters drift from its evidence must be caught.
    from repro.serve.client import ServeClient

    report = ServeClient.report

    def drifted(self, store):
        answer = report(self, store)
        answer["report"][0]["count"] += 1
        return answer

    monkeypatch.setattr(ServeClient, "report", drifted)
    broken = run.run_serve(3, None)
    assert broken["checks"]["round 0: counters equal finalize"] is False


@pytest.mark.parametrize("workload", ["mine-wide", "mine-deep"])
def test_mine_smoke(workload, monkeypatch):
    monkeypatch.setattr(mine_workloads, "PROCESSES", 2)
    runs = mine_workloads.run_miners(workload, 3, 0.0, None)
    assert all(len(miner.calls) == 1 for miner in runs)
    assert all(mine_workloads.checks(workload, runs).values())

    # One call returning another ADC list must be caught.
    runs[1].calls[0]["digest"] = "0" * 16
    assert mine_workloads.checks(workload, runs)["ADC list equal in every call"] is False


def test_mine_wide_samples_the_same_tuples_for_every_seed():
    import json

    from repro.durability.journal import plain_rows

    def sampled(seed):
        relation, miner = mine_worker.build("mine-wide", seed)
        sample = relation.sample(miner.sample_fraction, miner.seed)
        return sorted(json.dumps(row, sort_keys=True) for row in plain_rows(sample))

    first = sampled(1)
    assert sampled(2) == first
    relation, _ = mine_worker.build("mine-wide", 1)
    assert len(first) < relation.n_rows
