"""Tests for the sampling theory of Section 7."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sampling import (
    accept_on_sample,
    adjusted_function,
    chebyshev_error_bound,
    draw_sample,
    estimate_violation_fraction,
    normal_confidence_interval,
    required_sample_rows,
    sample_threshold,
    z_value,
)
from repro.core.miner import ADCMiner
from repro.data.relation import running_example
from tests.reference import sample_edge_fraction, simulate_random_polluter


class TestEstimator:
    def test_estimate_violation_fraction(self):
        assert estimate_violation_fraction(10, 11) == pytest.approx(10 / 110)
        assert estimate_violation_fraction(0, 1) == 0.0

    def test_estimator_is_approximately_unbiased(self):
        """Averaging p_hat over many vertex samples recovers p (Section 7.1)."""
        graph = simulate_random_polluter(n_vertices=40, edge_probability=0.05, seed=3)
        rng = random.Random(0)
        estimates = []
        for _ in range(200):
            vertices = rng.sample(range(graph.n_vertices), 15)
            estimates.append(sample_edge_fraction(graph, vertices))
        average = sum(estimates) / len(estimates)
        assert average == pytest.approx(graph.violation_fraction, abs=0.01)

    def test_random_polluter_density(self):
        graph = simulate_random_polluter(n_vertices=30, edge_probability=0.2, seed=1)
        assert graph.violation_fraction == pytest.approx(0.2, abs=0.06)

    def test_random_polluter_validates_probability(self):
        with pytest.raises(ValueError):
            simulate_random_polluter(5, 1.5)


class TestBounds:
    def test_chebyshev_bound_decreases_with_deviation(self):
        loose = chebyshev_error_bound(0.1, sample_rows=50, deviation=0.05)
        tight = chebyshev_error_bound(0.1, sample_rows=50, deviation=0.2)
        assert 0.0 <= tight <= loose <= 1.0

    def test_chebyshev_rejects_bad_deviation(self):
        with pytest.raises(ValueError):
            chebyshev_error_bound(0.1, 50, 0.0)

    def test_normal_interval_contains_estimate(self):
        low, high = normal_confidence_interval(0.05, sample_pairs=10_000, confidence=0.9)
        assert low <= 0.05 <= high
        assert high - low < 0.02

    def test_normal_interval_shrinks_with_sample_size(self):
        small = normal_confidence_interval(0.05, 1_000)
        large = normal_confidence_interval(0.05, 100_000)
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_z_value_monotone(self):
        assert z_value(0.99) > z_value(0.9) > z_value(0.5) > 0

    def test_z_value_is_the_normal_quantile_bit_for_bit(self):
        """``ndtri`` gives exactly ``scipy.stats.norm.ppf``'s quantiles, so
        thresholds (and the ADCs mined under them) do not move by an ulp."""
        from scipy import stats

        confidences = np.concatenate(
            [np.linspace(0.0, 0.999, 2_000), [0.5, 0.9, 0.95, 0.99, 1.0 - 1e-9]]
        )
        for confidence in confidences:
            expected = float(stats.norm.ppf(0.5 + confidence / 2.0))
            assert z_value(float(confidence)) == expected

    def test_importing_sampling_skips_scipy_stats(self):
        """scipy supplies only the z of the f1' threshold and networkx only
        the explicit conflict-graph view; each costs a tenth of a second or
        more at import, paid by every server start and miner process.  In a
        fresh interpreter, the server, the miner and an f1 mine (which
        resolves the kernel backend) load neither, nor cffi or pycparser;
        a later f1' mine loads ``scipy.special`` (never ``scipy.stats``) and
        gives the same ADCs and z, to the bit, as this process."""
        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = """
import json, sys
import repro.serve.server, repro.core.miner, repro.core.sampling
from repro.data.relation import running_example
assert repro.core.miner.ADCMiner("f1", 0.1).mine(running_example()).adcs
loaded = sorted(
    m for m in ("scipy", "networkx", "cffi", "pycparser") if m in sys.modules
)
result = repro.core.miner.ADCMiner(
    "f1", 0.1, 0.7, adjust_for_sample=True, seed=7
).mine(running_example())
print(json.dumps({
    "loaded": loaded,
    "adcs": [[adc.hitting_set_mask, adc.violation_score.hex()] for adc in result.adcs],
    "z": repro.core.sampling.adjusted_function(
        result.sample_plan.sample_pairs, 0.05
    ).confidence_z.hex(),
    "scipy": ["scipy.special" in sys.modules, "scipy.stats" in sys.modules],
}))
"""
        fresh = json.loads(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout)
        assert fresh["loaded"] == []
        assert fresh["scipy"] == [True, False]
        result = ADCMiner("f1", 0.1, 0.7, adjust_for_sample=True, seed=7).mine(
            running_example()
        )
        assert result.function_name == "f1'" and result.adcs
        assert fresh["adcs"] == [
            [adc.hitting_set_mask, adc.violation_score.hex()] for adc in result.adcs
        ]
        z = adjusted_function(result.sample_plan.sample_pairs, 0.05).confidence_z
        assert fresh["z"] == z.hex()


class TestSampleThreshold:
    def test_threshold_below_epsilon(self):
        epsilon = 0.05
        threshold = sample_threshold(epsilon, p_hat=0.02, sample_pairs=5_000, alpha=0.05)
        assert threshold <= epsilon

    def test_threshold_approaches_epsilon_for_large_samples(self):
        epsilon = 0.05
        small = sample_threshold(epsilon, 0.02, 1_000, alpha=0.05)
        large = sample_threshold(epsilon, 0.02, 1_000_000, alpha=0.05)
        assert epsilon - large < epsilon - small
        assert large == pytest.approx(epsilon, abs=1e-3)

    def test_accept_on_sample_consistent_with_threshold(self):
        epsilon, pairs, alpha = 0.05, 20_000, 0.05
        for p_hat in (0.001, 0.02, 0.049, 0.06, 0.2):
            expected = p_hat <= sample_threshold(epsilon, p_hat, pairs, alpha)
            assert accept_on_sample(epsilon, p_hat, pairs, alpha) == expected

    @settings(max_examples=50, deadline=None)
    @given(p_hat=st.floats(min_value=0.0, max_value=0.3),
           epsilon=st.floats(min_value=0.0, max_value=0.3))
    def test_acceptance_is_conservative(self, p_hat, epsilon):
        """Accepting on the sample requires p_hat below epsilon (never above)."""
        if accept_on_sample(epsilon, p_hat, sample_pairs=10_000, alpha=0.05):
            assert p_hat <= epsilon + 1e-9

    def test_adjusted_function_name(self):
        function = adjusted_function(sample_pairs=1_000, alpha=0.05)
        assert function.name == "f1'"
        assert function.confidence_z == pytest.approx(z_value(0.9))

    def test_required_sample_rows(self):
        rows = required_sample_rows(epsilon_margin=0.01, alpha=0.05)
        margin = z_value(0.9) * (0.5 / (rows * (rows - 1)) ** 0.5)
        assert margin <= 0.01
        with pytest.raises(ValueError):
            required_sample_rows(0.0)


class TestDrawSample:
    def test_sample_plan_metadata(self):
        relation = running_example()
        plan = draw_sample(relation, 0.4, seed=2)
        assert plan.population_rows == 15
        assert plan.sample_rows == 6
        assert plan.sample_pairs == 6 * 5

    def test_full_fraction_keeps_everything(self):
        relation = running_example()
        plan = draw_sample(relation, 1.0)
        assert plan.sample_rows == relation.n_rows
