"""Mining ADCs from a sample (Section 7).

The evidence set is quadratic in the number of tuples, so the paper mines
ADCs from a uniform tuple sample and provides probabilistic guarantees for
the pair-based function f1:

* the sample violation fraction ``p_hat`` is an unbiased estimator of the
  database violation fraction ``p`` (Section 7.1);
* Chebyshev and normal-approximation error bounds on ``p_hat``;
* the sample threshold ``epsilon_J`` (equivalently, the adjusted function
  ``f1'``) such that accepting a DC on the sample w.r.t. ``epsilon_J``
  guarantees, with probability at least ``1 - alpha``, that the DC is an ADC
  of the full database w.r.t. the desired threshold ``epsilon``
  (Inequality 2).

scipy supplies the normal quantile and is imported on the first
:func:`z_value` call, so importing this module (and the package) does not
load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.approximation import F1Adjusted
from repro.data.relation import Relation


@dataclass(frozen=True)
class SamplePlan:
    """A drawn sample together with the parameters used to draw it."""

    sample: Relation
    fraction: float
    seed: int | None
    population_rows: int

    @property
    def sample_rows(self) -> int:
        """Number of tuples in the sample."""
        return self.sample.n_rows

    @property
    def sample_pairs(self) -> int:
        """Number of ordered distinct tuple pairs in the sample (the ``n`` of §7)."""
        return self.sample_rows * (self.sample_rows - 1)


def draw_sample(relation: Relation, fraction: float, seed: int | None = None) -> SamplePlan:
    """Uniformly sample a fraction of the tuples (the Sample step of Figure 1)."""
    sample = relation.sample(fraction, seed)
    return SamplePlan(sample, fraction, seed, relation.n_rows)


# ----------------------------------------------------------------------
# Estimating the violation fraction (Section 7.1)
# ----------------------------------------------------------------------
def estimate_violation_fraction(violating_pairs: int, sample_rows: int) -> float:
    """The estimator ``p_hat`` = violating pairs / ordered pairs of the sample."""
    if sample_rows < 2:
        return 0.0
    return violating_pairs / (sample_rows * (sample_rows - 1))


def chebyshev_error_bound(p_hat: float, sample_rows: int, deviation: float) -> float:
    """Upper bound on ``Pr(|p_hat - p| > deviation)`` via Chebyshev's inequality.

    Uses the variance upper bound derived in Section 7.1 without any
    independence assumption on the violations:

    ``var(p_hat) <= p * ((C + C(C-1)/2) / C^2 - p)`` with ``C = C(|V_J|, 2)``.

    ``p`` is unknown, so the bound is evaluated at ``p = p_hat`` (the paper
    uses it the same way, as a guide rather than a certified bound).
    """
    if deviation <= 0:
        raise ValueError("deviation must be positive")
    if sample_rows < 2:
        return 1.0
    pair_combinations = sample_rows * (sample_rows - 1) / 2.0
    second_moment_factor = (
        pair_combinations + pair_combinations * (pair_combinations - 1) / 2.0
    ) / pair_combinations**2
    variance_bound = max(0.0, p_hat * (second_moment_factor - p_hat))
    return min(1.0, variance_bound / deviation**2)


def normal_confidence_interval(
    p_hat: float, sample_pairs: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Two-sided normal-approximation confidence interval for ``p`` (Inequality 1).

    ``confidence`` is ``1 - 2 alpha`` in the paper's notation.
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie strictly between 0 and 1")
    if sample_pairs <= 0:
        return (0.0, 1.0)
    z = z_value(confidence)
    margin = z * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / sample_pairs)
    return (max(0.0, p_hat - margin), min(1.0, p_hat + margin))


def z_value(confidence: float) -> float:
    """The ``z_{1-2alpha}`` quantile of the standard normal distribution."""
    from scipy.special import ndtri

    return float(ndtri(0.5 + confidence / 2.0))


# ----------------------------------------------------------------------
# Computing the sample threshold (Section 7.2)
# ----------------------------------------------------------------------
def sample_threshold(
    epsilon: float,
    p_hat: float,
    sample_pairs: int,
    alpha: float = 0.05,
) -> float:
    """The DC-specific sample threshold ``epsilon_J^phi`` of Section 7.2.

    A DC with sample violation fraction ``p_hat`` is accepted on the sample
    when ``1 - p_hat >= 1 - epsilon_J``; with probability at least
    ``1 - alpha`` it is then an ADC of the database w.r.t. ``epsilon``.
    """
    if sample_pairs <= 0:
        return epsilon
    z = z_value(1.0 - 2.0 * alpha)
    margin = z * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / sample_pairs)
    return epsilon - margin


def accept_on_sample(
    epsilon: float,
    p_hat: float,
    sample_pairs: int,
    alpha: float = 0.05,
) -> bool:
    """Acceptance criterion of Inequality 2.

    Equivalent to ``p_hat <= sample_threshold(epsilon, p_hat, sample_pairs, alpha)``.
    """
    z = z_value(1.0 - 2.0 * alpha)
    margin = z * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / max(sample_pairs, 1))
    return (1.0 - p_hat) >= margin + (1.0 - epsilon)


def adjusted_function(sample_pairs: int, alpha: float = 0.05) -> F1Adjusted:
    """The adjusted approximation function ``f1'`` of Section 7.2.

    Using ``f1'`` with the original threshold ``epsilon`` on the sample is
    equivalent to using per-DC sample thresholds; the function form is more
    convenient inside the enumerator.  ``sample_pairs`` is accepted only for
    interface symmetry — the margin is recomputed from the evidence set the
    function is evaluated on.
    """
    del sample_pairs  # the margin uses the evidence set's own pair count
    return F1Adjusted(confidence_z=z_value(1.0 - 2.0 * alpha))


def required_sample_rows(epsilon_margin: float, alpha: float = 0.05, p_hat: float = 0.5) -> int:
    """Smallest sample size whose normal-approximation margin is below a target.

    Solves ``z * sqrt(p_hat (1 - p_hat) / (n (n-1))) <= epsilon_margin`` for
    ``n``; useful to pick a sample size before mining.
    """
    if epsilon_margin <= 0:
        raise ValueError("epsilon_margin must be positive")
    z = z_value(1.0 - 2.0 * alpha)
    target_pairs = (z / epsilon_margin) ** 2 * p_hat * (1.0 - p_hat)
    rows = int(math.ceil((1.0 + math.sqrt(1.0 + 4.0 * target_pairs)) / 2.0))
    return max(rows, 2)
