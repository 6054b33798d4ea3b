"""Implication properties of what the miner emits (Definition 4.1).

Strengthening a predicate of a mined ADC φ — replacing its operator by one
that implies it, e.g. ``<=`` by ``<`` or ``=`` — gives a DC ψ whose
conjunction implies φ's, so every pair violating ψ violates φ.  Checked by
brute force through :meth:`Predicate.evaluate` over every ordered pair of
a small tax sample, and on the engine's f1 and f2 scores, which must not
rank ψ as more violated than φ.  F3Greedy is only approximately monotone
(the ``check_monotonicity`` caveat in ``tests/reference.py``), so it is
left out.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.approximation import get_approximation_function
from repro.core.evidence_builder import build_evidence_set
from repro.core.miner import ADCMiner
from repro.core.operators import Operator
from repro.core.predicates import Predicate
from repro.data.datasets import generate_dataset


def _strengthened(predicate, space):
    """The predicates of ``space`` strictly stronger than ``predicate``."""
    candidates = (
        Predicate(predicate.left_column, operator, predicate.right_column, predicate.form)
        for operator in Operator
        if operator is not predicate.operator and operator.implies(predicate.operator)
    )
    return [candidate for candidate in candidates if candidate in space]


def _pair_truth(relation, space):
    """``truth[k, p]``: whether predicate ``k`` holds on ordered pair ``p``
    (pairs of distinct rows, in ``itertools.permutations`` order)."""
    rows = [relation.row(i) for i in range(relation.n_rows)]
    pairs = list(itertools.permutations(range(relation.n_rows), 2))
    return np.array(
        [[predicate.evaluate(rows[i], rows[j]) for i, j in pairs] for predicate in space],
        dtype=bool,
    )


@pytest.mark.parametrize("function_name", ["f1", "f2"])
def test_strengthening_a_mined_adc_never_adds_violations(function_name):
    relation = generate_dataset("tax", n_rows=60, seed=3).relation
    result = ADCMiner(function_name, epsilon=0.05, max_dc_size=3).mine(relation)
    sample, space = result.sample_plan.sample, result.predicate_space
    # With participation whichever function mined, so f2 can score too.
    evidence = build_evidence_set(sample, space, include_participation=True)
    truth = _pair_truth(sample, space)
    functions = [get_approximation_function(name) for name in ("f1", "f2")]

    def violations(predicates):
        """Brute force: the pairs on which every predicate holds."""
        return np.logical_and.reduce([truth[space.index_of(p)] for p in predicates])

    def engine_scores(predicates):
        hitting = space.complement_mask(space.mask_of(predicates))
        uncovered = evidence.uncovered_indices(hitting)
        assert evidence.uncovered_pair_count(hitting) == int(violations(predicates).sum())
        return [function.violation_score(evidence, uncovered) for function in functions]

    strengthened = 0
    for adc in result.adcs:
        phi = list(adc.constraint.predicates)
        for position, predicate in enumerate(phi):
            stronger = _strengthened(predicate, space)
            if stronger:
                break
        else:
            continue
        psi = [*phi[:position], stronger[0], *phi[position + 1 :]]
        phi_pairs, psi_pairs = violations(phi), violations(psi)
        assert not (psi_pairs & ~phi_pairs).any(), (str(adc.constraint), str(stronger[0]))
        phi_scores, psi_scores = engine_scores(phi), engine_scores(psi)
        assert phi_scores[functions.index(get_approximation_function(function_name))] == (
            pytest.approx(adc.violation_score)
        )
        for psi_score, phi_score in zip(psi_scores, phi_scores):
            assert psi_score <= phi_score
        strengthened += 1
    # Most mined ADCs hold an order predicate (<=, >=, !=) with a stronger
    # operator in the space; the check must not pass vacuously.
    assert strengthened >= len(result.adcs) // 2 > 0
