"""Tests for the approximation functions (Section 5)."""

from __future__ import annotations

import pytest

from tests.conftest import make_random_relation
from repro.core.approximation import (
    F1,
    F1Adjusted,
    F2,
    F3Greedy,
    get_approximation_function,
)
from repro.core.dc import DenialConstraint
from repro.core.evidence_builder import build_evidence_set
from repro.core.operators import Operator
from repro.core.predicate_space import build_predicate_space
from repro.core.predicates import same_column_predicate
from tests.reference import (
    check_indifference_to_redundancy,
    check_monotonicity,
    pair_violation_fraction,
    verify_proposition_5_3,
)


def _uncovered_for(evidence, constraint):
    space = evidence.space
    hitting = space.complement_mask(space.mask_of(constraint.predicates))
    return evidence.uncovered_indices(hitting)


@pytest.fixture(scope="module")
def phi1() -> DenialConstraint:
    return DenialConstraint([
        same_column_predicate("State", Operator.EQ),
        same_column_predicate("Income", Operator.GT),
        same_column_predicate("Tax", Operator.LE),
    ])


@pytest.fixture(scope="module")
def phi2() -> DenialConstraint:
    return DenialConstraint([
        same_column_predicate("Zip", Operator.EQ),
        same_column_predicate("State", Operator.NE),
    ])


class TestExample12Values:
    """The concrete numbers of Example 1.2 on the running example."""

    def test_f1_phi1(self, example_evidence, phi1):
        score = F1().violation_score(example_evidence, _uncovered_for(example_evidence, phi1))
        assert score == pytest.approx(2 / 210)

    def test_f1_phi2(self, example_evidence, phi2):
        score = F1().violation_score(example_evidence, _uncovered_for(example_evidence, phi2))
        assert score == pytest.approx(16 / 210)

    def test_f3_phi1_requires_two_removals(self, example_evidence, phi1):
        # One of t6/t7 and one of t14/t15 must be removed: 2 / 15 = 13.3%.
        score = F3Greedy().violation_score(example_evidence, _uncovered_for(example_evidence, phi1))
        assert score == pytest.approx(2 / 15)

    def test_f3_phi2_requires_one_removal(self, example_evidence, phi2):
        # Removing t15 alone satisfies the DC: 1 / 15 = 6.67%.
        score = F3Greedy().violation_score(example_evidence, _uncovered_for(example_evidence, phi2))
        assert score == pytest.approx(1 / 15)

    def test_example_1_2_conclusion(self, example_evidence, phi1, phi2):
        f1, f3 = F1(), F3Greedy()
        uncovered1 = _uncovered_for(example_evidence, phi1)
        uncovered2 = _uncovered_for(example_evidence, phi2)
        # epsilon = 5%: phi1 is an ADC under f1 but not under f3.
        assert f1.violation_score(example_evidence, uncovered1) <= 0.05
        assert f3.violation_score(example_evidence, uncovered1) > 0.05
        # epsilon = 7%: phi2 is an ADC under f3 but not under f1.
        assert f3.violation_score(example_evidence, uncovered2) <= 0.07
        assert f1.violation_score(example_evidence, uncovered2) > 0.07

    def test_f2_counts_problematic_tuples(self, example_evidence, phi2):
        score = F2().violation_score(example_evidence, _uncovered_for(example_evidence, phi2))
        assert score == pytest.approx(9 / 15)


class TestBasicProperties:
    def test_score_is_one_minus_violation(self, example_evidence, phi1):
        uncovered = _uncovered_for(example_evidence, phi1)
        for function in (F1(), F2(), F3Greedy()):
            assert function.score(example_evidence, uncovered) == pytest.approx(
                1.0 - function.violation_score(example_evidence, uncovered)
            )

    def test_valid_dc_has_zero_violation(self, example_evidence):
        constraint = DenialConstraint([same_column_predicate("Income", Operator.EQ),
                                       same_column_predicate("Income", Operator.NE)])
        # A trivial DC is satisfied by every pair -> violation 0 for all functions.
        uncovered = _uncovered_for(example_evidence, constraint)
        assert uncovered == []
        for function in (F1(), F2(), F3Greedy()):
            assert function.violation_score(example_evidence, uncovered) == 0.0

    def test_is_approximate_threshold(self, example_evidence, phi1):
        uncovered = _uncovered_for(example_evidence, phi1)
        assert F1().is_approximate(example_evidence, uncovered, epsilon=0.05)
        assert not F1().is_approximate(example_evidence, uncovered, epsilon=0.001)

    def test_lookup_by_name(self):
        assert isinstance(get_approximation_function("f1"), F1)
        assert isinstance(get_approximation_function("f3"), F3Greedy)
        with pytest.raises(KeyError):
            get_approximation_function("f9")

    def test_pair_fraction_shortcut_consistent(self, example_evidence, phi1):
        uncovered = _uncovered_for(example_evidence, phi1)
        fraction = pair_violation_fraction(example_evidence, uncovered)
        assert F1().violation_score_from_pair_fraction(
            fraction, example_evidence.total_pairs
        ) == pytest.approx(fraction)
        assert F2().violation_score_from_pair_fraction(fraction, example_evidence.total_pairs) is None

    def test_adjusted_function_is_more_conservative(self, example_evidence, phi1):
        uncovered = _uncovered_for(example_evidence, phi1)
        plain = F1().violation_score(example_evidence, uncovered)
        adjusted = F1Adjusted(confidence_z=1.645).violation_score(example_evidence, uncovered)
        assert adjusted >= plain

    def test_adjusted_function_rejects_negative_z(self):
        with pytest.raises(ValueError):
            F1Adjusted(confidence_z=-1.0)


class TestAxioms:
    """Monotonicity and indifference to redundancy (Definitions 4.1, 4.2)."""

    @pytest.mark.parametrize("function", [F1(), F2()])
    def test_monotonicity_on_running_example(self, example_evidence, function):
        assert check_monotonicity(function, example_evidence, trials=60, seed=1)

    @pytest.mark.parametrize("function", [F1(), F2(), F3Greedy()])
    def test_indifference_to_redundancy(self, example_evidence, function):
        assert check_indifference_to_redundancy(function, example_evidence, trials=60, seed=1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotonicity_on_random_relations(self, seed):
        relation = make_random_relation(n_rows=8, seed=seed)
        space = build_predicate_space(relation)
        evidence = build_evidence_set(relation, space, include_participation=True)
        for function in (F1(), F2()):
            assert check_monotonicity(function, evidence, trials=40, seed=seed)

    def test_proposition_5_3(self, example_evidence, example_space):
        dc_masks = [
            example_space.mask_of([same_column_predicate("Zip", Operator.EQ),
                                   same_column_predicate("State", Operator.NE)]),
            example_space.mask_of([same_column_predicate("Name", Operator.EQ)]),
        ]
        for epsilon in (0.01, 0.05, 0.1):
            assert verify_proposition_5_3(example_evidence, dc_masks, epsilon)
