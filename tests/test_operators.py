"""Tests for the operator algebra."""

from __future__ import annotations

import itertools

import pytest

from repro.core.operators import (
    NUMERIC_OPERATORS,
    STRING_OPERATORS,
    SATISFIED_BY_CATEGORY,
    Operator,
    OrderCategory,
    category_of,
    operators_satisfiable_together,
)


class TestComplement:
    @pytest.mark.parametrize("op", list(Operator))
    def test_complement_is_involution(self, op):
        assert op.complement.complement is op

    @pytest.mark.parametrize("op", list(Operator))
    @pytest.mark.parametrize("left,right", [(1, 2), (2, 2), (3, 2)])
    def test_complement_negates_truth_value(self, op, left, right):
        assert op.evaluate(left, right) == (not op.complement.evaluate(left, right))

    def test_specific_complements(self):
        assert Operator.EQ.complement is Operator.NE
        assert Operator.LT.complement is Operator.GE
        assert Operator.GT.complement is Operator.LE


class TestInverse:
    @pytest.mark.parametrize("op", list(Operator))
    @pytest.mark.parametrize("left,right", [(1, 2), (2, 2), (3, 2)])
    def test_inverse_swaps_operands(self, op, left, right):
        assert op.evaluate(left, right) == op.inverse.evaluate(right, left)


class TestImplication:
    def test_strict_implies_non_strict(self):
        assert Operator.LT.implies(Operator.LE)
        assert Operator.GT.implies(Operator.GE)

    def test_strict_implies_inequality(self):
        assert Operator.LT.implies(Operator.NE)
        assert Operator.GT.implies(Operator.NE)

    def test_equality_implies_both_bounds(self):
        assert Operator.EQ.implies(Operator.LE)
        assert Operator.EQ.implies(Operator.GE)

    def test_non_implications(self):
        assert not Operator.LE.implies(Operator.LT)
        assert not Operator.NE.implies(Operator.LT)

    @pytest.mark.parametrize("strong,weak", itertools.permutations(list(Operator), 2))
    def test_implication_is_semantically_sound(self, strong, weak):
        """``implies`` is sound and complete over the three order witnesses.

        Sound: a claimed implication holds on every witness.  Complete: an
        unclaimed one has a witness where ``strong`` holds and ``weak`` fails.
        """
        witnesses = [(1, 2), (2, 2), (3, 2)]
        counterexamples = [
            (left, right)
            for left, right in witnesses
            if strong.evaluate(left, right) and not weak.evaluate(left, right)
        ]
        if strong.implies(weak):
            assert counterexamples == []
        else:
            assert counterexamples, f"{strong} implies {weak} but the table says no"


class TestCategories:
    def test_category_of_values(self):
        assert category_of(1, 2) is OrderCategory.LESS
        assert category_of(2, 2) is OrderCategory.EQUAL
        assert category_of(3, 2) is OrderCategory.GREATER

    def test_category_of_strings(self):
        assert category_of("a", "a") is OrderCategory.EQUAL
        assert category_of("a", "b") is not OrderCategory.EQUAL

    @pytest.mark.parametrize("category", list(OrderCategory))
    @pytest.mark.parametrize("op", NUMERIC_OPERATORS)
    def test_satisfied_by_category_matches_evaluation(self, category, op):
        witnesses = {
            OrderCategory.LESS: (1, 2),
            OrderCategory.EQUAL: (2, 2),
            OrderCategory.GREATER: (3, 2),
        }
        left, right = witnesses[category]
        assert (op in SATISFIED_BY_CATEGORY[category]) == op.evaluate(left, right)


class TestSatisfiability:
    def test_contradictory_operators(self):
        assert not operators_satisfiable_together({Operator.LT, Operator.GT})
        assert not operators_satisfiable_together({Operator.EQ, Operator.NE})
        assert not operators_satisfiable_together({Operator.LT, Operator.GE})

    def test_compatible_operators(self):
        assert operators_satisfiable_together({Operator.LT, Operator.LE, Operator.NE})
        assert operators_satisfiable_together({Operator.EQ, Operator.LE, Operator.GE})
        assert operators_satisfiable_together(set())

    def test_le_and_ge_satisfiable_by_equality(self):
        assert operators_satisfiable_together({Operator.LE, Operator.GE})


class TestOperatorSets:
    def test_numeric_operators_complete(self):
        assert set(NUMERIC_OPERATORS) == set(Operator)

    def test_string_operators_equality_only(self):
        assert set(STRING_OPERATORS) == {Operator.EQ, Operator.NE}
