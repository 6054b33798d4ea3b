"""Predicates of the denial-constraint predicate space.

A predicate compares one cell of a tuple with one cell of (possibly) another
tuple: ``t[A] op t'[B]``.  Following the paper (Section 4.2) three structural
forms are supported:

* same attribute across the two tuples: ``t[A] op t'[A]``;
* two different attributes of the *same* tuple: ``t[A] op t[B]``;
* two different attributes across the two tuples: ``t[A] op t'[B]``.

The evidence set is built over *ordered* tuple pairs, so single-tuple
predicates are evaluated on the first tuple of the pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from repro.core.operators import SATISFIED_BY_CATEGORY, Operator, OrderCategory


class PredicateForm(enum.Enum):
    """Structural form of a predicate (which tuples its two sides reference)."""

    TWO_TUPLE_SAME_COLUMN = "two_tuple_same_column"
    TWO_TUPLE_CROSS_COLUMN = "two_tuple_cross_column"
    SINGLE_TUPLE = "single_tuple"

    def __lt__(self, other: object) -> bool:
        """Order forms by declaration position.

        Predicates are ordered dataclasses; without this, sorting predicates
        that tie on their column and operator fields raises ``TypeError``.
        """
        if not isinstance(other, PredicateForm):
            return NotImplemented
        return _FORM_RANK[self] < _FORM_RANK[other]

    @property
    def spans_two_tuples(self) -> bool:
        """Whether the right-hand side references the second tuple ``t'``."""
        return self is not PredicateForm.SINGLE_TUPLE


_FORM_RANK = {member: position for position, member in enumerate(PredicateForm)}


@dataclass(frozen=True, order=True)
class Predicate:
    """A single comparison predicate ``t[left] op (t|t')[right]``.

    Attributes
    ----------
    left_column:
        Attribute referenced on the first tuple ``t``.
    operator:
        One of the six comparison operators.
    right_column:
        Attribute referenced on the right-hand side.
    form:
        Whether the right-hand side refers to ``t'`` (two-tuple forms) or to
        ``t`` itself (single-tuple form).
    """

    left_column: str
    operator: Operator
    right_column: str
    form: PredicateForm

    def __post_init__(self) -> None:
        if self.form is PredicateForm.TWO_TUPLE_SAME_COLUMN and self.left_column != self.right_column:
            raise ValueError("same-column predicates must reference a single attribute")
        if self.form is not PredicateForm.TWO_TUPLE_SAME_COLUMN and self.left_column == self.right_column:
            raise ValueError("cross-column predicates must reference two distinct attributes")

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    @property
    def complement(self) -> "Predicate":
        """The predicate that holds exactly when this one does not."""
        return Predicate(self.left_column, self.operator.complement, self.right_column, self.form)

    @property
    def group_key(self) -> tuple[str, str, PredicateForm]:
        """Key identifying the column pair + form this predicate belongs to.

        Two predicates with the same group key differ only by their operator;
        the enumeration algorithm removes whole groups from the candidate
        list once one member has been added to the partial hitting set
        (Section 6.2, "differ from u only by the operator").
        """
        return (self.left_column, self.right_column, self.form)

    def implies(self, other: "Predicate") -> bool:
        """Whether this predicate logically implies ``other``.

        Implication only holds between predicates over the same column pair
        and form, and follows the operator implication lattice.
        """
        return self.group_key == other.group_key and self.operator.implies(other.operator)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, left_row: Mapping[str, object], right_row: Mapping[str, object]) -> bool:
        """Evaluate the predicate on an ordered pair of rows.

        ``left_row`` plays the role of ``t`` and ``right_row`` of ``t'``;
        single-tuple predicates only look at ``left_row``.  A comparison
        with a missing value (NaN) falls in the order category the evidence
        engine gives it: ``GREATER`` across two tuples, whichever side holds
        the NaN (the engine's difference is NaN, neither ``< 0`` nor
        ``== 0``), and ``LESS`` within one tuple.
        """
        left_value = left_row[self.left_column]
        if self.form.spans_two_tuples:
            right_value = right_row[self.right_column]
        else:
            right_value = left_row[self.right_column]
        if left_value != left_value or right_value != right_value:
            category = (
                OrderCategory.GREATER if self.form.spans_two_tuples else OrderCategory.LESS
            )
            return self.operator in SATISFIED_BY_CATEGORY[category]
        return self.operator.evaluate(left_value, right_value)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        right_tuple = "t'" if self.form.spans_two_tuples else "t"
        return f"t[{self.left_column}] {self.operator.symbol} {right_tuple}[{self.right_column}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Predicate({self})"


def same_column_predicate(column: str, op: Operator) -> Predicate:
    """Convenience constructor for ``t[column] op t'[column]``."""
    return Predicate(column, op, column, PredicateForm.TWO_TUPLE_SAME_COLUMN)


def cross_column_predicate(left: str, op: Operator, right: str) -> Predicate:
    """Convenience constructor for ``t[left] op t'[right]``."""
    return Predicate(left, op, right, PredicateForm.TWO_TUPLE_CROSS_COLUMN)


def single_tuple_predicate(left: str, op: Operator, right: str) -> Predicate:
    """Convenience constructor for ``t[left] op t[right]``."""
    return Predicate(left, op, right, PredicateForm.SINGLE_TUPLE)
