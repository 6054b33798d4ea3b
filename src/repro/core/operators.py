"""Comparison operators for denial-constraint predicates.

The paper restricts predicates to the six comparison operators
``B = {=, !=, >, <, >=, <=}`` (Section 3).  This module defines the operator
enumeration together with the algebra the rest of the library relies on:

* the *complement* of an operator (``<`` vs ``>=``), used to move between a
  DC and the hitting set of the evidence set;
* which operators a value pair in a given *order category* (less / equal /
  greater) satisfies, used by the vectorised evidence builder;
* implication and joint satisfiability of operators over the same column
  pair, used for triviality checks and redundant-predicate pruning.
"""

from __future__ import annotations

import enum
import operator as _operator
from typing import Callable


class Operator(enum.Enum):
    """One of the six comparison operators allowed in DC predicates."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    def __lt__(self, other: object) -> bool:
        """Order operators by declaration position.

        Predicates are ordered dataclasses; without this, sorting predicates
        that tie on their column fields raises ``TypeError``.
        """
        if not isinstance(other, Operator):
            return NotImplemented
        return _OPERATOR_RANK[self] < _OPERATOR_RANK[other]

    @property
    def symbol(self) -> str:
        """Human readable symbol (same as the enum value)."""
        return self.value

    @property
    def complement(self) -> "Operator":
        """The operator whose truth value is the negation of this one."""
        return _COMPLEMENTS[self]

    @property
    def inverse(self) -> "Operator":
        """The operator obtained by swapping the two operands.

        For example ``a < b`` holds exactly when ``b > a`` holds, so the
        inverse of ``LT`` is ``GT``; equality and inequality are their own
        inverses.
        """
        return _INVERSES[self]

    @property
    def is_order(self) -> bool:
        """Whether the operator requires an ordered (numeric) domain."""
        return self in (Operator.LT, Operator.LE, Operator.GT, Operator.GE)

    def evaluate(self, left: object, right: object) -> bool:
        """Evaluate ``left <op> right`` on two Python values."""
        return _EVALUATORS[self](left, right)

    def implies(self, other: "Operator") -> bool:
        """Whether ``a self b`` logically implies ``a other b`` for all a, b.

        The implication structure over a totally ordered domain is::

            <  implies  <=, !=
            >  implies  >=, !=
            == implies  <=, >=
        """
        return other in _IMPLICATIONS[self]


_OPERATOR_RANK = {member: position for position, member in enumerate(Operator)}

_COMPLEMENTS = {
    Operator.EQ: Operator.NE,
    Operator.NE: Operator.EQ,
    Operator.LT: Operator.GE,
    Operator.GE: Operator.LT,
    Operator.GT: Operator.LE,
    Operator.LE: Operator.GT,
}

_INVERSES = {
    Operator.EQ: Operator.EQ,
    Operator.NE: Operator.NE,
    Operator.LT: Operator.GT,
    Operator.GT: Operator.LT,
    Operator.LE: Operator.GE,
    Operator.GE: Operator.LE,
}

_EVALUATORS: dict[Operator, Callable[[object, object], bool]] = {
    Operator.EQ: _operator.eq,
    Operator.NE: _operator.ne,
    Operator.LT: _operator.lt,
    Operator.LE: _operator.le,
    Operator.GT: _operator.gt,
    Operator.GE: _operator.ge,
}

_IMPLICATIONS = {
    Operator.EQ: {Operator.EQ, Operator.LE, Operator.GE},
    Operator.NE: {Operator.NE},
    Operator.LT: {Operator.LT, Operator.LE, Operator.NE},
    Operator.GT: {Operator.GT, Operator.GE, Operator.NE},
    Operator.LE: {Operator.LE},
    Operator.GE: {Operator.GE},
}

#: Operators generated for numeric column pairs (the full set B).
NUMERIC_OPERATORS: tuple[Operator, ...] = (
    Operator.EQ,
    Operator.NE,
    Operator.GT,
    Operator.GE,
    Operator.LT,
    Operator.LE,
)

#: Operators generated for string column pairs (equality kind only).
STRING_OPERATORS: tuple[Operator, ...] = (Operator.EQ, Operator.NE)


class OrderCategory(enum.IntEnum):
    """The three possible outcomes of comparing two orderable values."""

    LESS = 0
    EQUAL = 1
    GREATER = 2


#: Operators satisfied by a value pair in each order category.
SATISFIED_BY_CATEGORY: dict[OrderCategory, frozenset[Operator]] = {
    OrderCategory.LESS: frozenset({Operator.LT, Operator.LE, Operator.NE}),
    OrderCategory.EQUAL: frozenset({Operator.EQ, Operator.LE, Operator.GE}),
    OrderCategory.GREATER: frozenset({Operator.GT, Operator.GE, Operator.NE}),
}

#: Operators satisfied in each category when the column is non-numeric
#: (only the equality-kind subset of the category applies).
SATISFIED_BY_CATEGORY_STRING: dict[OrderCategory, frozenset[Operator]] = {
    OrderCategory.LESS: frozenset({Operator.NE}),
    OrderCategory.EQUAL: frozenset({Operator.EQ}),
    OrderCategory.GREATER: frozenset({Operator.NE}),
}


def operators_satisfiable_together(operators: set[Operator]) -> bool:
    """Whether a set of operators over the *same* column pair can all hold.

    A predicate set like ``{<, >=}`` over the same pair of cells can never be
    jointly satisfied, which makes the containing DC trivially valid.  The
    set is satisfiable exactly when some order category satisfies all of its
    members.
    """
    if not operators:
        return True
    return any(
        operators <= satisfied for satisfied in SATISFIED_BY_CATEGORY.values()
    )


def category_of(left: object, right: object) -> OrderCategory:
    """Order category of a concrete value pair.

    Values of non-orderable (string) columns only ever produce ``EQUAL`` or
    ``LESS`` / ``GREATER`` via plain Python comparison, which is sufficient
    because only equality-kind operators are generated for them.
    """
    if left == right:
        return OrderCategory.EQUAL
    try:
        return OrderCategory.LESS if left < right else OrderCategory.GREATER  # type: ignore[operator]
    except TypeError:
        return OrderCategory.GREATER
