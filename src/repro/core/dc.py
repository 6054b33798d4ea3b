"""Denial constraints.

A denial constraint (DC) ``forall t, t' not (P_1 and ... and P_m)`` states
that no ordered pair of tuples may satisfy all of its predicates
simultaneously.  This module provides the :class:`DenialConstraint` value
object together with the semantic operations the rest of the library needs:
satisfaction on a tuple pair, violation counting on a relation, triviality,
normalisation (dropping predicates implied by others), and generality
comparisons between DCs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.operators import operators_satisfiable_together
from repro.core.predicates import Predicate, PredicateForm
from repro.data.relation import Relation


@dataclass(frozen=True)
class DenialConstraint:
    """A denial constraint identified with its set of predicates ``S_phi``."""

    predicates: frozenset[Predicate]

    def __init__(self, predicates: Iterable[Predicate]) -> None:
        object.__setattr__(self, "predicates", frozenset(predicates))

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.predicates)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(sorted(self.predicates))

    def __str__(self) -> str:
        body = " and ".join(str(p) for p in sorted(self.predicates))
        return f"forall t, t': not ({body})"

    @property
    def spans_two_tuples(self) -> bool:
        """Whether any predicate references the second tuple ``t'``."""
        return any(p.form.spans_two_tuples for p in self.predicates)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def satisfied_by_pair(self, left_row: dict[str, object], right_row: dict[str, object]) -> bool:
        """Whether the ordered pair ``(t, t')`` satisfies the DC.

        A pair satisfies the DC when at least one predicate does *not* hold
        on it.
        """
        return not all(p.evaluate(left_row, right_row) for p in self.predicates)

    def violating_pairs(self, relation: Relation) -> list[tuple[int, int]]:
        """Ordered pairs of distinct row indices that jointly violate the DC."""
        rows = [relation.row(i) for i in range(relation.n_rows)]
        violations = []
        for i, j in itertools.permutations(range(relation.n_rows), 2):
            if not self.satisfied_by_pair(rows[i], rows[j]):
                violations.append((i, j))
        return violations

    def violation_count(self, relation: Relation) -> int:
        """Number of ordered distinct pairs violating the DC."""
        return len(self.violating_pairs(relation))

    def violating_tuples(self, relation: Relation) -> set[int]:
        """Row indices involved in at least one violating pair."""
        involved: set[int] = set()
        for i, j in self.violating_pairs(relation):
            involved.add(i)
            involved.add(j)
        return involved

    def is_satisfied(self, relation: Relation) -> bool:
        """Whether the DC is a valid (exact) DC of the relation."""
        rows = [relation.row(i) for i in range(relation.n_rows)]
        for i, j in itertools.permutations(range(relation.n_rows), 2):
            if not self.satisfied_by_pair(rows[i], rows[j]):
                return False
        return True

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------
    def is_trivial(self) -> bool:
        """Whether the DC is trivially satisfied by every tuple pair.

        The paper excludes trivial DCs (Problem 4.6 asks for *nontrivial*
        minimal ADCs).  A DC is trivial when its predicates cannot all hold
        simultaneously, which we detect per column-pair group: a group whose
        operators are jointly unsatisfiable (e.g. ``{<, >=}``) makes the
        whole conjunction unsatisfiable.  An empty DC is also treated as
        trivial (it carries no information).
        """
        if not self.predicates:
            return True
        by_group: dict[tuple[str, str, PredicateForm], set] = {}
        for predicate in self.predicates:
            by_group.setdefault(predicate.group_key, set()).add(predicate.operator)
        return any(
            not operators_satisfiable_together(operators) for operators in by_group.values()
        )

    def normalized(self) -> "DenialConstraint":
        """Drop predicates implied by another predicate of the constraint.

        For example ``t[A] <= t'[A]`` is redundant in the presence of
        ``t[A] < t'[A]``; removing it does not change the set of satisfying
        pairs (this is exactly the redundancy the *indifference to
        redundancy* axiom talks about).
        """
        kept: list[Predicate] = []
        for predicate in self.predicates:
            implied_by_other = any(
                other != predicate and other.implies(predicate) for other in self.predicates
            )
            if not implied_by_other:
                kept.append(predicate)
        return DenialConstraint(kept)

    def generalizes(self, other: "DenialConstraint") -> bool:
        """Whether this DC is at least as general as ``other``.

        ``phi`` generalizes ``phi'`` when ``S_phi`` is a subset of
        ``S_phi'`` (fewer predicates means fewer exceptions allowed, i.e. a
        stronger, more general rule).
        """
        return self.predicates <= other.predicates

    def same_constraint(self, other: "DenialConstraint") -> bool:
        """Whether two DCs have identical normalised predicate sets."""
        return self.normalized().predicates == other.normalized().predicates


def minimize_dcs(constraints: Sequence[DenialConstraint]) -> list[DenialConstraint]:
    """Keep only the minimal constraints of a collection.

    A constraint is dropped when another constraint in the collection has a
    strictly smaller predicate set (i.e. strictly generalizes it).  Exact
    duplicates are also collapsed.
    """
    unique: list[DenialConstraint] = []
    seen: set[frozenset[Predicate]] = set()
    for constraint in constraints:
        if constraint.predicates not in seen:
            seen.add(constraint.predicates)
            unique.append(constraint)
    minimal: list[DenialConstraint] = []
    for constraint in unique:
        dominated = any(
            other.predicates < constraint.predicates for other in unique
        )
        if not dominated:
            minimal.append(constraint)
    return minimal


def format_dc_set(constraints: Iterable[DenialConstraint]) -> str:
    """Render a collection of DCs, one per line, for reports and examples."""
    return "\n".join(str(constraint) for constraint in sorted(constraints, key=str))
