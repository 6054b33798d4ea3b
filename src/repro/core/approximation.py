"""Approximation functions for approximate denial constraints.

Section 5 of the paper studies a *family* of approximation functions
``f : (D, S_phi) -> [0, 1]`` characterised by two axioms — monotonicity and
indifference to redundancy — and instantiates three members generalising the
measures of Kivinen and Mannila:

* ``f1`` — fraction of tuple pairs *satisfying* the DC (pair-based);
* ``f2`` — fraction of tuples not involved in any violation (tuple-based);
* ``f3`` — relative size of a maximum satisfying sub-instance (cardinality
  repair).  Computing ``f3`` exactly is NP-hard for DCs, so the paper runs
  the greedy algorithm of Figure 2 instead; :class:`F3Greedy` implements it.

All functions are evaluated against an :class:`~repro.core.evidence.EvidenceSet`
and the set of *uncovered* evidences (the evidences of the violating pairs of
the candidate DC), which is exactly the information the enumeration algorithm
maintains.  For convenience they report the **violation score**
``1 - f(D, S_phi)`` — the quantity compared against the threshold epsilon.
"""

from __future__ import annotations

import abc
import itertools
import random
from typing import Collection, Iterable, Sequence

import numpy as np

from repro.core.evidence import EvidenceSet


class ApproximationFunction(abc.ABC):
    """A valid approximation function in the sense of Definition 4.3.

    Concrete subclasses must be monotonic and indifferent to redundancy; the
    empirical checkers :func:`check_monotonicity` and
    :func:`check_indifference_to_redundancy` validate this on concrete
    evidence sets in the test suite.
    """

    #: Short identifier used in reports ("f1", "f2", "f3", ...).
    name: str = "f"

    #: Factor ``c`` such that ``1 - f1 <= c * (1 - f)`` (Proposition 5.3
    #: gives c = 2 for f2 and f3).  The enumerator uses it to skip the more
    #: expensive functions when the cheap pair-based bound already exceeds
    #: ``c * epsilon``.  ``None`` disables the optimisation.
    pair_bound_factor: float | None = None

    #: Whether the function needs the per-evidence tuple participation
    #: structure (the ``vios`` table of Figure 2).
    requires_participation: bool = False

    #: Whether the score is *fully* determined by the violating-pair
    #: fraction, i.e. :meth:`violation_score_from_pair_fraction` returns a
    #: value for **every** input.  The enumerator uses this declaration to
    #: collapse its threshold tests to scalar arithmetic and compact away
    #: per-evidence state; a partial shortcut (non-None for some fractions
    #: only) must leave this False.
    pair_determined: bool = False

    @abc.abstractmethod
    def violation_score(
        self, evidence: EvidenceSet, uncovered_indices: Collection[int]
    ) -> float:
        """Return ``1 - f(D, S_phi)`` for a candidate DC.

        Parameters
        ----------
        evidence:
            The evidence set of the database (or sample).
        uncovered_indices:
            Indices of the distinct evidences whose pairs violate the DC,
            i.e. the evidences with empty intersection with the hitting set.
            Any collection works, including the numpy index arrays the
            enumerator maintains over the packed evidence words.
        """

    def violation_score_from_pair_fraction(
        self, pair_fraction: float, total_pairs: int
    ) -> float | None:
        """Violation score computable from the pair fraction alone, if any.

        Pair-based functions (f1 and the adjusted f1') depend only on the
        fraction of violating pairs, which the enumerator maintains
        incrementally; they override this hook so the enumerator can avoid
        materialising the uncovered-evidence list.  Returns ``None`` for
        functions that need more information.
        """
        del pair_fraction, total_pairs
        return None

    def score(self, evidence: EvidenceSet, uncovered_indices: Collection[int]) -> float:
        """Return ``f(D, S_phi)`` (the satisfaction score)."""
        return 1.0 - self.violation_score(evidence, uncovered_indices)

    def is_approximate(
        self,
        evidence: EvidenceSet,
        uncovered_indices: Collection[int],
        epsilon: float,
    ) -> bool:
        """Whether the candidate passes the ADC test ``1 - f <= epsilon``."""
        return self.violation_score(evidence, uncovered_indices) <= epsilon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class F1(ApproximationFunction):
    """Pair-based approximation function (the measure of [11, 36, 37]).

    ``f1(D, S_phi)`` is the fraction of ordered distinct tuple pairs
    satisfying the DC, so the violation score is the fraction of violating
    pairs.
    """

    name = "f1"
    pair_bound_factor = 1.0
    pair_determined = True

    def violation_score(
        self, evidence: EvidenceSet, uncovered_indices: Collection[int]
    ) -> float:
        total = evidence.total_pairs
        if total == 0:
            return 0.0
        return evidence.pair_count_of(uncovered_indices) / total

    def violation_score_from_pair_fraction(
        self, pair_fraction: float, total_pairs: int
    ) -> float | None:
        del total_pairs
        return pair_fraction


class F2(ApproximationFunction):
    """Tuple-based approximation function (the g2 measure of Kivinen et al.).

    The violation score is the fraction of tuples participating in at least
    one violating pair.
    """

    name = "f2"
    pair_bound_factor = 2.0
    requires_participation = True

    def violation_score(
        self, evidence: EvidenceSet, uncovered_indices: Collection[int]
    ) -> float:
        if evidence.n_rows == 0:
            return 0.0
        involved = evidence.tuples_involved(uncovered_indices)
        return len(involved) / evidence.n_rows


class F3Greedy(ApproximationFunction):
    """Greedy cardinality-repair approximation (Figure 2 of the paper).

    Exact ``f3`` requires a minimum vertex cover of the conflict graph,
    which is NP-hard for DCs, so the paper replaces it by a greedy cover:
    tuples are sorted by the number of violations they participate in and
    selected until the selected tuples cover (at least) all violating pairs.
    The violation score is the fraction of tuples selected.
    """

    name = "f3"
    pair_bound_factor = 2.0
    requires_participation = True

    def violation_score(
        self, evidence: EvidenceSet, uncovered_indices: Collection[int]
    ) -> float:
        if evidence.n_rows == 0:
            return 0.0
        uncovered = np.asarray(
            uncovered_indices
            if isinstance(uncovered_indices, np.ndarray)
            else list(uncovered_indices),
            dtype=np.int64,
        )
        total_violations = evidence.pair_count_of(uncovered)
        if total_violations == 0:
            return 0.0
        per_tuple = evidence.violation_counts_per_tuple(uncovered)
        order = np.argsort(-per_tuple, kind="stable")
        covered = 0
        selected = 0
        for tuple_id in order:
            if covered >= total_violations:
                break
            weight = int(per_tuple[tuple_id])
            if weight == 0:
                break
            covered += weight
            selected += 1
        return selected / evidence.n_rows


class F1Adjusted(ApproximationFunction):
    """The sample-adjusted pair-based function ``f1'`` of Section 7.2.

    When mining from a sample ``J`` with a desired database-level threshold
    ``epsilon`` and error probability ``alpha``, accepting a DC on the sample
    iff ``1 - f1'(J, S_phi) <= epsilon`` guarantees (under the normal
    approximation) that the DC is an ADC of the full database w.r.t.
    ``epsilon`` with probability at least ``1 - alpha``.
    """

    name = "f1'"
    pair_bound_factor = None
    pair_determined = True

    def __init__(self, confidence_z: float) -> None:
        if confidence_z < 0:
            raise ValueError("the confidence multiplier must be non-negative")
        self.confidence_z = float(confidence_z)

    def violation_score(
        self, evidence: EvidenceSet, uncovered_indices: Collection[int]
    ) -> float:
        total = evidence.total_pairs
        if total == 0:
            return 0.0
        p_hat = evidence.pair_count_of(uncovered_indices) / total
        return self._score_from_fraction(p_hat, total)

    def violation_score_from_pair_fraction(
        self, pair_fraction: float, total_pairs: int
    ) -> float | None:
        if total_pairs == 0:
            return 0.0
        return self._score_from_fraction(pair_fraction, total_pairs)

    def _score_from_fraction(self, p_hat: float, total_pairs: int) -> float:
        margin = self.confidence_z * np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / total_pairs)
        return float(p_hat + margin)


#: The three named functions of the paper, keyed by their report name.
STANDARD_FUNCTIONS: dict[str, ApproximationFunction] = {
    "f1": F1(),
    "f2": F2(),
    "f3": F3Greedy(),
}


def get_approximation_function(name: str) -> ApproximationFunction:
    """Look up one of the standard approximation functions by name."""
    try:
        return STANDARD_FUNCTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown approximation function {name!r}; expected one of "
            f"{sorted(STANDARD_FUNCTIONS)}"
        ) from None


# ----------------------------------------------------------------------
# Empirical axiom checkers (Definitions 4.1 and 4.2)
# ----------------------------------------------------------------------
def _score_of_predicate_set(
    function: ApproximationFunction, evidence: EvidenceSet, dc_mask: int
) -> float:
    """``f(D, S_phi)`` for the DC whose predicate bitmask is ``dc_mask``."""
    hitting_mask = evidence.space.complement_mask(dc_mask)
    return function.score(evidence, evidence.uncovered_indices(hitting_mask))


def check_monotonicity(
    function: ApproximationFunction,
    evidence: EvidenceSet,
    trials: int = 50,
    max_predicates: int = 4,
    seed: int = 0,
) -> bool:
    """Empirically verify monotonicity (Definition 4.1) on random DC chains.

    Random predicate sets ``S subset S'`` are drawn and the scores compared;
    the check fails on the first witnessed decrease.  The greedy f3 function
    is only *approximately* monotonic, mirroring the paper's caveat that it
    carries no theoretical guarantee; it is therefore excluded from the
    strict test suite assertion and only sanity-checked.
    """
    rng = random.Random(seed)
    indices = list(range(len(evidence.space)))
    if not indices:
        return True
    for _ in range(trials):
        size = rng.randint(1, min(max_predicates, len(indices)))
        base = rng.sample(indices, size)
        extra_candidates = [i for i in indices if i not in base]
        if not extra_candidates:
            continue
        extra = rng.choice(extra_candidates)
        base_mask = sum(1 << i for i in base)
        super_mask = base_mask | (1 << extra)
        if _score_of_predicate_set(function, evidence, base_mask) > _score_of_predicate_set(
            function, evidence, super_mask
        ) + 1e-12:
            return False
    return True


def check_indifference_to_redundancy(
    function: ApproximationFunction,
    evidence: EvidenceSet,
    trials: int = 50,
    max_predicates: int = 4,
    seed: int = 0,
) -> bool:
    """Empirically verify indifference to redundancy (Definition 4.2).

    For random predicate sets, a redundant predicate (one implied by a
    predicate already in the set, hence not changing the satisfying pairs)
    is added and the scores compared for equality.
    """
    rng = random.Random(seed)
    space = evidence.space
    implications: list[tuple[int, int]] = []
    for strong, weak in itertools.permutations(range(len(space)), 2):
        if space[strong].implies(space[weak]) and strong != weak:
            implications.append((strong, weak))
    if not implications:
        return True
    indices = list(range(len(space)))
    for _ in range(trials):
        strong, weak = rng.choice(implications)
        size = rng.randint(0, min(max_predicates, len(indices) - 2))
        others = rng.sample([i for i in indices if i not in (strong, weak)], size)
        base_mask = (1 << strong) | sum(1 << i for i in others)
        redundant_mask = base_mask | (1 << weak)
        base_score = _score_of_predicate_set(function, evidence, base_mask)
        redundant_score = _score_of_predicate_set(function, evidence, redundant_mask)
        if abs(base_score - redundant_score) > 1e-12:
            return False
    return True


def pair_violation_fraction(evidence: EvidenceSet, uncovered_indices: Iterable[int]) -> float:
    """The cheap pair-based violation fraction (``1 - f1``).

    Used as the Proposition 5.3 pre-filter: if this exceeds ``2 * epsilon``
    then neither f2 nor f3 can pass the threshold ``epsilon``.
    """
    total = evidence.total_pairs
    if total == 0:
        return 0.0
    return evidence.pair_count_of(uncovered_indices) / total


def verify_proposition_5_3(
    evidence: EvidenceSet,
    dc_masks: Sequence[int],
    epsilon: float,
) -> bool:
    """Check Proposition 5.3 on concrete DCs: ``1-f_i <= eps`` implies ``1-f1 <= 2 eps``."""
    f1, f2, f3 = F1(), F2(), F3Greedy()
    for dc_mask in dc_masks:
        hitting = evidence.space.complement_mask(dc_mask)
        uncovered = evidence.uncovered_indices(hitting)
        pair_score = f1.violation_score(evidence, uncovered)
        for function in (f2, f3):
            if function.violation_score(evidence, uncovered) <= epsilon and pair_score > 2 * epsilon + 1e-12:
                return False
    return True
