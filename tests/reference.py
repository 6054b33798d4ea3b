"""Reference implementations and checks used to validate the real algorithms.

These are deliberately naive (often exponential) and only run on tiny
inputs; they follow the paper's definitions as literally as possible so that
agreement with the optimised implementations is meaningful.  The library
does not call any of them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.approximation import F1, F2, ApproximationFunction, F3Greedy
from repro.core.dc import DenialConstraint
from repro.core.evidence import EvidenceSet
from repro.core.predicate_space import PredicateSpace, iter_bits
from repro.core.repair import build_conflict_graph, vertex_cover_2_approximation
from repro.data.datasets import DATASET_NAMES, DEFAULT_ROWS, Dataset, generate_dataset
from repro.data.relation import Relation


def brute_force_minimal_adc_hitting_sets(
    evidence: EvidenceSet,
    function: ApproximationFunction,
    epsilon: float,
    max_size: int = 4,
) -> set[int]:
    """All minimal approximate hitting sets, by exhaustive subset enumeration.

    Mirrors the restrictions the paper's enumerator applies: at most one
    predicate per column-pair group (operator-only variants are pruned by
    ``RemoveRedundantPreds``), and the corresponding DC must be nontrivial.
    Subsets are capped at ``max_size`` elements to keep the search feasible;
    callers must pass the same cap to the algorithm under test.
    """
    space = evidence.space
    n = len(space)
    passing: set[int] = set()
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(n), size):
            if not _one_per_group(space, combo):
                continue
            mask = 0
            for index in combo:
                mask |= 1 << index
            if _dc_of(space, mask).is_trivial():
                continue
            uncovered = evidence.uncovered_indices(mask)
            if function.violation_score(evidence, uncovered) <= epsilon:
                passing.add(mask)
    minimal: set[int] = set()
    for mask in passing:
        has_smaller = any(other != mask and other & mask == other for other in passing)
        if not has_smaller:
            minimal.add(mask)
    return minimal


def _one_per_group(space: PredicateSpace, indices: Iterable[int]) -> bool:
    """Whether the hitting set uses at most one predicate per group."""
    groups = [space[index].group_key for index in indices]
    return len(groups) == len(set(groups))


def _dc_of(space: PredicateSpace, hitting_mask: int) -> DenialConstraint:
    """DC corresponding to a hitting set (complement of every element)."""
    return DenialConstraint(
        space[space.complement_index(index)] for index in iter_bits(hitting_mask)
    )


def brute_force_adcs(
    evidence: EvidenceSet,
    function: ApproximationFunction,
    epsilon: float,
    max_size: int = 4,
) -> set[frozenset]:
    """Normalised predicate sets of all minimal nontrivial ADCs."""
    space = evidence.space
    hitting_sets = brute_force_minimal_adc_hitting_sets(evidence, function, epsilon, max_size)
    return {_dc_of(space, mask).predicates for mask in hitting_sets}


def brute_force_violation_count(relation, constraint: DenialConstraint) -> int:
    """Violations of a DC by direct evaluation of every ordered pair."""
    rows = [relation.row(index) for index in range(relation.n_rows)]
    count = 0
    for i, j in itertools.permutations(range(relation.n_rows), 2):
        if all(p.evaluate(rows[i], rows[j]) for p in constraint.predicates):
            count += 1
    return count


# ----------------------------------------------------------------------
# Minimal hitting sets (validates MMCS)
# ----------------------------------------------------------------------
def brute_force_minimal_hitting_sets(subsets: Sequence[int], n_elements: int) -> list[int]:
    """Exponential reference implementation used to validate MMCS in tests."""
    subsets = list(subsets)
    if any(subset == 0 for subset in subsets):
        return []
    hitting: list[int] = []
    for candidate in range(1 << n_elements):
        if all(candidate & subset for subset in subsets):
            hitting.append(candidate)
    minimal = []
    for candidate in hitting:
        if not any(other != candidate and other & candidate == other for other in hitting):
            minimal.append(candidate)
    return minimal


def is_hitting_set(candidate: int, subsets: Iterable[int]) -> bool:
    """Whether ``candidate`` intersects every subset."""
    return all(candidate & subset for subset in subsets)


# ----------------------------------------------------------------------
# Proposition 5.3: f2 and f3 within a factor 2 of f1
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# f3 via the 2-approximate vertex cover
# ----------------------------------------------------------------------
def approximate_f3_violation(relation: Relation, constraint: DenialConstraint) -> float:
    """2-approximate ``1 - f3`` via maximal matching."""
    graph = build_conflict_graph(relation, constraint)
    cover = vertex_cover_2_approximation(graph)
    return len(cover) / relation.n_rows if relation.n_rows else 0.0


# ----------------------------------------------------------------------
# Random-polluter simulation (the model behind the binomial analysis)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RandomPolluterGraph:
    """A random conflict graph where each directed edge appears w.p. ``p``."""

    n_vertices: int
    edge_probability: float
    edges: frozenset[tuple[int, int]]

    @property
    def violation_fraction(self) -> float:
        """Fraction of ordered vertex pairs that are edges."""
        total = self.n_vertices * (self.n_vertices - 1)
        return len(self.edges) / total if total else 0.0


def simulate_random_polluter(
    n_vertices: int, edge_probability: float, seed: int | None = None
) -> RandomPolluterGraph:
    """Draw a conflict graph from the random-polluter model of Section 7.1."""
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge_probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = {
        (i, j)
        for i in range(n_vertices)
        for j in range(n_vertices)
        if i != j and rng.random() < edge_probability
    }
    return RandomPolluterGraph(n_vertices, edge_probability, frozenset(edges))


def sample_edge_fraction(
    graph: RandomPolluterGraph, sample_vertices: list[int]
) -> float:
    """The estimator ``p_hat`` computed on an induced vertex sample."""
    chosen = set(sample_vertices)
    if len(chosen) < 2:
        return 0.0
    sampled_edges = sum(
        1 for (u, v) in graph.edges if u in chosen and v in chosen
    )
    return sampled_edges / (len(chosen) * (len(chosen) - 1))


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------
def generate_all_datasets(scale: float = 1.0, seed: int = 0) -> dict[str, Dataset]:
    """Generate every dataset, optionally scaling the default row counts."""
    datasets = {}
    for name in DATASET_NAMES:
        rows = max(20, int(DEFAULT_ROWS[name] * scale))
        datasets[name] = generate_dataset(name, n_rows=rows, seed=seed)
    return datasets
