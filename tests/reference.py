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

import numpy as np

from repro.core.approximation import F1, F2, ApproximationFunction, F3Greedy
from repro.core.bitset import unpack_bits
from repro.core.dc import DenialConstraint
from repro.core.evidence import EvidenceSet
from repro.core.operators import Operator
from repro.core.predicate_space import PredicateSpace, iter_bits
from repro.core.predicates import Predicate, PredicateForm
from repro.core.repair import ConflictGraph, build_conflict_graph
from repro.data.datasets import DATASET_NAMES, DEFAULT_ROWS, Dataset, generate_dataset
from repro.data.relation import Relation
from repro.engine import PartialEvidenceSet, Tile, TileKernel, block_tiles, fold_tiles
from tests.numpy_backend import DESCENDED, PRUNED


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
# Minimal hitting sets (the exact, epsilon = 0 case of ADCEnum)
# ----------------------------------------------------------------------
def brute_force_minimal_hitting_sets(subsets: Sequence[int], n_elements: int) -> list[int]:
    """Exponential reference for the minimal hitting sets of a set family."""
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


def family_evidence(subsets: Sequence[int], n_elements: int) -> EvidenceSet:
    """An evidence set whose exact minimal hitting sets are the family's.

    Element ``j`` is the predicate ``t.c_j == t'.c_j`` at bit ``2j``; its
    complement ``t.c_j != t'.c_j`` at bit ``2j + 1`` is in no evidence, so
    it never enters a hitting set.  Each predicate is its own column's
    group, so ADCEnum at ``epsilon = 0`` enumerates exactly the minimal
    hitting sets of ``subsets`` (read them back with
    :func:`family_hitting_set`).  Pair counts follow the deep-chain
    construction: one pair per evidence, the last absorbing the remainder
    of ``n_rows * (n_rows - 1)``.
    """
    predicates = []
    for j in range(n_elements):
        column = f"c{j}"
        predicates.append(
            Predicate(column, Operator.EQ, column, PredicateForm.TWO_TUPLE_SAME_COLUMN)
        )
        predicates.append(
            Predicate(column, Operator.NE, column, PredicateForm.TWO_TUPLE_SAME_COLUMN)
        )
    masks = [sum(1 << (2 * j) for j in iter_bits(int(subset))) for subset in subsets]
    n = len(masks)
    if n == 0:
        return EvidenceSet(PredicateSpace(predicates), masks=[], counts=[], n_rows=0)
    n_rows = 2
    while n_rows * (n_rows - 1) < n:
        n_rows += 1
    counts = [1] * (n - 1) + [n_rows * (n_rows - 1) - (n - 1)]
    return EvidenceSet(PredicateSpace(predicates), masks=masks, counts=counts, n_rows=n_rows)


def family_hitting_set(hitting_set_mask: int) -> int:
    """The element set of a hitting set mask over :func:`family_evidence`."""
    return sum(1 << (bit // 2) for bit in iter_bits(hitting_set_mask))


# ----------------------------------------------------------------------
# Criticality bookkeeping of a search workspace (UpdateCritUncov)
# ----------------------------------------------------------------------
def _crit_sets(workspace) -> list[set[int]]:
    rows = workspace.crit_active_rows()
    n_evidences = workspace.n_evidences
    return [set(np.flatnonzero(unpack_bits(row, n_evidences)).tolist()) for row in rows]


def criticality_walk(
    workspace,
    evidence: EvidenceSet,
    rng: random.Random,
    steps: int,
    selection: int = 0,
) -> list[tuple]:
    """Drive a search workspace along a random path, checking criticality.

    ``workspace`` is a fresh search workspace over ``evidence`` (from
    ``ADCEnum._get_workspace``).  Each node is expanded once, as the search
    does; each step then, at random, returns to the parent (``crit_pop``
    after a hit), takes the skip branch (before the hit loop starts), or
    tries the node's next hit-loop element (``try_hit``); finally the whole
    path unwinds.  After every operation the packed criticality rows must
    equal a ``list[set[int]]`` model over root evidence indices: pushing
    element ``e`` with uncovered set ``U`` strips ``covers(e)`` from every
    member's set, is viable when each member keeps an evidence, and only
    then appends ``covers(e) & U``.

    Returns the trace of ``(operation, status, element, child evidence
    count, criticality rows)`` so two backends can be held to the same
    walk bit for bit.
    """
    covers = [
        {e for e, mask in enumerate(evidence.masks) if mask >> p & 1}
        for p in range(len(evidence.space))
    ]
    trace: list[tuple] = []
    model: list[set[int]] = []
    uncovered = set(range(len(evidence)))

    def record(operation, status=-1, element=-1, child=-1) -> None:
        assert _crit_sets(workspace) == model
        trace.append((operation, status, element, child, workspace.crit_active_rows().tolist()))

    def enter(n: int, hit: bool, parent_model, parent_uncovered) -> dict:
        # The frame keeps its parent's model, restored when it is popped.
        depth = len(frames)
        chosen, _, _, n_to_try = workspace.expand(depth, n, selection, 0)
        return {
            "n": n, "hit": hit, "model": parent_model, "uncovered": parent_uncovered,
            "open": chosen >= 0 and n_to_try > 0, "n_to_try": n_to_try,
            "k": None, "position": 0,
        }

    frames: list[dict] = []
    frames.append(enter(workspace.init_root(), False, model, uncovered))
    for _ in range(steps):
        frame = frames[-1]
        depth = len(frames) - 1
        action = rng.randrange(4)
        if frame["open"] and frame["k"] is None and action == 1:
            child = workspace.skip_child(depth, frame["n"], rng.random() < 0.5)
            frames.append(enter(child, False, model, uncovered))
            record("skip", child=child)
            continue
        if frame["open"] and action >= 2:
            if frame["k"] is None:
                frame["k"] = workspace.hit_prepare(depth, frame["n"], frame["n_to_try"])
            if frame["position"] < frame["k"]:
                position = frame["position"]
                frame["position"] += 1
                status, element, child, _ = workspace.try_hit(depth, frame["n"], position)
                reduced = [member - covers[element] for member in model]
                viable = all(reduced)
                assert status == (DESCENDED if viable else PRUNED)
                if viable:
                    frames.append(enter(child, True, model, uncovered))
                    model = reduced + [covers[element] & uncovered]
                    uncovered = uncovered - covers[element]
                record("hit", status, element, child)
                continue
        if depth == 0:
            if not frame["open"] or frame["k"] is not None and frame["position"] >= frame["k"]:
                break
            continue
        frames.pop()
        model, uncovered = frame["model"], frame["uncovered"]
        if frame["hit"]:
            workspace.crit_pop()
        record("pop")
    while len(frames) > 1:
        frame = frames.pop()
        model, uncovered = frame["model"], frame["uncovered"]
        if frame["hit"]:
            workspace.crit_pop()
        record("pop")
    assert workspace.crit_depth == 0
    return trace


# ----------------------------------------------------------------------
# A user-defined approximation function ("semantics as input")
# ----------------------------------------------------------------------
class WorstTupleShare(ApproximationFunction):
    """The largest share of one tuple's ordered pairs that violate the DC.

    ``1 - f = max_t v(t) / (2 (n - 1))``, where ``v(t)`` counts the
    violating pairs tuple ``t`` takes part in.  More uncovered evidences
    never lower a ``v(t)`` (monotone), and a redundant predicate uncovers
    the same evidences (indifferent to redundancy), so the function is
    valid; but equal violating-pair counts can score differently, so it is
    not pair-determined, and ``ADCEnum`` asks it through the pass-test
    callback with the uncovered evidence ids.  None of the library's
    functions is defined this way.
    """

    name = "worst-tuple"
    requires_participation = True

    def violation_score(self, evidence: EvidenceSet, uncovered_indices) -> float:
        if evidence.n_rows < 2:
            return 0.0
        per_tuple = evidence.violation_counts_per_tuple(uncovered_indices)
        return int(per_tuple.max()) / (2 * (evidence.n_rows - 1))


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
# Empirical axiom checkers (Definitions 4.1 and 4.2)
# ----------------------------------------------------------------------
def score_of_predicate_set(
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
        if score_of_predicate_set(function, evidence, base_mask) > score_of_predicate_set(
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
        base_score = score_of_predicate_set(function, evidence, base_mask)
        redundant_score = score_of_predicate_set(function, evidence, redundant_mask)
        if abs(base_score - redundant_score) > 1e-12:
            return False
    return True


# ----------------------------------------------------------------------
# Conflict graphs from given pairs, and the 2-approximate vertex cover
# ----------------------------------------------------------------------
def conflict_graph_from_pairs(n_tuples: int, pairs: Iterable[tuple[int, int]]) -> ConflictGraph:
    """A conflict graph from externally computed violating pairs.

    For example the tile-replayed pairs of
    :meth:`~repro.incremental.serve.ViolationService.violating_pairs`,
    compared against :func:`~repro.core.repair.build_conflict_graph`.
    """
    return ConflictGraph(int(n_tuples), frozenset((int(u), int(v)) for u, v in pairs))


def vertex_cover_2_approximation(graph: ConflictGraph) -> set[int]:
    """2-approximate vertex cover via a maximal matching (Bar-Yehuda & Even)."""
    cover: set[int] = set()
    for u, v in sorted({tuple(sorted(edge)) for edge in graph.edges}):
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return cover


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


# ----------------------------------------------------------------------
# Evidence folded in parts
# ----------------------------------------------------------------------
def merge_partials_tree(partials: list[PartialEvidenceSet]) -> PartialEvidenceSet:
    """Reduce partials with a balanced binary merge tree."""
    if not partials:
        raise ValueError("cannot merge zero partials")
    layer = list(partials)
    while len(layer) > 1:
        merged = [
            layer[index].merge(layer[index + 1])
            for index in range(0, len(layer) - 1, 2)
        ]
        if len(layer) % 2:
            merged.append(layer[-1])
        layer = merged
    return layer[0]


def fold_in_parts(kernel: TileKernel, tiles: Sequence[Tile], parts: int) -> PartialEvidenceSet:
    """Fold ``tiles`` as ``parts`` contiguous runs, one fold call each, and
    merge the runs' partials with :func:`merge_partials_tree`.

    Every split of a schedule must finalize bit-identically to one fold of
    the whole schedule; this is that split, done serially.
    """
    tiles = tuple(tiles)
    size = max(1, -(-len(tiles) // parts))
    runs = [tiles[start : start + size] for start in range(0, len(tiles), size)]
    return merge_partials_tree([fold_tiles(kernel, run) for run in runs or [()]])


def grid_tiles(n_rows: int, edge: int) -> tuple[Tile, ...]:
    """A full build's tiles: the ``n_rows x n_rows`` pair matrix cut by
    the engine's cutter into its row-major square grid."""
    return block_tiles((0, n_rows), (0, n_rows), edge)


def build_evidence_set_in_parts(
    relation: Relation,
    space: PredicateSpace,
    tile_rows: int,
    parts: int,
    include_participation: bool = True,
) -> EvidenceSet:
    """The tiled build's schedule folded by :func:`fold_in_parts`."""
    kernel = TileKernel.from_relation(relation, space, include_participation)
    tiles = grid_tiles(relation.n_rows, tile_rows)
    return fold_in_parts(kernel, tiles, parts).finalize(space)
