"""Pre-refactor reference enumerators (frozen for cross-checks and benchmarks).

``LegacyADCEnum`` and ``LegacyMMCS`` are faithful snapshots of the
enumeration core *before* it was rebuilt on packed uint64 word planes
(:mod:`repro.core.adc_enum` / :mod:`repro.core.hitting_set`).  They are kept
for two purposes only:

* the cross-check tests assert that the word-native enumerators emit
  **bit-identical** output lists (same masks, same order, same scores);
* ``benchmarks/bench_enum_core.py`` measures the word-native speedup against
  this exact pre-refactor baseline.

Do not use these classes in the pipeline; they deliberately retain the
Python-int mask churn (per-node ``mask_to_words`` splits, ``evidence.masks``
lookups, ``dict[int, set[int]]`` criticality bookkeeping with ``np.fromiter``
round-trips) that the word-native core eliminates.

One deviation from the historical code is pinned down on purpose:
``LegacyMMCS._choose_subset`` iterates the uncovered set in **sorted index
order** rather than Python-set order, so its tie-breaking (lowest index among
the subsets with the fewest candidate elements) is well defined.  The
word-native :class:`~repro.core.hitting_set.MMCS` implements the same rule,
which is what lets the cross-check assert exact output order instead of mere
set equality; the enumerated *set* of minimal hitting sets is unaffected by
the choice rule.
"""

from __future__ import annotations

import contextlib
import math
import sys
from typing import Iterator, Sequence

import numpy as np

from repro.core.adc_enum import DiscoveredADC, EnumerationStatistics, SelectionStrategy
from repro.core.approximation import ApproximationFunction, F1
from repro.core.dc import DenialConstraint
from repro.core.evidence import EvidenceSet
from repro.core.hitting_set import MMCSStatistics
from repro.core.predicate_space import iter_bits

_WORD_BITS = 64
_WORD_MASK = 0xFFFFFFFFFFFFFFFF


@contextlib.contextmanager
def _recursion_limit_at_least(limit: int) -> Iterator[None]:
    """Raise the interpreter recursion limit for the recursive search, and
    restore the caller's limit when the search finishes or is abandoned."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def _legacy_mask_to_words(mask: int, n_words: int) -> np.ndarray:
    """The pre-refactor word splitter (Python loop over word shifts)."""
    words = np.zeros(n_words, dtype=np.uint64)
    for word in range(n_words):
        words[word] = (mask >> (_WORD_BITS * word)) & _WORD_MASK
    return words


class LegacyADCEnum:
    """The pre-refactor ADCEnum (Python-int masks inside the recursion)."""

    def __init__(
        self,
        evidence: EvidenceSet,
        function: ApproximationFunction | None = None,
        epsilon: float = 0.01,
        selection: SelectionStrategy = "max",
        max_dc_size: int | None = None,
    ) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if selection not in ("max", "min", "random"):
            raise ValueError(f"unknown selection strategy {selection!r}")
        self.evidence = evidence
        self.function = function if function is not None else F1()
        self.epsilon = float(epsilon)
        self.selection: SelectionStrategy = selection
        self.max_dc_size = max_dc_size
        self.statistics = EnumerationStatistics()
        if self.function.requires_participation and not evidence.has_participation:
            raise ValueError(
                f"approximation function {self.function.name} needs tuple participation; "
                "build the evidence set with include_participation=True"
            )
        self._n_evidences = len(self.evidence)
        self._n_words = self.evidence.n_words
        self._ev_words = self.evidence.words
        self._counts = np.asarray(self.evidence.counts, dtype=np.int64)
        self._contains = self.evidence.predicate_membership()

    def enumerate(self) -> list[DiscoveredADC]:
        return list(self.iter_adcs())

    def iter_adcs(self) -> Iterator[DiscoveredADC]:
        self.statistics = EnumerationStatistics()

        space = self.evidence.space
        uncov = np.arange(self._n_evidences, dtype=np.int64)
        can_hit = np.ones(self._n_evidences, dtype=bool)
        uncovered_pairs = int(self._counts.sum()) if self._n_evidences else 0
        cand = (1 << len(space)) - 1
        crit: dict[int, set[int]] = {}
        seen_outputs: set[int] = set()

        with _recursion_limit_at_least(50_000):
            yield from self._search(
                s_mask=0,
                s_elements=[],
                crit=crit,
                uncov=uncov,
                uncovered_pairs=uncovered_pairs,
                cand=cand,
                can_hit=can_hit,
                seen_outputs=seen_outputs,
            )

    def _violation_score(self, uncov_indices: Sequence[int], uncovered_pairs: int) -> float:
        total = self.evidence.total_pairs
        if total == 0:
            return 0.0
        pair_fraction = uncovered_pairs / total
        shortcut = self.function.violation_score_from_pair_fraction(pair_fraction, total)
        if shortcut is not None:
            return shortcut
        factor = self.function.pair_bound_factor
        if factor is not None and pair_fraction > factor * self.epsilon:
            return math.inf
        return self.function.violation_score(self.evidence, uncov_indices)

    def _passes(self, uncov_indices: Sequence[int], uncovered_pairs: int) -> bool:
        return self._violation_score(uncov_indices, uncovered_pairs) <= self.epsilon

    def _passes_lazy(self, uncov: np.ndarray, uncovered_pairs: int) -> bool:
        total = self.evidence.total_pairs
        if total == 0:
            return True
        pair_fraction = uncovered_pairs / total
        shortcut = self.function.violation_score_from_pair_fraction(pair_fraction, total)
        if shortcut is not None:
            return shortcut <= self.epsilon
        factor = self.function.pair_bound_factor
        if factor is not None and pair_fraction > factor * self.epsilon:
            return False
        score = self.function.violation_score(self.evidence, uncov)
        return score <= self.epsilon

    def _is_minimal(
        self,
        s_elements: list[int],
        crit: dict[int, set[int]],
        uncov: np.ndarray,
        uncovered_pairs: int,
    ) -> bool:
        self.statistics.minimality_checks += 1
        uncov_indices: list[int] | None = None
        for element in s_elements:
            critical = crit.get(element, set())
            extra_pairs = int(self._counts[list(critical)].sum()) if critical else 0
            pair_fraction_known = self.function.violation_score_from_pair_fraction(
                (uncovered_pairs + extra_pairs) / max(self.evidence.total_pairs, 1),
                self.evidence.total_pairs,
            )
            if pair_fraction_known is not None:
                if pair_fraction_known <= self.epsilon:
                    return False
                continue
            if uncov_indices is None:
                uncov_indices = uncov.tolist()
            if self._passes(uncov_indices + list(critical), uncovered_pairs + extra_pairs):
                return False
        return True

    def _search(
        self,
        s_mask: int,
        s_elements: list[int],
        crit: dict[int, set[int]],
        uncov: np.ndarray,
        uncovered_pairs: int,
        cand: int,
        can_hit: np.ndarray,
        seen_outputs: set[int],
    ) -> Iterator[DiscoveredADC]:
        self.statistics.recursive_calls += 1
        space = self.evidence.space

        if self._passes_lazy(uncov, uncovered_pairs):
            if self._is_minimal(s_elements, crit, uncov, uncovered_pairs):
                yield from self._emit(s_mask, uncov, seen_outputs)
            return

        cand_words = _legacy_mask_to_words(cand, self._n_words)
        overlap = (self._ev_words[uncov] & cand_words).any(axis=1)
        hittable = can_hit[uncov]
        selectable = uncov[hittable & overlap]
        if selectable.size == 0:
            return
        chosen = self._choose_evidence(selectable, cand_words)
        chosen_mask = self.evidence.masks[chosen]

        reduced_cand = cand & ~chosen_mask
        reduced_words = _legacy_mask_to_words(reduced_cand, self._n_words)
        reduced_overlap = (self._ev_words[uncov] & reduced_words).any(axis=1)
        blocked = uncov[hittable & ~reduced_overlap]
        will_cover_uncov = uncov[~reduced_overlap]
        will_cover_pairs = int(self._counts[will_cover_uncov].sum())
        if self._passes_lazy(will_cover_uncov, will_cover_pairs):
            self.statistics.skip_branches += 1
            can_hit[blocked] = False
            yield from self._search(
                s_mask, s_elements, crit, uncov, uncovered_pairs,
                reduced_cand, can_hit, seen_outputs,
            )
            can_hit[blocked] = True
        else:
            self.statistics.pruned_by_willcover += 1

        if self.max_dc_size is not None and len(s_elements) >= self.max_dc_size:
            return
        to_try = chosen_mask & cand
        cand &= ~chosen_mask
        for element in iter_bits(to_try):
            element_contains = self._contains[element]
            covered_here = element_contains[uncov]
            newly_covered = uncov[covered_here]
            remaining_uncov = uncov[~covered_here]
            covered_pairs = int(self._counts[newly_covered].sum())
            crit[element] = set(newly_covered.tolist())
            removed_from_crit: dict[int, list[int]] = {}
            for member in s_elements:
                critical = crit[member]
                if not critical:
                    continue
                critical_array = np.fromiter(critical, dtype=np.int64, count=len(critical))
                removed_array = critical_array[element_contains[critical_array]]
                if removed_array.size:
                    removed = removed_array.tolist()
                    removed_from_crit[member] = removed
                    crit[member].difference_update(removed)

            if all(crit[member] for member in s_elements):
                self.statistics.hit_branches += 1
                pruned_cand = cand & ~space.group_mask(element)
                s_elements.append(element)
                yield from self._search(
                    s_mask | (1 << element),
                    s_elements,
                    crit,
                    remaining_uncov,
                    uncovered_pairs - covered_pairs,
                    pruned_cand,
                    can_hit,
                    seen_outputs,
                )
                s_elements.pop()
                cand |= 1 << element
            else:
                self.statistics.pruned_by_criticality += 1

            crit.pop(element, None)
            for member, removed in removed_from_crit.items():
                crit[member].update(removed)

    def _choose_evidence(self, selectable: np.ndarray, cand_words: np.ndarray) -> int:
        if self.selection == "random":
            return int(selectable[self.statistics.recursive_calls % selectable.size])
        intersections = np.bitwise_count(
            self._ev_words[selectable] & cand_words
        ).sum(axis=1)
        if self.selection == "max":
            return int(selectable[int(np.argmax(intersections))])
        return int(selectable[int(np.argmin(intersections))])

    def _emit(
        self,
        s_mask: int,
        uncov: np.ndarray,
        seen_outputs: set[int],
    ) -> Iterator[DiscoveredADC]:
        if s_mask == 0 or s_mask in seen_outputs:
            return
        space = self.evidence.space
        dc_predicates = [space[space.complement_index(index)] for index in iter_bits(s_mask)]
        constraint = DenialConstraint(dc_predicates)
        if constraint.is_trivial():
            return
        seen_outputs.add(s_mask)
        score = self.function.violation_score(self.evidence, uncov)
        self.statistics.outputs += 1
        yield DiscoveredADC(constraint, s_mask, score)


class LegacyMMCS:
    """The pre-refactor MMCS (Python sets and int masks), tie-break pinned."""

    def __init__(self, subsets: Sequence[int], n_elements: int) -> None:
        self.subsets = list(subsets)
        self.n_elements = int(n_elements)
        self.statistics = MMCSStatistics()

    def enumerate(self) -> list[int]:
        return list(self.iter_minimal_hitting_sets())

    def iter_minimal_hitting_sets(self) -> Iterator[int]:
        self.statistics = MMCSStatistics()
        if any(subset == 0 for subset in self.subsets):
            return
        uncov = set(range(len(self.subsets)))
        cand = (1 << self.n_elements) - 1
        crit: dict[int, set[int]] = {}
        with _recursion_limit_at_least(10_000):
            yield from self._search(0, crit, uncov, cand)

    def _search(
        self,
        current: int,
        crit: dict[int, set[int]],
        uncov: set[int],
        cand: int,
    ) -> Iterator[int]:
        self.statistics.recursive_calls += 1
        if not uncov:
            self.statistics.outputs += 1
            yield current
            return
        chosen = self._choose_subset(uncov, cand)
        subset_mask = self.subsets[chosen]
        to_try = subset_mask & cand
        cand &= ~subset_mask
        for element in iter_bits(to_try):
            newly_covered, removed_from_crit = self._update_crit_uncov(element, current, crit, uncov)
            if all(crit[member] for member in iter_bits(current)):
                yield from self._search(current | (1 << element), crit, uncov, cand)
                cand |= 1 << element
            else:
                self.statistics.pruned_by_criticality += 1
            self._undo_crit_uncov(element, crit, uncov, newly_covered, removed_from_crit)

    def _choose_subset(self, uncov: set[int], cand: int) -> int:
        # Sorted iteration pins the tie-break to the lowest index (see the
        # module docstring); the historical code iterated in set order.
        return min(sorted(uncov), key=lambda index: bin(self.subsets[index] & cand).count("1"))

    def _update_crit_uncov(
        self,
        element: int,
        current: int,
        crit: dict[int, set[int]],
        uncov: set[int],
    ) -> tuple[list[int], dict[int, list[int]]]:
        element_bit = 1 << element
        newly_covered = [index for index in uncov if self.subsets[index] & element_bit]
        for index in newly_covered:
            uncov.discard(index)
        crit[element] = set(newly_covered)
        removed_from_crit: dict[int, list[int]] = {}
        for member in iter_bits(current):
            removed = [index for index in crit[member] if self.subsets[index] & element_bit]
            if removed:
                removed_from_crit[member] = removed
                crit[member].difference_update(removed)
        return newly_covered, removed_from_crit

    def _undo_crit_uncov(
        self,
        element: int,
        crit: dict[int, set[int]],
        uncov: set[int],
        newly_covered: list[int],
        removed_from_crit: dict[int, list[int]],
    ) -> None:
        uncov.update(newly_covered)
        crit.pop(element, None)
        for member, removed in removed_from_crit.items():
            crit[member].update(removed)
