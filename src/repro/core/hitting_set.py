"""Exact minimal hitting set enumeration (MMCS).

The algorithm of Murakami and Uno [32] (Figure 3 of the paper) enumerates all
minimal hitting sets of a family of subsets.  ADCEnum extends it to the
approximate setting; the exact version is kept both as a reusable substrate
(valid-DC discovery corresponds to epsilon = 0) and as a reference for the
tests of Theorem 6.1.

The public interface still speaks Python-int bitmasks over element indices
``0 .. n_elements - 1`` (subsets in, minimal hitting sets out), but the
search itself runs on the same word-native core as ADCEnum: subsets and the
candidate set are packed uint64 word vectors, the uncovered family is a
packed bitset over subset indices, and the criticality bookkeeping of
UpdateCritUncov lives in :class:`~repro.core.bitset.CriticalityPlanes`.
Sharing the representation means the Figure 6 family of comparisons measures
algorithms, not representations.

Subset selection uses the minimal-intersection rule recommended in [32],
with ties broken towards the lowest subset index (the historical
implementation iterated a Python set, which left the tie order unspecified;
pinning it makes runs reproducible and lets the cross-check tests assert
exact output order against the pre-refactor ``LegacyMMCS`` kept under
``tests/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.bitset import (
    CriticalityPlanes,
    bits_to_indices,
    full_bits,
    n_words_for_bits,
    pack_bool_rows,
    popcount,
    set_bit,
    unpack_bits,
    word_bits_list,
)
from repro.core.evidence import masks_to_words


@dataclass
class MMCSStatistics:
    """Counters describing one enumeration run (used by benchmarks)."""

    recursive_calls: int = 0
    outputs: int = 0
    pruned_by_criticality: int = 0
    extra: dict[str, int] = field(default_factory=dict)


class _MMCSFrame:
    """One node of the explicit MMCS search stack."""

    __slots__ = (
        "uncov_bits", "cand_words", "to_try", "cand_loop",
        "position", "removed", "returning",
    )

    def __init__(self, uncov_bits: np.ndarray, cand_words: np.ndarray) -> None:
        self.uncov_bits = uncov_bits
        self.cand_words = cand_words
        self.to_try: list[int] | None = None
        self.cand_loop: np.ndarray | None = None
        self.position = 0
        self.removed: np.ndarray | None = None
        self.returning = False


class MMCS:
    """Minimal hitting set enumerator of Murakami and Uno.

    Parameters
    ----------
    subsets:
        The family ``M`` of subsets to hit, as bitmasks.
    n_elements:
        Size of the ground set ``K``.
    """

    def __init__(self, subsets: Sequence[int], n_elements: int) -> None:
        self.subsets = list(subsets)
        self.n_elements = int(n_elements)
        self.statistics = MMCSStatistics()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def enumerate(self) -> list[int]:
        """Return all minimal hitting sets as bitmasks."""
        return list(self.iter_minimal_hitting_sets())

    def iter_minimal_hitting_sets(self) -> Iterator[int]:
        """Yield every minimal hitting set exactly once.

        All search state (packed planes, criticality bookkeeping) lives in
        per-call locals, so several iterators over the same :class:`MMCS`
        instance may be interleaved safely; only :attr:`statistics` is
        shared, describing the most recently started run.
        """
        self.statistics = MMCSStatistics()
        if any(subset == 0 for subset in self.subsets):
            # An empty subset can never be hit; there are no hitting sets.
            return
        # subset_words[s] is subset s packed over element bits;
        # element_covers[e] is the transposed membership packed over subset
        # bits (which subsets does element e hit) — the plane UpdateCritUncov
        # intersects against.
        n_element_words = n_words_for_bits(self.n_elements)
        subset_words = masks_to_words(self.subsets, n_element_words)
        membership = unpack_bits(subset_words, self.n_elements)
        element_covers = pack_bool_rows(membership.T)
        crit = CriticalityPlanes(len(self.subsets), self.n_elements + 1)
        uncov_bits = full_bits(len(self.subsets))
        cand_words = full_bits(self.n_elements)
        yield from self._search(
            [], uncov_bits, cand_words, subset_words, element_covers, crit
        )

    # ------------------------------------------------------------------
    # Search (explicit stack)
    # ------------------------------------------------------------------
    def _search(
        self,
        elements: list[int],
        uncov_bits: np.ndarray,
        cand_words: np.ndarray,
        subset_words: np.ndarray,
        element_covers: np.ndarray,
        crit: CriticalityPlanes,
    ) -> Iterator[int]:
        """Depth-first search over (element, skip) decisions.

        The tree is walked with an explicit frame stack rather than Python
        recursion, so the search depth is bounded by memory, not by the
        interpreter recursion limit (hitting-set chains routinely exceed the
        default limit on long thin inputs).  The visit order, statistics and
        criticality bookkeeping are exactly those of the recursive original:
        a frame's hit loop applies the criticality planes before descending
        and undoes them when the subtree returns.
        """
        statistics = self.statistics
        frames: list[_MMCSFrame] = [_MMCSFrame(uncov_bits, cand_words)]
        while frames:
            frame = frames[-1]
            if frame.to_try is None:
                # First visit: the recursive function's prologue.
                statistics.recursive_calls += 1
                if not frame.uncov_bits.any():
                    statistics.outputs += 1
                    mask = 0
                    for element in elements:
                        mask |= 1 << element
                    yield mask
                    frames.pop()
                    continue
                chosen = self._choose_subset(
                    frame.uncov_bits, frame.cand_words, subset_words
                )
                chosen_words = subset_words[chosen]
                frame.to_try = word_bits_list(chosen_words & frame.cand_words)
                frame.cand_loop = frame.cand_words & ~chosen_words
            elif frame.returning:
                # A descended child just finished: the loop's epilogue.
                frame.returning = False
                elements.pop()
                set_bit(frame.cand_loop, frame.to_try[frame.position])
                crit.undo(frame.removed)
                frame.position += 1
            while frame.position < len(frame.to_try):
                element = frame.to_try[frame.position]
                covers = element_covers[element]
                viable, removed = crit.apply(frame.uncov_bits & covers, covers)
                if viable:
                    frame.removed = removed
                    frame.returning = True
                    elements.append(element)
                    frames.append(
                        _MMCSFrame(frame.uncov_bits & ~covers, frame.cand_loop)
                    )
                    break
                statistics.pruned_by_criticality += 1
                crit.undo(removed)
                frame.position += 1
            else:
                frames.pop()

    def _choose_subset(
        self,
        uncov_bits: np.ndarray,
        cand_words: np.ndarray,
        subset_words: np.ndarray,
    ) -> int:
        """Pick the uncovered subset with the fewest candidate elements.

        This is the selection rule recommended in [32]; ADCEnum flips it to
        the maximum-intersection rule (Section 6.2, Figure 10).  Ties go to
        the lowest subset index.
        """
        uncovered = bits_to_indices(uncov_bits, len(self.subsets))
        intersections = popcount(subset_words[uncovered] & cand_words).sum(
            axis=1, dtype=np.int64
        )
        return int(uncovered[int(np.argmin(intersections))])


def minimal_hitting_sets(subsets: Iterable[int], n_elements: int) -> list[int]:
    """Convenience wrapper returning all minimal hitting sets as bitmasks."""
    return MMCS(list(subsets), n_elements).enumerate()


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
