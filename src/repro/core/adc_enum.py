"""ADCEnum — enumeration of minimal approximate denial constraints.

This module implements the paper's main algorithmic contribution (Section 6,
Figures 4 and 5): a general algorithm for enumerating *minimal approximate
hitting sets* of the evidence set w.r.t. an arbitrary valid approximation
function, extended from the MMCS enumerator of Murakami and Uno with

* an approximate base case (``1 - f(D, S) <= epsilon``) plus an explicit
  minimality check (``IsMinimal``),
* a second recursive branch per chosen evidence that *does not* hit it,
  guarded by the ``canHit`` bookkeeping and the ``WillCover`` monotonicity
  prune,
* removal of same-group (operator-only variants) predicates from the
  candidate list once a predicate has been added, avoiding trivial and
  redundancy-non-minimal DCs,
* evidence selection by *maximal* intersection with the candidate list (the
  ablation of Figure 10 can switch back to the minimal-intersection rule of
  MMCS or a pseudo-random rule).

The enumerated hitting set ``S`` is a set of predicates; the reported DC is
``S_phi = complement(S)``.

The search is **word-native and stack-explicit**: no Python-int bitmask is
touched inside the hot loop, and no Python recursion happens at all.  All
per-node state — the transposed evidence plane, candidate planes, overlap
counters, criticality bookkeeping — lives in a per-depth arena
(:class:`repro.native.NumpySearchWorkspace` and its compiled twin) owned by
the dispatched kernel backend (:mod:`repro.native.dispatch`), so a search
node is a handful of fused kernel calls writing into preallocated buffers
instead of dozens of small numpy dispatches allocating fresh arrays.  The
driver (:meth:`ADCEnum._run_search`) walks an explicit frame stack, which
removes the old ``sys.setrecursionlimit`` mutation and the recursion-depth
ceiling on deep skip chains: depth is bounded only by the number of
predicates.  Chosen evidences are read directly from the packed
``evidence.words`` plane; the lazy Python-int ``masks`` view is never
consulted.  This is the Python-level reproduction of DCFinder's bit-level
engineering, without which the enumeration would be orders of magnitude
slower (``benchmarks/bench_enum_core.py`` tracks the node rate against the
pre-refactor core kept as a test oracle under ``tests/``, and
``benchmarks/bench_kernels.py`` the compiled-vs-numpy backend ratio).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal, Sequence

import numpy as np

from repro.core.approximation import ApproximationFunction, F1
from repro.core.bitset import (
    full_bits,
    pack_bool_rows,
    unpack_bits,
)
from repro.core.dc import DenialConstraint
from repro.core.evidence import EvidenceSet, masks_to_words
from repro.core.predicate_space import iter_bits
from repro.native import dispatch as native_dispatch
from repro.native.numpy_backend import DESCENDED, selection_code

SelectionStrategy = Literal["max", "min", "random"]


class _Frame:
    """One explicit-stack search frame (pooled per depth, reused in place).

    Frames carry only scalars; the array state of the node lives in the
    workspace slot of the same depth.  ``phase`` sequences the node through
    enter/base-case (0), hit-loop setup (1) and the hit loop itself (2);
    ``returning`` marks that the frame is being resumed after its hit
    child returned, so the loop runs the post-child bookkeeping
    (criticality pop, hitting-set pop) before advancing.
    """

    __slots__ = (
        "n", "uncovered_pairs", "dead_pairs", "phase", "n_to_try",
        "k", "position", "elements", "returning",
    )


@dataclass
class EnumerationStatistics:
    """Counters describing one ADCEnum run (reported by the benchmarks)."""

    recursive_calls: int = 0
    hit_branches: int = 0
    skip_branches: int = 0
    pruned_by_willcover: int = 0
    pruned_by_criticality: int = 0
    minimality_checks: int = 0
    outputs: int = 0
    elapsed_seconds: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def nodes_per_second(self) -> float:
        """Search nodes visited per wall-clock second (0 when unmeasured)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.recursive_calls / self.elapsed_seconds


@dataclass(frozen=True)
class DiscoveredADC:
    """One minimal approximate denial constraint found by the enumerator."""

    constraint: DenialConstraint
    hitting_set_mask: int
    violation_score: float

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.constraint}   [1 - f = {self.violation_score:.6f}]"


class ADCEnum:
    """Enumerator of minimal approximate denial constraints.

    Parameters
    ----------
    evidence:
        Evidence set of the database (or sample).
    function:
        A valid approximation function (monotone + indifferent to
        redundancy).
    epsilon:
        Approximation threshold; a DC passes when ``1 - f(D, S_phi) <= epsilon``.
    selection:
        Evidence-selection rule: ``"max"`` (paper's choice), ``"min"``
        (Murakami & Uno) or ``"random"`` (deterministic pseudo-random,
        seeded by the recursion counter).
    max_dc_size:
        Optional cap on the number of predicates per DC; ``None`` means
        unbounded.  The cap applies to the hitting branch only, so all
        minimal ADCs within the bound are still enumerated.
    """

    def __init__(
        self,
        evidence: EvidenceSet,
        function: ApproximationFunction | None = None,
        epsilon: float = 0.01,
        selection: SelectionStrategy = "max",
        max_dc_size: int | None = None,
        progress: "Callable[[EnumerationStatistics], None] | None" = None,
        progress_interval: int = 8192,
    ) -> None:
        # Written so that NaN fails too: every comparison with NaN is false.
        if not epsilon >= 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon!r}")
        if selection not in ("max", "min", "random"):
            raise ValueError(f"unknown selection strategy {selection!r}")
        self.evidence = evidence
        self.function = function if function is not None else F1()
        self.epsilon = float(epsilon)
        self.selection: SelectionStrategy = selection
        self.max_dc_size = max_dc_size
        if progress_interval < 1:
            raise ValueError("progress_interval must be positive")
        # Live-observability hook: every ``progress_interval`` visited nodes
        # the search calls ``progress(self.statistics)`` with the counters
        # (and a refreshed ``elapsed_seconds`` / ``extra["max_stack_depth"]``)
        # as of that instant.  The hook must not mutate the statistics —
        # the counters are cross-checked against the legacy enumerator.
        self.progress = progress
        self.progress_interval = int(progress_interval)
        self.statistics = EnumerationStatistics()
        if self.function.requires_participation and not evidence.has_participation:
            raise ValueError(
                f"approximation function {self.function.name} needs tuple participation; "
                "build the evidence set with include_participation=True"
            )
        self._prepare_planes()

    # ------------------------------------------------------------------
    # Precomputed bit planes
    # ------------------------------------------------------------------
    def _prepare_planes(self) -> None:
        # The packed (n_evidences, n_words) uint64 array is the evidence
        # set's native representation, consumed as-is.  Everything else the
        # recursion needs is precomputed here as word planes: per-predicate
        # evidence-membership bitsets (for criticality updates), per-predicate
        # group masks (from the PredicateSpace cache) and the full candidate
        # plane the root starts from.
        space = self.evidence.space
        self._n_evidences = len(self.evidence)
        self._n_predicates = len(space)
        self._n_words = self.evidence.n_words
        self._ev_words = self.evidence.words
        # Transposed copy: plane w holds word w of every evidence
        # contiguously.  The per-node popcounts then run as unrolled 1-D
        # kernels over contiguous planes — an order of magnitude cheaper
        # than broadcast-and-reduce over the (n_evidences, n_words) layout,
        # whose axis-1 reductions of tiny width dominate otherwise.
        self._ev_planes = np.ascontiguousarray(self._ev_words.T)
        self._counts = np.asarray(self.evidence.counts, dtype=np.int64)
        # contains_ev_words[p] is predicate p's evidence-membership vector
        # packed over evidence bits; the boolean matrix it is packed from is
        # deliberately not retained (it is 64x the size of the plane).
        self._contains_ev_words = pack_bool_rows(self.evidence.predicate_membership())
        self._group_words = masks_to_words(space.group_masks, self._n_words)
        # Complemented group planes: the hit branch prunes a chosen
        # predicate's whole group with a single AND against this plane.
        self._group_words_inv = ~self._group_words
        self._full_cand_words = full_bits(self._n_predicates)
        self._total_pairs = self.evidence.total_pairs
        # A function that declares its score fully determined by the
        # violating-pair fraction (f1 and the adjusted f1') lets every
        # threshold test in the search collapse to scalar arithmetic on the
        # maintained counter.  It also licenses the dead-evidence
        # compaction: evidences whose candidate overlap reaches zero are
        # dropped from the threaded vectors (their pairs accumulate in the
        # dead_pairs scalar), because only their pair total — never their
        # identity — can still influence a threshold test; the uncovered
        # index list is rebuilt from uncov_bits at emission time.  Functions
        # that inspect the uncovered multiset (f2/f3) — or that only have a
        # *partial* pair shortcut — keep the full vectors and the explicit
        # index array.
        self._pair_determined = self._total_pairs == 0 or self.function.pair_determined
        # The search arena is built lazily on the first run and reused by
        # later runs of the same instance (slot buffers stay warm); it is
        # rebuilt if the dispatched backend changes between runs (tests).
        self._workspace = None
        self._workspace_backend = None

    def _get_workspace(self):
        backend = native_dispatch.get_backend()
        if self._workspace is None or self._workspace_backend is not backend:
            self._workspace = backend.make_search_workspace(
                ev_planes=self._ev_planes,
                counts=self._counts,
                contains_ev_words=self._contains_ev_words,
                group_words_inv=self._group_words_inv,
                full_cand_words=self._full_cand_words,
                n_evidences=self._n_evidences,
                n_predicates=self._n_predicates,
                track_uncov=not self._pair_determined,
            )
            self._workspace_backend = backend
        return self._workspace

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def enumerate(self) -> list[DiscoveredADC]:
        """Run the enumeration and return all minimal nontrivial ADCs."""
        return list(self.iter_adcs())

    def iter_adcs(self) -> Iterator[DiscoveredADC]:
        """Yield all minimal nontrivial ADCs (computed eagerly, then yielded).

        The search runs as an explicit frame stack over the native arena
        rather than a generator chain — outputs are rare relative to search
        nodes, and dragging every node through the iterator protocol (or
        the interpreter's call machinery) measurably slows the hot loop.
        """
        self.statistics = EnumerationStatistics()
        started = time.perf_counter()
        self._search_started = started
        self._seen_outputs: set[int] = set()
        self._results: list[DiscoveredADC] = []
        workspace = self._get_workspace()
        self._run_search(workspace)
        self.statistics.elapsed_seconds = time.perf_counter() - started
        yield from self._results

    # ------------------------------------------------------------------
    # Scoring helpers
    # ------------------------------------------------------------------
    def _violation_score(self, uncov_indices: Sequence[int], uncovered_pairs: int) -> float:
        """``1 - f`` for the given uncovered evidences.

        Pair-based functions are answered from the maintained pair counter;
        for the tuple-based ones the Proposition 5.3 pre-filter avoids the
        expensive computation when the pair-based bound already exceeds
        ``pair_bound_factor * epsilon``.
        """
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
        """Threshold test that only materialises index lists when necessary."""
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
        uncov: np.ndarray | None,
        uncovered_pairs: int,
    ) -> bool:
        """The IsMinimal subroutine of Figure 5.

        Removing element ``e`` from ``S`` un-covers exactly the evidences for
        which ``e`` is critical, so the score of ``S \\ {e}`` is evaluated on
        the current uncovered set extended with the criticality plane of
        ``e``.
        """
        self.statistics.minimality_checks += 1
        if not s_elements:
            return True
        total = self.evidence.total_pairs
        # One batched unpack answers every member's "how many pairs would
        # dropping it un-cover" question; the per-member index lists are only
        # materialised for functions the pair fraction cannot decide.
        crit_bools = unpack_bits(self._workspace.crit_active_rows(), self._n_evidences)
        extra_pairs_vector = crit_bools @ self._counts
        uncov_indices: list[int] | None = None
        for depth in range(len(s_elements)):
            extra_pairs = int(extra_pairs_vector[depth])
            pair_fraction_known = self.function.violation_score_from_pair_fraction(
                (uncovered_pairs + extra_pairs) / max(total, 1), total
            )
            if pair_fraction_known is not None:
                if pair_fraction_known <= self.epsilon:
                    return False
                continue
            critical = np.flatnonzero(crit_bools[depth])
            if uncov_indices is None:
                uncov_indices = uncov.tolist()
            if self._passes(uncov_indices + critical.tolist(), uncovered_pairs + extra_pairs):
                return False
        return True

    # ------------------------------------------------------------------
    # Explicit-stack search
    # ------------------------------------------------------------------
    def _run_search(self, workspace) -> None:
        """Drive the Figure 4/5 search as an explicit frame stack.

        The traversal order, branch bookkeeping and statistics increments
        reproduce the former recursive implementation exactly (the
        cross-checks against the test suite's pre-refactor ``LegacyADCEnum``
        compare counter-for-counter); only the mechanism changed — frames
        are pooled per depth, the array state lives in the workspace arena,
        and each node is a handful of fused kernel calls.  Depth is bounded
        by the predicate count (every level consumes at least one
        candidate), not by the interpreter's recursion limit.

        Frame phases: 0 = enter (base case + expansion + skip branch),
        1 = hit-loop setup (WillCover prune resolved, skip subtree done),
        2 = hit loop (one ``try_hit`` per candidate element, entering a
        child frame per hit and resuming through ``returning``).
        """
        statistics = self.statistics
        total = self._total_pairs
        pair_determined = self._pair_determined
        pair_score = self.function.violation_score_from_pair_fraction
        epsilon = self.epsilon
        selection = selection_code(self.selection)
        max_dc_size = self.max_dc_size
        # Progress hook bookkeeping, hoisted so the disabled case costs one
        # int compare per node (next_progress stays at +inf).
        progress = self.progress
        progress_interval = self.progress_interval
        next_progress: float = progress_interval if progress is not None else math.inf
        search_started = getattr(self, "_search_started", None)

        n_root = workspace.init_root()
        s_elements: list[int] = []
        frames = [_Frame()]
        root = frames[0]
        root.n = n_root
        root.uncovered_pairs = int(self._counts.sum()) if n_root else 0
        root.dead_pairs = 0
        root.phase = 0
        root.returning = False
        depth = 0
        max_depth = 0

        while depth >= 0:
            frame = frames[depth]
            phase = frame.phase

            if phase == 2:
                # Hit loop (Figure 4 lines 13-22).  Resuming after a hit
                # child returned runs the post-child bookkeeping first.
                if frame.returning:
                    frame.returning = False
                    workspace.crit_pop()
                    s_elements.pop()
                    frame.position += 1
                entered = False
                while frame.position < frame.k:
                    element = frame.elements[frame.position]
                    status, _, child_n, child_pairs = workspace.try_hit(
                        depth, frame.n, frame.position
                    )
                    if status == DESCENDED:
                        statistics.hit_branches += 1
                        s_elements.append(element)
                        frame.returning = True
                        child = self._frame_at(frames, depth + 1)
                        child.n = child_n
                        child.uncovered_pairs = frame.dead_pairs + child_pairs
                        child.dead_pairs = frame.dead_pairs
                        child.phase = 0
                        child.returning = False
                        depth += 1
                        if depth > max_depth:
                            max_depth = depth
                        entered = True
                        break
                    statistics.pruned_by_criticality += 1
                    frame.position += 1
                if not entered:
                    depth -= 1
                continue

            if phase == 0:
                statistics.recursive_calls += 1
                if statistics.recursive_calls >= next_progress:
                    next_progress = statistics.recursive_calls + progress_interval
                    if search_started is not None:
                        # Overwritten with the final value by iter_adcs.
                        statistics.elapsed_seconds = (
                            time.perf_counter() - search_started
                        )
                    statistics.extra["max_stack_depth"] = float(max_depth)
                    progress(statistics)
                n = frame.n
                uncovered_pairs = frame.uncovered_pairs

                # Base case (Figure 4, lines 1-3): report S when it passes
                # the threshold and is minimal.  Whenever the threshold is
                # met, no strict superset can be a *minimal* ADC
                # (monotonicity), so the branch ends.
                if pair_determined:
                    uncov = None
                    passes = (
                        total == 0
                        or pair_score(uncovered_pairs / total, total) <= epsilon
                    )
                else:
                    uncov = workspace.uncov_view(depth, n)
                    passes = self._passes_lazy(uncov, uncovered_pairs)
                if passes:
                    if self._is_minimal(s_elements, uncov, uncovered_pairs):
                        self._emit(
                            s_elements, uncov, workspace.uncov_bits_view(depth)
                        )
                    depth -= 1
                    continue

                # Line 4: choose an uncovered evidence that may still be
                # hit.  We additionally require a non-empty intersection
                # with the candidate list: an evidence without candidate
                # predicates can never be hit in this subtree, and because
                # every approximation function here is determined by the
                # uncovered-evidence multiset, skipping it loses no minimal
                # ADC (it simply stays uncovered).  The expansion kernel
                # answers the selection rule, the skip-branch candidate
                # planes, the reduced overlap counts and the WillCover pair
                # total in one fused pass.
                chosen, n_selectable, lost_pairs, n_to_try = workspace.expand(
                    depth, n, selection, statistics.recursive_calls
                )
                if n_selectable == 0:
                    depth -= 1
                    continue
                frame.n_to_try = n_to_try
                frame.phase = 1

                # Skip branch (lines 7-12): do NOT hit the chosen evidence,
                # guarded by the WillCover monotonicity prune.
                will_cover_pairs = frame.dead_pairs + lost_pairs
                if pair_determined:
                    will_cover_passes = (
                        pair_score(will_cover_pairs / total, total) <= epsilon
                    )
                else:
                    lost_positions = (
                        workspace.red_view(depth, n) == 0
                    ).nonzero()[0]
                    will_cover_passes = self._passes_lazy(
                        uncov.take(lost_positions), will_cover_pairs
                    )
                if will_cover_passes:
                    statistics.skip_branches += 1
                    # Dead-evidence compaction (pair-determined only): an
                    # evidence with no candidate overlap can never be
                    # covered or selected anywhere in this subtree, so only
                    # its pair total still matters; dropping it shrinks the
                    # vectors of the whole subtree and its pairs move into
                    # the dead_pairs scalar.
                    child_n = workspace.skip_child(depth, n, pair_determined)
                    child = self._frame_at(frames, depth + 1)
                    child.n = child_n
                    child.uncovered_pairs = uncovered_pairs
                    child.dead_pairs = (
                        will_cover_pairs if pair_determined else frame.dead_pairs
                    )
                    child.phase = 0
                    child.returning = False
                    depth += 1
                    if depth > max_depth:
                        max_depth = depth
                    continue
                statistics.pruned_by_willcover += 1
                continue

            # phase == 1: the skip subtree (if any) has returned; set up the
            # hit loop over the chosen evidence's candidate predicates.
            if max_dc_size is not None and len(s_elements) >= max_dc_size:
                depth -= 1
                continue
            frame.k = workspace.hit_prepare(depth, frame.n, frame.n_to_try)
            frame.elements = workspace.elements_list(depth, frame.k)
            frame.position = 0
            frame.returning = False
            frame.phase = 2

        statistics.extra["max_stack_depth"] = float(max_depth)

    @staticmethod
    def _frame_at(frames: list[_Frame], depth: int) -> _Frame:
        if len(frames) <= depth:
            frames.append(_Frame())
        return frames[depth]

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------
    def _emit(
        self,
        s_elements: list[int],
        uncov: np.ndarray | None,
        uncov_bits: np.ndarray,
    ) -> None:
        """Build the DC from the hitting set and record it if nontrivial.

        In pair-determined mode the recursion does not thread the uncovered
        index array (see :meth:`iter_adcs`); it is rebuilt here — emission is
        rare — from the packed uncovered bitset, which still carries every
        uncovered evidence including the compacted dead ones.
        """
        s_mask = 0
        for element in s_elements:
            s_mask |= 1 << element
        if s_mask == 0 or s_mask in self._seen_outputs:
            return
        space = self.evidence.space
        complements = space.complement_indices
        dc_predicates = []
        for index in iter_bits(s_mask):
            complement = int(complements[index])
            if complement < 0:
                space.complement_index(index)  # raises the canonical KeyError
            dc_predicates.append(space[complement])
        constraint = DenialConstraint(dc_predicates)
        if constraint.is_trivial():
            return
        self._seen_outputs.add(s_mask)
        if uncov is None:
            uncov = unpack_bits(uncov_bits, self._n_evidences).nonzero()[0]
        score = self.function.violation_score(self.evidence, uncov)
        self.statistics.outputs += 1
        self._results.append(DiscoveredADC(constraint, s_mask, score))


def enumerate_adcs(
    evidence: EvidenceSet,
    function: ApproximationFunction | None = None,
    epsilon: float = 0.01,
    selection: SelectionStrategy = "max",
    max_dc_size: int | None = None,
) -> list[DiscoveredADC]:
    """Convenience wrapper running :class:`ADCEnum` once."""
    return ADCEnum(evidence, function, epsilon, selection, max_dc_size).enumerate()
