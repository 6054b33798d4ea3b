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
touched inside the hot loop, and no recursion happens at all.  The whole
search runs in the kernel backend (:mod:`repro.native.dispatch`): a C
frame stack over a per-depth arena of preallocated buffers (the
transposed evidence plane, candidate planes, overlap counters,
criticality bookkeeping), resumed only to hand over outputs and to call
the progress hook.  Depth is bounded only by the number of predicates,
not by an interpreter's recursion limit.

**The pass test.**  The paper's ADCEnum takes the semantics of an
approximate DC as input, and so does the driver.  When the function is
pair-determined with an integer pass bound
(:meth:`~repro.core.approximation.ApproximationFunction.pair_bound`: f1
always, and f1' below ``epsilon = 0.5``) the driver compares the
maintained uncovered pair count with that bound, so none of its decisions
depends on how a compiler evaluates a floating-point score.  Every other
function (f2, f3, f1' from ``epsilon = 0.5`` on, any user-defined one) is
asked through a callback, :meth:`ADCEnum._passes`, with the candidate's
uncovered evidence ids and pair count.  The node-for-node oracle of the
driver is the numpy workspace's search in ``tests/numpy_backend.py``,
which decides every test through the callback, so the tests that hold
the two to the same output also check the bound against the score it
stands for.  ``benchmarks/bench_enum_core.py`` tracks the node rate
against the pre-refactor core kept as a test oracle under ``tests/``, and
``benchmarks/bench_kernels.py`` the compiled search against the numpy
oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal, Sequence

import numpy as np

from repro.core.approximation import ApproximationFunction, F1
from repro.core.bitset import full_bits, pack_bool_rows
from repro.core.dc import DenialConstraint
from repro.core.evidence import EvidenceSet, masks_to_words
from repro.core.predicate_space import iter_bits
from repro.native import dispatch as native_dispatch

SelectionStrategy = Literal["max", "min", "random"]

#: The search drivers' codes of the selection strategies.
_SELECTION_CODES = {"max": 0, "min": 1, "random": 2}


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
        # violating-pair fraction (f1 and the adjusted f1') needs no
        # uncovered evidence ids: only the uncovered pair count can decide
        # its tests, which also licenses the driver's dead-evidence
        # compaction.  Every other function (f2, f3, or one with only a
        # *partial* pair shortcut) gets the ids threaded through the search.
        self._pair_determined = self._total_pairs == 0 or self.function.pair_determined
        # The pass test as an integer bound for the driver: x uncovered
        # pairs pass exactly when x <= K (None: the driver calls _passes).
        self._pair_bound = (
            self.function.pair_bound(self._total_pairs, self.epsilon)
            if self._total_pairs
            else 0
        )
        # The search workspace is built lazily on the first run and reused
        # by later runs of the same instance (slot buffers stay warm); it is
        # rebuilt if the dispatched backend changes between runs (tests).
        self._workspace = None
        self._workspace_backend = None

    def _get_workspace(self):
        backend = native_dispatch.get_backend()
        if self._workspace is None or self._workspace_backend is not backend:
            self._workspace = backend.workspace_factory(
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

        The workspace runs the whole search and hands back its outputs in
        batches; the emission, the deduplication and the progress hook run
        here.  An exception raised by the approximation function stops the
        search and propagates.
        """
        self.statistics = EnumerationStatistics()
        started = time.perf_counter()
        self._seen_outputs: set[int] = set()
        self._results: list[DiscoveredADC] = []
        statistics = self.statistics
        progress = self.progress
        for outputs, counters, max_depth, paused in self._get_workspace().search(
            self._pair_bound,
            self._passes,
            _SELECTION_CODES[self.selection],
            self.max_dc_size,
            min(self.progress_interval, 2**62) if progress is not None else 0,
        ):
            for elements, uncovered_pairs in outputs:
                self._emit(elements, uncovered_pairs)
            (
                statistics.recursive_calls,
                statistics.hit_branches,
                statistics.skip_branches,
                statistics.pruned_by_willcover,
                statistics.pruned_by_criticality,
                statistics.minimality_checks,
            ) = counters
            statistics.extra["max_stack_depth"] = float(max_depth)
            if paused:
                statistics.elapsed_seconds = time.perf_counter() - started
                progress(statistics)
        statistics.elapsed_seconds = time.perf_counter() - started
        yield from self._results

    def _passes(self, uncovered: np.ndarray, uncovered_pairs: int) -> bool:
        """The pass test ``1 - f <= epsilon`` of a candidate DC.

        The driver's callback when the function has no integer pass bound.
        ``uncovered`` holds the ids of the candidate's uncovered evidences
        (empty for pair-determined functions, which are answered from
        ``uncovered_pairs``).  For the tuple-based functions the
        Proposition 5.3 pre-filter skips the expensive score when the
        pair-based bound already exceeds ``pair_bound_factor * epsilon``.
        """
        total = self._total_pairs
        if not total:
            return True
        pair_fraction = uncovered_pairs / total
        shortcut = self.function.violation_score_from_pair_fraction(pair_fraction, total)
        if shortcut is not None:
            return shortcut <= self.epsilon
        factor = self.function.pair_bound_factor
        if factor is not None and pair_fraction > factor * self.epsilon:
            return False
        return self.function.violation_score(self.evidence, uncovered) <= self.epsilon

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------
    def _emit(self, s_elements: Sequence[int], uncovered_pairs: int) -> None:
        """Build the DC from the hitting set and record it.

        The DC is nontrivial by construction: the hitting set never holds
        two predicates of one group, so no group's operators contradict
        each other.

        A pair-determined function is scored from the uncovered pair count
        the search maintained (which counts every uncovered evidence,
        compacted dead ones included); any other function scores the
        uncovered evidences of the hitting set.
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
        self._seen_outputs.add(s_mask)
        if not self._pair_determined:
            uncovered = np.asarray(self.evidence.uncovered_indices(s_mask), dtype=np.int64)
            score = self.function.violation_score(self.evidence, uncovered)
        elif self._total_pairs:
            total = self._total_pairs
            score = self.function.violation_score_from_pair_fraction(
                uncovered_pairs / total, total
            )
        else:
            score = 0.0
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
