"""Serving DC violations over a live evidence store.

:class:`ViolationService` is the query-side counterpart of
:class:`~repro.incremental.store.EvidenceStore`: given a set of mined
denial constraints it answers, against the store's *current* state,

* ``violations(dc)`` — violating-pair count and rate, straight off the
  finalized word planes (one vectorised uncovered-count query);
* ``violating_pairs(dc)`` — the actual ``(t, t')`` pairs, reconstructed by
  *tile replay*: the deduplicated evidence set no longer knows which pairs
  carried an evidence, so the service re-runs the evidence kernel tile by
  tile and filters pairs whose words miss the DC's hitting set (bounded
  memory, streamed in schedule order);
* ``check_batch(rows)`` — admission control for incoming tuples: which rows
  of a batch would push some DC's violation rate past ``epsilon``, each row
  judged independently against the store via one fold of the delta cross
  blocks, whose participation histogram attributes each violating pair to
  its new row;
* ``tuple_scores(dc)`` / ``repair_ranking(dc)`` — the per-tuple violation
  vector ``v(t)`` of the paper's Figure 2 from the stored participation
  histograms, wired into :mod:`repro.core.repair`'s ranking.

In the violation-detection framing of FastDC/Hydra (see PAPERS.md), this is
the "serve" half of a discover-then-monitor deployment: mine once with
:meth:`~repro.incremental.store.EvidenceStore.remine`, then watch batches
arrive and counts drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.adc_enum import DiscoveredADC
from repro.core.dc import DenialConstraint
from repro.core.bitset import n_words_for_bits
from repro.core.evidence import mask_to_words
from repro.core.repair import rank_tuples_by_violations
from repro.engine.partial import TUPLE_ID_BITS
from repro.engine.scheduler import Shard
from repro.incremental.delta import delta_tiles

if TYPE_CHECKING:
    from repro.data.relation import Relation
    from repro.incremental.store import EvidenceStore

_TUPLE_ID_MASK = (1 << TUPLE_ID_BITS) - 1


@dataclass(frozen=True)
class ViolationReport:
    """Violation load of one DC on the store's current relation."""

    constraint: DenialConstraint
    count: int
    total_pairs: int

    @property
    def rate(self) -> float:
        """Violating pairs over all ordered distinct pairs (``1 - f1``)."""
        return self.count / self.total_pairs if self.total_pairs else 0.0

    def exceeds(self, epsilon: float) -> bool:
        """Whether the violation rate is past the threshold."""
        return self.rate > epsilon


@dataclass(frozen=True)
class RowAdmission:
    """Admission verdict for one row of a checked batch."""

    row_index: int
    rates: tuple[float, ...]
    epsilon: float

    @property
    def admissible(self) -> bool:
        """Whether the row keeps every DC's violation rate within epsilon."""
        return all(rate <= self.epsilon for rate in self.rates)

    @property
    def worst_rate(self) -> float:
        """The highest post-append violation rate across the served DCs."""
        return max(self.rates) if self.rates else 0.0


class ViolationService:
    """Answer DC violation queries against a live evidence store.

    Parameters
    ----------
    store:
        The evidence store to serve from.  Queries always run against its
        *current* state: appends between calls are picked up automatically
        (the store's finalized-evidence cache makes repeat queries cheap).
    constraints:
        The DCs to serve — :class:`~repro.core.dc.DenialConstraint` objects
        or the :class:`~repro.core.adc_enum.DiscoveredADC` wrappers a miner
        returns (whose precomputed hitting-set mask is reused).
    epsilon:
        Violation-rate threshold used by :meth:`check_batch` and
        :meth:`exceeded`.
    base_counts_provider:
        Optional callable returning the per-DC violating-pair counts of the
        store's *current* state (one entry per served constraint, in
        constraint order).  When set, :meth:`check_batch` reads its base
        counts from it instead of finalizing the store's evidence — this is
        how the serving layer substitutes its push-maintained counters
        (:class:`repro.serve.counters.ViolationCounters`) for the
        finalize-on-read path.
    """

    def __init__(
        self,
        store: "EvidenceStore",
        constraints: Sequence[DenialConstraint | DiscoveredADC],
        epsilon: float = 0.01,
        base_counts_provider: "Callable[[], Sequence[int]] | None" = None,
    ) -> None:
        self._store = store
        self.epsilon = float(epsilon)
        self.base_counts_provider = base_counts_provider
        self.constraints: list[DenialConstraint] = []
        self._hitting_words: list[np.ndarray] = []
        # Per-DC base violation counts, keyed on the store generation that
        # produced them (appends bump the generation, invalidating this).
        self._base_counts_cache: tuple[int, np.ndarray] | None = None
        n_words = n_words_for_bits(len(store.space))
        for entry in constraints:
            if isinstance(entry, DiscoveredADC):
                constraint = entry.constraint
                mask = entry.hitting_set_mask
            else:
                constraint = entry
                mask = store.space.complement_mask(store.space.mask_of(entry.predicates))
            self.constraints.append(constraint)
            self._hitting_words.append(mask_to_words(mask, n_words))

    def __len__(self) -> int:
        return len(self.constraints)

    @property
    def hitting_words(self) -> list[np.ndarray]:
        """Per-DC hitting-set word vectors, in constraint order.

        The packed complement-predicate masks every violation query
        intersects evidence words against; shared with the serving layer's
        push-based counters so both count against identical bit patterns.
        """
        return list(self._hitting_words)

    # ------------------------------------------------------------------
    # Constraint resolution
    # ------------------------------------------------------------------
    def index_of(self, dc: DenialConstraint | DiscoveredADC | int) -> int:
        """Position of a served DC, given by index, ADC, or constraint."""
        if isinstance(dc, (int, np.integer)):
            index = int(dc)
            if not 0 <= index < len(self.constraints):
                raise IndexError(f"constraint index {index} out of range")
            return index
        constraint = dc.constraint if isinstance(dc, DiscoveredADC) else dc
        for index, served in enumerate(self.constraints):
            if served.predicates == constraint.predicates:
                return index
        raise KeyError(f"constraint not served by this service: {constraint}")

    def _resolve(self, dc: DenialConstraint | DiscoveredADC | int) -> tuple[int, np.ndarray]:
        """Index + hitting words of a served DC (by position or identity)."""
        index = self.index_of(dc)
        return index, self._hitting_words[index]

    # ------------------------------------------------------------------
    # Counting and replay
    # ------------------------------------------------------------------
    def violations(self, dc: DenialConstraint | DiscoveredADC | int) -> ViolationReport:
        """Violating-pair count and rate of one served DC, right now."""
        index, hitting = self._resolve(dc)
        evidence = self._store.evidence()
        return ViolationReport(
            constraint=self.constraints[index],
            count=evidence.uncovered_pair_count(hitting),
            total_pairs=evidence.total_pairs,
        )

    def report(self) -> list[ViolationReport]:
        """Violation reports for every served DC."""
        return [self.violations(index) for index in range(len(self.constraints))]

    def exceeded(self) -> list[ViolationReport]:
        """The served DCs whose violation rate currently exceeds epsilon."""
        return [entry for entry in self.report() if entry.exceeds(self.epsilon)]

    def violating_pairs(
        self, dc: DenialConstraint | DiscoveredADC | int
    ) -> Iterator[tuple[int, int]]:
        """Stream the ordered pairs violating one served DC (tile replay).

        The evidence store deduplicates pairs into (word, multiplicity)
        entries, so pair identities are reconstructed by re-running the
        evidence kernel over the tile schedule and keeping pairs whose
        words have an empty intersection with the DC's hitting set.  Memory
        stays bounded by one tile; pairs stream in schedule order.
        """
        _, hitting = self._resolve(dc)
        kernel = self._store.replay_kernel()
        for tile in self._store.builder.full_tiles(self._store.n_rows):
            words, left_ids, right_ids = kernel.tile_words(tile)
            if not len(words):
                continue
            violating = ~np.bitwise_and(words, hitting).any(axis=1)
            for left, right in zip(left_ids[violating], right_ids[violating]):
                yield int(left), int(right)

    # ------------------------------------------------------------------
    # Per-tuple scores and repair
    # ------------------------------------------------------------------
    def tuple_scores(self, dc: DenialConstraint | DiscoveredADC | int) -> np.ndarray:
        """Per-tuple violating-pair counts for one served DC.

        This is the ``v(t)`` vector of the paper's ``SortTuples`` (Figure
        2), read from the stored participation histograms — no pair replay
        needed.  Requires the store to maintain participation.
        """
        _, hitting = self._resolve(dc)
        evidence = self._store.evidence()
        uncovered = evidence.uncovered_indices(hitting)
        return evidence.violation_counts_per_tuple(uncovered)

    def repair_ranking(self, dc: DenialConstraint | DiscoveredADC | int) -> list[int]:
        """Tuples to repair first, worst violation score first.

        Feeds :meth:`tuple_scores` into
        :func:`repro.core.repair.rank_tuples_by_violations` — the greedy
        cardinality-repair ordering of the conflict-graph machinery.
        """
        return rank_tuples_by_violations(self.tuple_scores(dc))

    # ------------------------------------------------------------------
    # Batch admission
    # ------------------------------------------------------------------
    def _base_violation_counts(self) -> np.ndarray:
        """Per-DC violating-pair counts of the store, cached per generation.

        The counts only change when the store absorbs an append, so an
        admission loop calling :meth:`check_batch` row by row pays the
        full-evidence uncovered scan once per store generation, not once
        per call.  With a ``base_counts_provider`` installed the scan is
        skipped entirely — the provider's push-maintained counts are
        authoritative and already current.
        """
        if self.base_counts_provider is not None:
            counts = np.asarray(self.base_counts_provider(), dtype=np.int64)
            if len(counts) != len(self.constraints):
                raise ValueError(
                    f"base_counts_provider returned {len(counts)} counts "
                    f"for {len(self.constraints)} served constraints"
                )
            return counts
        generation = self._store.generation
        if self._base_counts_cache is None or self._base_counts_cache[0] != generation:
            counts = np.array(
                [
                    self.violations(index).count
                    for index in range(len(self.constraints))
                ],
                dtype=np.int64,
            )
            self._base_counts_cache = (generation, counts)
        return self._base_counts_cache[1]

    def check_batch(
        self, rows: "Relation | Iterable[Mapping[str, object]]"
    ) -> list[RowAdmission]:
        """Judge which incoming rows would push a DC past epsilon.

        Every row is evaluated *independently* against the store's current
        relation: its hypothetical post-append rate for DC ``phi`` is

        ``(count(phi) + delta_r(phi)) / ((n + 1) * n)``

        where ``delta_r`` counts the violating pairs between the row and
        the ``n`` stored tuples (both orientations).  Cross pairs between
        two rows of the same batch are deliberately excluded — admission is
        per row, not per batch, so verdicts do not depend on batch order.
        Implemented as a delta-block replay on a probe relation; the store
        itself is never modified.
        """
        probe, n_before = self._store.probe_relation(rows)
        n_new = probe.n_rows - n_before
        if n_new == 0:
            return []
        n_constraints = len(self.constraints)
        delta_counts = np.zeros((n_constraints, n_new), dtype=np.int64)

        kernel = self._store.replay_kernel(probe)
        edge = self._store.builder.tile_edge(probe.n_rows)
        # Cross rectangles only (no new-vs-new square): each row is judged
        # independently of its batch-mates.  Exactly one endpoint of every
        # cross pair is a new row, so the fold's participation of the new
        # rows counts each cross pair once, under its new row.
        tiles = delta_tiles(n_before, probe.n_rows, edge, include_new_vs_new=False)
        folded = kernel.run(Shard(tiles))
        if folded is not None:
            tuples = folded.part_keys & _TUPLE_ID_MASK
            new = tuples >= n_before
            evidence_ids = folded.part_keys[new] >> TUPLE_ID_BITS
            new_ids = tuples[new] - n_before
            pair_counts = folded.part_counts[new]
            for index, hitting in enumerate(self._hitting_words):
                violating = ~np.bitwise_and(folded.words, hitting).any(axis=1)
                keep = violating[evidence_ids]
                np.add.at(delta_counts[index], new_ids[keep], pair_counts[keep])

        base_counts = self._base_violation_counts()
        hypothetical_pairs = (n_before + 1) * n_before
        admissions: list[RowAdmission] = []
        for row in range(n_new):
            if hypothetical_pairs:
                rates = tuple(
                    float(base_counts[index] + delta_counts[index, row])
                    / hypothetical_pairs
                    for index in range(n_constraints)
                )
            else:
                rates = tuple(0.0 for _ in range(n_constraints))
            admissions.append(RowAdmission(row, rates, self.epsilon))
        return admissions
