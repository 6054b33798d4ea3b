"""The stateful evidence store behind streaming appends.

:class:`EvidenceStore` is the long-lived object of the incremental
subsystem: it owns a private snapshot of the relation, the unfinalized
:class:`~repro.engine.partial.PartialEvidenceSet` accumulated so far, and
the fixed predicate space everything is evaluated against.  ``append``
grows the snapshot and folds in only the delta tiles
(:class:`~repro.incremental.delta.DeltaEvidenceBuilder`); ``evidence``
finalizes lazily and caches until the next append; ``remine`` feeds the
finalized word planes straight into
:class:`~repro.core.adc_enum.ADCEnum`.

**Invariant** (property-tested over random append schedules): after any
sequence of appends, ``evidence()`` is bit-identical — words, canonical
order, multiplicities, tuple participation — to a full tiled rebuild on the
concatenated relation with the store's predicate space.  The predicate
space is therefore fixed at construction: re-deriving it from grown data
would change the bit layout under the stored words.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.core.approximation import get_approximation_function
from repro.core.evidence import EvidenceSet
from repro.core.miner import run_enumeration
from repro.core.predicate_space import (
    PredicateSpaceConfig,
    build_predicate_space,
)
from repro.engine.kernel import TileKernel
from repro.engine.scheduler import DEFAULT_MEMORY_BUDGET_BYTES, TileScheduler
from repro.incremental.delta import DeltaEvidenceBuilder
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.registry import get_registry as obs_get_registry

if TYPE_CHECKING:
    from repro.core.adc_enum import DiscoveredADC, EnumerationStatistics, SelectionStrategy
    from repro.core.approximation import ApproximationFunction
    from repro.core.predicate_space import PredicateSpace
    from repro.data.relation import Relation
    from repro.engine.partial import PartialEvidenceSet

#: Signature of an append listener: ``(delta_partial, n_before, n_after)``.
#: The delta partial is already keyed on the grown relation (its ``n_rows``
#: equals ``n_after``).
AppendListener = Callable[["PartialEvidenceSet", int, int], None]


class EvidenceStore:
    """Evidence of a growing relation, maintained one appended batch at a time.

    Parameters
    ----------
    relation:
        Initial relation; a private copy is taken, so the caller's object
        never mutates under appends.
    space:
        Predicate space to evaluate; built from the initial relation with
        ``space_config`` when omitted.  Fixed for the store's lifetime.
    space_config:
        Generation knobs used only when ``space`` is omitted.
    include_participation:
        Whether the ``vios`` tuple-participation structure is maintained
        (required by f2/f3 remining and per-tuple violation scores).
    tile_rows:
        Tile edge of the evidence kernels; ``None`` adapts per build.
    cluster:
        Optional :class:`~repro.cluster.coordinator.ClusterCoordinator` or
        :class:`~repro.cluster.local.LocalCluster`: the seed build and
        every appended batch's delta tiles fold over the cluster's workers
        instead of serially in-process.  The bit-identity invariant is
        unchanged — cluster folds merge the same tile partials.
    memory_budget_bytes:
        Transient-memory budget driving the adaptive tile edge.
    """

    def __init__(
        self,
        relation: "Relation",
        space: "PredicateSpace | None" = None,
        space_config: PredicateSpaceConfig | None = None,
        include_participation: bool = True,
        tile_rows: int | None = None,
        cluster: object | None = None,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    ) -> None:
        self._relation = relation.copy()
        self.space = space if space is not None else build_predicate_space(
            self._relation, space_config
        )
        self._builder = DeltaEvidenceBuilder(
            self.space,
            include_participation=include_participation,
            tile_rows=tile_rows,
            cluster=cluster,
            memory_budget_bytes=memory_budget_bytes,
        )
        self._adopt_partial(self._builder.full_partial(self._relation))
        self._evidence: EvidenceSet | None = None
        self._generation = 0
        self._append_listeners: list[AppendListener] = []
        self.last_enumeration_statistics: "EnumerationStatistics | None" = None

    def _adopt_partial(self, partial: "PartialEvidenceSet") -> None:
        """Take ``partial`` as the stored state, its chunks as the baseline."""
        self._partial = partial
        self._compacted_bytes = partial.chunk_bytes
        #: Chunk compactions run since the store was built or recovered.
        self.compactions = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def relation(self) -> "Relation":
        """The store's relation snapshot (treat as read-only)."""
        return self._relation

    @property
    def n_rows(self) -> int:
        """Rows currently in the store."""
        return self._relation.n_rows

    @property
    def generation(self) -> int:
        """Number of appends absorbed since construction."""
        return self._generation

    @property
    def include_participation(self) -> bool:
        """Whether the tuple-participation structure is maintained."""
        return self._builder.include_participation

    @property
    def builder(self) -> DeltaEvidenceBuilder:
        """The delta builder holding the store's construction knobs."""
        return self._builder

    @property
    def recorded_pairs(self) -> int:
        """Ordered pairs covered by the stored partial."""
        return self._partial.recorded_pairs

    @property
    def partial(self) -> "PartialEvidenceSet":
        """The unfinalized partial accumulated so far (treat as read-only).

        Exposed so derived read structures — the serving layer's push-based
        violation counters — can seed themselves from the store's state
        without forcing a finalize.
        """
        return self._partial

    def add_append_listener(self, listener: AppendListener) -> None:
        """Call ``listener(delta, n_before, n_after)`` after every commit.

        Listeners run synchronously inside :meth:`append`, after the grown
        relation and merged partial are swapped in — the delta they receive
        is exactly what was merged, so incrementally-maintained structures
        (push-based violation counters, snapshot caches) can update from
        the delta alone and never drift from the store.  They only fire for
        *committed* appends: a failed append never reaches them.
        """
        self._append_listeners.append(listener)

    def remove_append_listener(self, listener: AppendListener) -> None:
        """Unregister a listener (no-op when it is not registered).

        Replaced read structures — e.g. counters superseded by a new
        constraint set — must detach, or the store keeps updating them
        forever.
        """
        try:
            self._append_listeners.remove(listener)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EvidenceStore(rows={self.n_rows}, "
            f"evidences={len(self._partial)}, generation={self._generation})"
        )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self,
        rows: "Relation | Iterable[Mapping[str, object]]",
        pre_commit: Callable[[int], None] | None = None,
    ) -> int:
        """Absorb a batch of new rows; returns the number of rows appended.

        Only the new-vs-old rectangles and the new-vs-new square of the pair
        matrix are evaluated (``O(n·m + m²)`` pairs for ``m`` appended to
        ``n``), and the delta is merged into the stored partial without
        touching anything it already holds: participation keys have a fixed
        stride, so growth never re-keys them.  The finalized-evidence cache
        is invalidated.

        Merged deltas pile up as chunks.  Once their bytes pass twice the
        bytes left by the last compaction (the seed build's, at first), the
        partial is compacted into one histogram per chunk kind, so resident
        size stays within 2x the compacted state however long the history.
        A compaction only runs after the chunks grew by the compacted size,
        so its cost amortizes to a constant factor per appended byte.

        The append is atomic: the grown relation and its delta partial are
        staged on the side and only swapped in once both succeed, so a
        failure anywhere (a dirty value the column type rejects, a dead
        cluster) leaves the store exactly as it was — safe to fix the
        batch and retry.

        ``pre_commit(n_new)`` is the write-ahead hook: it runs after the
        batch has been validated and its delta computed, but before any
        state is swapped in.  A durability journal writes (and fsyncs) the
        batch record here — if the journal write fails, the append fails
        with the store untouched, so the log never lags the in-memory state
        and the in-memory state never leads the log.
        """
        span = obs_spans.current()
        staged = self._relation.copy()
        n_before = staged.n_rows
        n_new = staged.append_rows(rows)
        if n_new == 0:
            return 0
        fold_start = time.perf_counter()
        delta = self._builder.delta_partial(staged, n_before)
        fold_seconds = time.perf_counter() - fold_start
        obs_metrics.STORE_FOLD_SECONDS.observe_labels(
            self._relation.name, value=fold_seconds
        )
        if span is not None:
            span.add_segment("fold", fold_seconds)
        if pre_commit is not None:
            # The journal hook adds its own "journal_fsync" span segment.
            pre_commit(n_new)
        commit_start = time.perf_counter()
        # Commit point: the swap below does not fail, and compaction after
        # it only replaces chunk lists once their folded form is complete.
        self._relation = staged
        self._partial.rebase_rows(staged.n_rows)
        self._partial.merge(delta)
        self._evidence = None
        self._generation += 1
        for listener in self._append_listeners:
            listener(delta, n_before, staged.n_rows)
        obs_metrics.STORE_APPENDED_ROWS.inc_labels(self._relation.name, amount=n_new)
        if self._partial.chunk_bytes > 2 * self._compacted_bytes:
            self._compact()
        if span is not None:
            span.add_segment("commit", time.perf_counter() - commit_start)
        return n_new

    def _compact(self) -> None:
        """Fold the partial's chunks; the append has committed either way."""
        try:
            self._partial.compact()
        except MemoryError:
            # The partial keeps its old, equivalent chunks; the next append
            # retries once memory is back.
            return
        self._compacted_bytes = self._partial.chunk_bytes
        self.compactions += 1

    @classmethod
    def from_state(
        cls,
        relation: "Relation",
        space: "PredicateSpace",
        partial: "PartialEvidenceSet",
        generation: int = 0,
        tile_rows: int | None = None,
        cluster: object | None = None,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    ) -> "EvidenceStore":
        """Reassemble a store from externally persisted state.

        This is the recovery constructor of the durability layer
        (:mod:`repro.durability`): ``relation`` and ``partial`` come from a
        snapshot, ``space`` must be rebuilt from the same seed rows the
        original store was born with (the space is fixed at store birth —
        re-deriving it from grown data would change the bit layout under the
        stored words).  No evidence is computed; the partial is adopted
        as-is and finalizes lazily like any other store.
        """
        if partial.n_rows != relation.n_rows:
            raise ValueError(
                f"partial keyed on {partial.n_rows} rows cannot adopt a "
                f"{relation.n_rows}-row relation"
            )
        store = object.__new__(cls)
        store._relation = relation.copy()
        store.space = space
        store._builder = DeltaEvidenceBuilder(
            space,
            include_participation=partial.include_participation,
            tile_rows=tile_rows,
            cluster=cluster,
            memory_budget_bytes=memory_budget_bytes,
        )
        store._adopt_partial(partial)
        store._evidence = None
        store._generation = int(generation)
        store._append_listeners = []
        store.last_enumeration_statistics = None
        return store

    def clone(self) -> "EvidenceStore":
        """An independent store with the same state (cheap, copy-on-append).

        The partial's chunk arrays are shared (they are never mutated in
        place), so cloning costs only the dict/list copies — what the
        incremental benchmark uses to replay different batch sizes against
        one seed build.
        """
        duplicate = object.__new__(EvidenceStore)
        # Share everything by default (space, builder, caches, and whatever
        # attributes future versions add), then replace the two pieces of
        # state that appends mutate.
        duplicate.__dict__.update(self.__dict__)
        duplicate._relation = self._relation.copy()
        duplicate._partial = self._partial.copy()
        # Listeners watch *this* store's commits; the clone starts clean so
        # its appends cannot feed counters maintained for the original.
        duplicate._append_listeners = []
        duplicate.last_enumeration_statistics = None
        return duplicate

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def evidence(self) -> EvidenceSet:
        """The finalized evidence set of the current relation (cached).

        Finalization resolves the accumulated chunks into the canonical
        lexicographic word order; the result is cached until the next
        :meth:`append` invalidates it.
        """
        if self._evidence is None:
            self._evidence = self._partial.finalize(self.space)
        return self._evidence

    def remine(
        self,
        epsilon: float,
        function: "ApproximationFunction | str" = "f1",
        selection: "SelectionStrategy" = "max",
        max_dc_size: int | None = None,
    ) -> list["DiscoveredADC"]:
        """Re-enumerate minimal ADCs over the store's current evidence.

        The cached word planes go straight into
        :class:`~repro.core.adc_enum.ADCEnum` — no evidence rebuild, no
        representation change.  Enumeration statistics of the run are kept
        in :attr:`last_enumeration_statistics`.
        """
        if isinstance(function, str):
            function = get_approximation_function(function)
        label = self._relation.name
        span = obs_spans.current()
        obs_metrics.MINING_RUNS.inc_labels(label)

        def publish(stats: "EnumerationStatistics") -> None:
            """Export the live counters; called every ~8k search nodes."""
            obs_metrics.MINING_NODES_VISITED.set_labels(
                label, value=stats.recursive_calls
            )
            obs_metrics.MINING_NODES_PER_SECOND.set_labels(
                label, value=stats.nodes_per_second
            )
            obs_metrics.MINING_MAX_STACK_DEPTH.set_labels(
                label, value=stats.extra.get("max_stack_depth", 0.0)
            )

        finalize_start = time.perf_counter()
        evidence = self.evidence()
        finalize_seconds = time.perf_counter() - finalize_start
        if span is not None:
            span.add_segment("finalize", finalize_seconds)
        enumerate_start = time.perf_counter()
        adcs, statistics = run_enumeration(
            evidence,
            function,
            epsilon,
            selection=selection,
            max_dc_size=max_dc_size,
            progress=publish if obs_get_registry().enabled else None,
        )
        enumerate_seconds = time.perf_counter() - enumerate_start
        if span is not None:
            span.add_segment("enumerate", enumerate_seconds)
        publish(statistics)
        obs_metrics.MINING_SECONDS.observe_labels(label, value=enumerate_seconds)
        self.last_enumeration_statistics = statistics
        return adcs

    # ------------------------------------------------------------------
    # Replay support (violation serving)
    # ------------------------------------------------------------------
    def replay_kernel(self) -> TileKernel:
        """A participation-free kernel over the current rows, for tile replay."""
        return self._builder.kernel(self._relation, include_participation=False)

    def replay_scheduler(self) -> TileScheduler:
        """The full-grid schedule matching :meth:`replay_kernel`."""
        return TileScheduler(
            self.n_rows, tile_rows=self._builder.tile_edge(self.n_rows)
        )

    def probe_relation(
        self, rows: "Relation | Iterable[Mapping[str, object]]"
    ) -> tuple["Relation", int]:
        """A *hypothetical* relation with ``rows`` appended, and the old size.

        The store itself is untouched — this is what ``check_batch`` uses to
        evaluate incoming rows before admitting them.
        """
        probe = self._relation.copy()
        n_before = probe.n_rows
        probe.append_rows(rows)
        return probe, n_before
