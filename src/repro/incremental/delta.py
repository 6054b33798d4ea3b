"""Delta evidence construction for appended tuple batches.

Appending ``m`` rows to an ``n``-row relation adds exactly three blocks of
new ordered pairs to the pair matrix:

* the *new-vs-old* rectangle ``[n, n+m) x [0, n)``,
* the *old-vs-new* rectangle ``[0, n) x [n, n+m)``,
* the *new-vs-new* square ``[n, n+m) x [n, n+m)`` (diagonal excluded).

Every pair among the first ``n`` rows is untouched, so the evidence
contribution of those blocks — ``O(n·m + m²)`` pairs instead of the full
``O((n+m)²)`` — is all an incremental rebuild has to compute.
:class:`DeltaEvidenceBuilder` schedules the three blocks as ordinary
:class:`~repro.engine.scheduler.Tile` work units (the rectangular-range
support of :class:`~repro.engine.scheduler.TileScheduler`), runs them
through the same picklable :class:`~repro.engine.kernel.TileKernel` as the
batch builders — serially (:func:`~repro.engine.parallel.fold_tiles`) or
over an attached cluster — and returns a
:class:`~repro.engine.partial.PartialEvidenceSet` ready to
:meth:`~repro.engine.partial.PartialEvidenceSet.merge` into the stored one.

Because the delta tiles partition exactly the pairs a full rebuild would
add, and :meth:`~repro.engine.partial.PartialEvidenceSet.finalize` is
invariant to how pairs were grouped into tiles and partials, merging the
delta into the stored partial finalizes **bit-identically** to a full tiled
rebuild on the concatenated relation (property-tested over random append
schedules in ``tests/test_incremental.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.evidence import n_words_for
from repro.engine.kernel import TileKernel
from repro.engine.parallel import fold_tiles, parallel_tile_rows
from repro.engine.scheduler import DEFAULT_MEMORY_BUDGET_BYTES, TileScheduler

if TYPE_CHECKING:
    from repro.core.predicate_space import PredicateSpace
    from repro.data.relation import Relation
    from repro.engine.partial import PartialEvidenceSet
    from repro.engine.scheduler import Tile


def delta_tiles(
    n_existing: int,
    n_total: int,
    tile_rows: int,
    include_new_vs_new: bool = True,
) -> tuple["Tile", ...]:
    """Tile work units covering exactly the pairs an append introduced.

    Enumerates the new-vs-old and old-vs-new rectangles and the new-vs-new
    square of a relation grown from ``n_existing`` to ``n_total`` rows, as
    three rectangular :class:`~repro.engine.scheduler.TileScheduler` grids.
    The returned tiles partition the added ordered pairs: no pair between
    two existing rows appears, and every pair touching a new row appears
    exactly once.

    ``include_new_vs_new=False`` drops the new-vs-new square, leaving only
    the cross rectangles — what per-row batch admission
    (:meth:`~repro.incremental.serve.ViolationService.check_batch`) replays
    so that every new row is judged independently of its batch-mates.
    """
    if not 0 <= n_existing <= n_total:
        raise ValueError(
            f"invalid append bounds: {n_existing} existing of {n_total} total rows"
        )
    if n_existing == n_total:
        return ()
    blocks = [
        # new-vs-old, old-vs-new, new-vs-new (row-range x row-range grids).
        ((n_existing, n_total), (0, n_existing)),
        ((0, n_existing), (n_existing, n_total)),
    ]
    if include_new_vs_new:
        blocks.append(((n_existing, n_total), (n_existing, n_total)))
    tiles: list["Tile"] = []
    for rows, cols in blocks:
        if rows[0] == rows[1] or cols[0] == cols[1]:
            continue
        scheduler = TileScheduler(n_total, tile_rows=tile_rows, rows=rows, cols=cols)
        tiles.extend(scheduler.tiles())
    return tuple(tiles)


class DeltaEvidenceBuilder:
    """Compute evidence partials for a relation and its appended batches.

    The builder owns the construction knobs (predicate space, participation
    tracking, tile sizing, cluster) so that the initial full build and
    every subsequent delta run through identical kernels and schedules —
    the precondition for the store's bit-identity invariant.

    Parameters
    ----------
    space:
        The predicate space every build evaluates.  Fixed for the builder's
        lifetime: evidence words of different spaces are not comparable.
    include_participation:
        Whether tile kernels aggregate the tuple-participation histogram
        (needed by f2/f3 and the per-tuple violation scores).
    tile_rows:
        Tile edge; ``None`` picks it adaptively per build via
        :func:`~repro.engine.scheduler.choose_tile_rows`.
    cluster:
        Optional :class:`~repro.cluster.coordinator.ClusterCoordinator` or
        :class:`~repro.cluster.local.LocalCluster`: the initial full build
        *and every delta* fold their tiles over the cluster's workers
        instead of serially in-process.
    memory_budget_bytes:
        Transient-memory budget driving the adaptive tile edge.
    """

    def __init__(
        self,
        space: "PredicateSpace",
        include_participation: bool = True,
        tile_rows: int | None = None,
        cluster: object | None = None,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    ) -> None:
        self.space = space
        self.n_words = n_words_for(len(space))
        self.include_participation = bool(include_participation)
        self.tile_rows = int(tile_rows) if tile_rows is not None else None
        self.cluster = cluster
        self.memory_budget_bytes = int(memory_budget_bytes)

    def tile_edge(self, n_rows: int) -> int:
        """Tile edge for a build over ``n_rows`` rows (fixed or adaptive).

        With a cluster, the memory budget is split across the workers'
        concurrent kernels the same way the cluster builder splits it
        (:func:`~repro.engine.parallel.parallel_tile_rows`), so together
        they stay within ``memory_budget_bytes``.
        """
        if self.tile_rows is not None:
            return self.tile_rows
        concurrency = 1
        if self.cluster is not None:
            from repro.cluster.local import resolve_coordinator

            concurrency = resolve_coordinator(self.cluster).n_alive
        return parallel_tile_rows(
            max(n_rows, 1), self.n_words, concurrency, self.memory_budget_bytes
        )

    def _fold(self, kernel: TileKernel, tiles: tuple["Tile", ...]) -> "PartialEvidenceSet":
        """Fold tiles over the cluster when one is attached, else serially."""
        if self.cluster is not None:
            from repro.cluster.build import fold_tiles_cluster

            return fold_tiles_cluster(kernel, tiles, self.cluster)
        return fold_tiles(kernel, tiles)

    def kernel(self, relation: "Relation", include_participation: bool | None = None) -> TileKernel:
        """A tile kernel over the relation's *current* rows.

        Kernels snapshot per-row comparison data, so a fresh one is needed
        after every append; preparing it is ``O(n)`` vectorised work and the
        relation's incrementally-extended string codes keep even that cheap.
        """
        if include_participation is None:
            include_participation = self.include_participation
        return TileKernel.from_relation(relation, self.space, include_participation)

    def full_partial(self, relation: "Relation") -> "PartialEvidenceSet":
        """Evidence partial of the full pair matrix (the store's seed)."""
        scheduler = TileScheduler(relation.n_rows, tile_rows=self.tile_edge(relation.n_rows))
        return self._fold(self.kernel(relation), scheduler.tiles())

    def delta_partial(
        self, relation: "Relation", n_existing: int
    ) -> "PartialEvidenceSet":
        """Evidence partial of the pairs added by growing to ``relation``.

        ``relation`` must already contain the appended rows (the kernel
        needs both sides of the cross blocks); ``n_existing`` is the row
        count *before* the append.  The result's ``n_rows`` is the new
        total, so the caller must
        :meth:`~repro.engine.partial.PartialEvidenceSet.rebase_rows` the
        stored partial before merging.  That only moves its row count:
        participation keys have a fixed ``<< 32`` stride, so nothing the
        stored partial holds is re-keyed and the merge costs the delta's
        size, not the history's.
        """
        tiles = delta_tiles(n_existing, relation.n_rows, self.tile_edge(relation.n_rows))
        return self._fold(self.kernel(relation), tiles)
