"""Delta evidence construction for appended tuple batches.

Appending ``m`` rows to an ``n``-row relation adds exactly three blocks of
new ordered pairs to the pair matrix:

* the *new-vs-old* rectangle ``[n, n+m) x [0, n)``,
* the *old-vs-new* rectangle ``[0, n) x [n, n+m)``,
* the *new-vs-new* square ``[n, n+m) x [n, n+m)`` (diagonal excluded).

Every pair among the first ``n`` rows is untouched, so the evidence
contribution of those blocks — ``O(n·m + m²)`` pairs instead of the full
``O((n+m)²)`` — is all an incremental rebuild has to compute.
:func:`delta_tiles` cuts the blocks with the engine's one cutter,
:func:`~repro.engine.scheduler.block_tiles`, into tiles bounded by
*pairs*, not by edge: a tile holds at most ``edge²`` pairs, the budget of
one square tile of a full build, so a thin ``m x n`` strip stays one tile
while ``m·n <= edge²`` and a one-row append costs two tiles at any ``n``.
:class:`DeltaEvidenceBuilder` runs them through the same
:class:`~repro.engine.kernel.TileKernel` as the batch builders — one
:func:`~repro.engine.kernel.fold_tiles` call per build or delta — and
returns a :class:`~repro.engine.partial.PartialEvidenceSet` ready to
:meth:`~repro.engine.partial.PartialEvidenceSet.merge` into the stored one.
A store keeps its relation's :class:`RowPlanes` — the predicate groups
planned once and the kernel's per-row planes, append-only — so preparing
a delta kernel costs the new rows only.

Because the delta tiles partition exactly the pairs a full rebuild would
add, and :meth:`~repro.engine.partial.PartialEvidenceSet.finalize` is
invariant to how pairs were grouped into tiles and partials, merging the
delta into the stored partial finalizes **bit-identically** to a full tiled
rebuild on the concatenated relation (property-tested over random append
schedules in ``tests/test_incremental.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.bitset import n_words_for_bits
from repro.engine.kernel import GroupPlan, TileKernel, fold_tiles
from repro.engine.scheduler import block_tiles, choose_tile_rows

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
    square of a relation grown from ``n_existing`` to ``n_total`` rows.
    Each tile spans at most ``tile_rows²`` cells (see
    :func:`~repro.engine.scheduler.block_tiles`).
    The returned tiles partition the added ordered pairs: no pair between
    two existing rows appears, and every pair touching a new row appears
    exactly once.  A one-row append yields two strips plus the pair-less
    diagonal cell of its new-vs-new square, which folds skip.

    ``include_new_vs_new=False`` drops the new-vs-new square, leaving only
    the cross rectangles — what per-row batch admission
    (:meth:`~repro.incremental.serve.ViolationService.check_batch`) replays
    so that every new row is judged independently of its batch-mates.
    """
    if not 0 <= n_existing <= n_total:
        raise ValueError(
            f"invalid append bounds: {n_existing} existing of {n_total} total rows"
        )
    blocks = [
        # new-vs-old, old-vs-new, new-vs-new (row range x column range).
        ((n_existing, n_total), (0, n_existing)),
        ((0, n_existing), (n_existing, n_total)),
    ]
    if include_new_vs_new:
        blocks.append(((n_existing, n_total), (n_existing, n_total)))
    return tuple(tile for rows, cols in blocks for tile in block_tiles(rows, cols, tile_rows))


class RowPlanes:
    """Append-only per-row kernel planes of one growing relation.

    Holds the relation's :class:`~repro.engine.kernel.GroupPlan` (planned
    once) and ``(G, capacity)`` float64 planes that grow by doubling.  The
    owner — the store, the one party that knows which rows are committed —
    keeps one instance per relation and vouches for its committed prefix
    on every :meth:`packed` call; the builder itself keeps no per-relation
    state.
    """

    def __init__(self, relation: "Relation", space: "PredicateSpace") -> None:
        self.plan = GroupPlan.of(relation, space)
        self._a = self._b = np.zeros((len(self.plan.kinds), 0), dtype=np.float64)
        # Columns [0, _filled) hold the rows of the last relation packed.
        self._filled = 0

    def packed(
        self, relation: "Relation", n_existing: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(kinds, a, b, lookup)`` over ``relation``'s current rows.

        The first ``n_existing`` rows of ``relation`` must be rows an
        earlier call filled (the owner's committed rows): their planes are
        reused and only the rows after them are filled — ``O(m)`` for an
        ``m``-row append instead of ``O(n)``.  ``n_existing=0`` fills every
        row into fresh buffers.  Rows past ``n_existing`` (a staged append,
        a ``check_batch`` probe) may be overwritten by the next call; rows
        below it never are, so the planes of a kernel handed out earlier
        stay valid.
        """
        n_rows = relation.n_rows
        start = min(n_existing, self._filled)
        if start == 0 or n_rows > self._a.shape[1]:
            # Doubling keeps the copy of filled rows amortized O(1) per row.
            a = np.zeros((len(self.plan.kinds), max(n_rows, 2 * start)), dtype=np.float64)
            b = np.zeros_like(a)
            a[:, :start] = self._a[:, :start]
            b[:, :start] = self._b[:, :start]
            self._a, self._b = a, b
        self.plan.fill(relation, self._a, self._b, start)
        self._filled = n_rows
        return self.plan.kinds, self._a[:, :n_rows], self._b[:, :n_rows], self.plan.lookup

    def copy(self) -> "RowPlanes":
        """Planes of their own for a cloned owner (the plan is shared)."""
        duplicate = object.__new__(RowPlanes)
        duplicate.plan = self.plan
        duplicate._a, duplicate._b = self._a.copy(), self._b.copy()
        duplicate._filled = self._filled
        return duplicate


class DeltaEvidenceBuilder:
    """Compute evidence partials for a relation and its appended batches.

    The builder owns the construction knobs (predicate space, participation
    tracking, tile sizing) so that the initial full build and
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
        Tile edge, at least 1; ``None`` picks it per build from the word
        width via :func:`~repro.engine.scheduler.choose_tile_rows`.

    The builder keeps no per-relation state: a kernel prepares every row
    unless the caller passes the :class:`RowPlanes` of its relation (see
    :meth:`kernel`).
    """

    def __init__(
        self,
        space: "PredicateSpace",
        include_participation: bool = True,
        tile_rows: int | None = None,
    ) -> None:
        if tile_rows is not None and tile_rows < 1:
            raise ValueError("tile_rows must be positive")
        self.space = space
        self.n_words = n_words_for_bits(len(space))
        self.include_participation = bool(include_participation)
        self.tile_rows = int(tile_rows) if tile_rows is not None else None

    def tile_edge(self, n_rows: int) -> int:
        """Tile edge for a build over ``n_rows`` rows (fixed or by word width)."""
        if self.tile_rows is not None:
            return self.tile_rows
        return choose_tile_rows(max(n_rows, 1), self.n_words)

    def full_tiles(self, n_rows: int) -> tuple["Tile", ...]:
        """The square tile grid of a full build over ``n_rows`` rows."""
        return block_tiles((0, n_rows), (0, n_rows), self.tile_edge(n_rows))

    def kernel(
        self,
        relation: "Relation",
        include_participation: bool | None = None,
        planes: RowPlanes | None = None,
        n_existing: int = 0,
    ) -> TileKernel:
        """A tile kernel over the relation's *current* rows.

        Without ``planes`` every row is prepared, ``O(n)`` work.  With the
        relation's :class:`RowPlanes`, the first ``n_existing`` rows reuse
        their planes and only the rows after them are prepared (see
        :meth:`RowPlanes.packed`).
        """
        if include_participation is None:
            include_participation = self.include_participation
        if planes is None:
            return TileKernel.from_relation(relation, self.space, include_participation)
        packed = planes.packed(relation, n_existing)
        return TileKernel(packed, relation.n_rows, len(self.space), include_participation)

    def full_partial(
        self, relation: "Relation", planes: RowPlanes | None = None
    ) -> "PartialEvidenceSet":
        """Evidence partial of the full pair matrix (the store's seed)."""
        return fold_tiles(
            self.kernel(relation, planes=planes), self.full_tiles(relation.n_rows)
        )

    def delta_partial(
        self, relation: "Relation", n_existing: int, planes: RowPlanes | None = None
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
        size, not the history's.  ``planes`` as in :meth:`kernel`.
        """
        tiles = delta_tiles(n_existing, relation.n_rows, self.tile_edge(relation.n_rows))
        kernel = self.kernel(relation, planes=planes, n_existing=n_existing)
        return fold_tiles(kernel, tiles)
