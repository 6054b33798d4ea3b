"""Tile cutting: the work units of evidence construction.

The ordered-pair matrix of an ``n``-row relation is cut into blocks, each a
:class:`Tile`; a :class:`Shard` is the tile sequence one kernel call folds.
:func:`block_tiles` is the one cutter: a full build cuts the whole matrix,
``block_tiles((0, n), (0, n), edge)``, into the row-major square grid, and
the incremental delta builder (:mod:`repro.incremental.delta`) cuts the
blocks an append adds into tiles of the same ``edge²`` pair budget.
:func:`choose_tile_rows` picks the edge from the evidence word width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Transient-memory budget the adaptive tile edge is sized for (bytes).
_MEMORY_BUDGET_BYTES = 64 * 2**20

#: Smallest tile edge the adaptive selection will pick.  Below this the
#: per-tile overhead (a fold's per-line passes) dominates.
MIN_TILE_ROWS = 16

#: Largest tile edge the adaptive selection will pick.  Beyond this the
#: per-tile word planes fall out of CPU cache and throughput drops, even
#: when the memory budget would allow a bigger tile.
MAX_TILE_ROWS = 256

#: Word planes per ordered pair the edge is sized for: a fold that
#: materializes a tile's evidence words holds the uint64 plane, a dedup
#: copy and the sort scratch, each ``8 * n_words`` bytes per pair.  The
#: compiled fold holds far less (one uint32 evidence id per pair of its
#: largest tile, plus fixed per-block scratch), so for it the budget is a
#: loose bound; the edge is kept as it is so that every tile schedule, and
#: the delta tiles cut to the same ``edge²`` pair budget, stays unchanged.
_KERNEL_PLANES = 3


def choose_tile_rows(n_rows: int, n_words: int) -> int:
    """Pick a tile edge so a tile's word planes fit the memory budget.

    A tile of edge ``t`` holds ``3 * 8 * n_words * t^2`` bytes of word
    planes (:data:`_KERNEL_PLANES`), so the budgeted edge is
    ``sqrt(budget / (24 * n_words))`` for the 64 MiB budget, clamped to
    ``[MIN_TILE_ROWS, MAX_TILE_ROWS]`` and to the relation size (a tile
    larger than the relation degenerates to the dense builder).
    """
    if n_rows < 1:
        raise ValueError("n_rows must be positive")
    if n_words < 1:
        raise ValueError("n_words must be positive")
    bytes_per_pair = _KERNEL_PLANES * 8 * n_words
    budgeted = math.isqrt(max(1, _MEMORY_BUDGET_BYTES // bytes_per_pair))
    clamped = max(MIN_TILE_ROWS, min(budgeted, MAX_TILE_ROWS))
    return max(1, min(clamped, n_rows))


@dataclass(frozen=True)
class Tile:
    """One ``[i0, i1) x [j0, j1)`` block of the ordered-pair matrix."""

    i0: int
    i1: int
    j0: int
    j1: int

    @property
    def n_pairs(self) -> int:
        """Ordered distinct pairs in the block (diagonal cells excluded)."""
        diagonal = max(0, min(self.i1, self.j1) - max(self.i0, self.j0))
        return (self.i1 - self.i0) * (self.j1 - self.j0) - diagonal


@dataclass(frozen=True)
class Shard:
    """The tiles one :meth:`~repro.engine.kernel.TileKernel.run` call folds."""

    tiles: tuple[Tile, ...]

    @property
    def n_pairs(self) -> int:
        """Ordered pairs covered by the shard."""
        return sum(tile.n_pairs for tile in self.tiles)

    def __len__(self) -> int:
        return len(self.tiles)


def block_tiles(
    rows: tuple[int, int], cols: tuple[int, int], edge: int
) -> tuple[Tile, ...]:
    """Cut one ``rows x cols`` block into tiles of at most ``edge²`` cells.

    Tiles come in row-major order.  A side no longer than ``edge`` stays
    whole and the other side is cut into runs of ``edge² // side``, so an
    ``m x n`` strip costs ``ceil(m·n / edge²)``-ish tiles instead of
    ``ceil(n / edge)``; a block longer than ``edge`` on both sides is cut
    into the square ``edge x edge`` grid.
    """
    if edge < 1:
        raise ValueError("tile_rows must be positive")
    (r0, r1), (c0, c1) = rows, cols
    height, width = r1 - r0, c1 - c0
    if height <= 0 or width <= 0:
        return ()
    budget = edge * edge
    if height <= edge:
        row_step, col_step = height, budget // height
    elif width <= edge:
        row_step, col_step = budget // width, width
    else:
        row_step = col_step = edge
    return tuple(
        Tile(i0, min(i0 + row_step, r1), j0, min(j0 + col_step, c1))
        for i0 in range(r0, r1, row_step)
        for j0 in range(c0, c1, col_step)
    )
