"""Tile scheduling: work units for evidence construction.

The ordered-pair matrix of an ``n``-row relation is cut into
``tile_rows x tile_rows`` blocks.  Every block is an independent work unit
(a :class:`Tile`), and a :class:`Shard` is the run of tiles one kernel
call folds.  :func:`choose_tile_rows` picks the tile
edge adaptively from a memory budget and the evidence word width, replacing
the fixed 256-row default of the original tiled builder.

The incremental delta builder (:mod:`repro.incremental.delta`) cuts its
appended-pair blocks itself, into tiles of the same ``edge²`` pair budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

#: Default transient-memory budget of one evidence kernel (bytes).
DEFAULT_MEMORY_BUDGET_BYTES = 64 * 2**20

#: Smallest tile edge the adaptive selection will pick.  Below this the
#: per-tile overhead (a fold's per-line passes, the numpy fold's per-tile
#: steps) dominates.
MIN_TILE_ROWS = 16

#: Largest tile edge the adaptive selection will pick.  Beyond this the
#: per-tile word planes fall out of CPU cache and throughput drops, even
#: when the memory budget would allow a bigger tile.
MAX_TILE_ROWS = 256

#: Transient bytes per ordered pair inside the kernel: the uint64 word
#: plane, its flattened dedup copy, and the sort scratch of the row-dedup
#: are each ``8 * n_words`` bytes per pair.
_KERNEL_PLANES = 3


def choose_tile_rows(
    n_rows: int,
    n_words: int,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> int:
    """Pick a tile edge so one kernel invocation fits the memory budget.

    A tile of edge ``t`` makes the kernel allocate about
    ``3 * 8 * n_words * t^2`` transient bytes (word plane, dedup copy, sort
    scratch), so the budgeted edge is ``sqrt(budget / (24 * n_words))``,
    clamped to ``[MIN_TILE_ROWS, MAX_TILE_ROWS]`` and to the relation size
    (a tile larger than the relation degenerates to the dense builder).
    """
    if n_rows < 1:
        raise ValueError("n_rows must be positive")
    if n_words < 1:
        raise ValueError("n_words must be positive")
    if memory_budget_bytes < 1:
        raise ValueError("memory_budget_bytes must be positive")
    bytes_per_pair = _KERNEL_PLANES * 8 * n_words
    budgeted = math.isqrt(max(1, memory_budget_bytes // bytes_per_pair))
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

    @property
    def shape(self) -> tuple[int, int]:
        """Block shape ``(rows, columns)``."""
        return (self.i1 - self.i0, self.j1 - self.j0)


@dataclass(frozen=True)
class Shard:
    """A contiguous range ``tiles[start:stop]`` of a tile list: what one
    :meth:`~repro.engine.kernel.TileKernel.run` call folds."""

    start: int
    stop: int
    tiles: tuple[Tile, ...]

    @property
    def n_pairs(self) -> int:
        """Ordered pairs covered by the shard."""
        return sum(tile.n_pairs for tile in self.tiles)

    def __len__(self) -> int:
        return len(self.tiles)


class TileScheduler:
    """Partition the ordered-pair matrix of ``n_rows`` tuples into tiles.

    Parameters
    ----------
    n_rows:
        Number of tuples of the relation.
    tile_rows:
        Tile edge length; ``None`` selects it adaptively with
        :func:`choose_tile_rows` from ``n_words`` and the memory budget.
    n_words:
        Evidence word width (used only by the adaptive selection).
    memory_budget_bytes:
        Kernel memory budget (used only by the adaptive selection).
    """

    def __init__(
        self,
        n_rows: int,
        tile_rows: int | None = None,
        n_words: int = 1,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    ) -> None:
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        if tile_rows is None:
            tile_rows = choose_tile_rows(max(n_rows, 1), n_words, memory_budget_bytes)
        if tile_rows < 1:
            raise ValueError("tile_rows must be positive")
        self.n_rows = int(n_rows)
        self.tile_rows = int(tile_rows)
        self._tiles: tuple[Tile, ...] | None = None

    @property
    def grid(self) -> int:
        """Tiles per side of the grid."""
        return -(-self.n_rows // self.tile_rows)

    def tiles(self) -> tuple[Tile, ...]:
        """All tiles in row-major order (cached)."""
        if self._tiles is None:
            n, t = self.n_rows, self.tile_rows
            self._tiles = tuple(
                Tile(i0, min(i0 + t, n), j0, min(j0 + t, n))
                for i0 in range(0, n, t)
                for j0 in range(0, n, t)
            )
        return self._tiles

    def __len__(self) -> int:
        return len(self.tiles())

    def __iter__(self) -> Iterator[Tile]:
        return iter(self.tiles())

    @property
    def total_pairs(self) -> int:
        """Ordered distinct pairs (diagonal cells excluded)."""
        return self.n_rows * (self.n_rows - 1)
