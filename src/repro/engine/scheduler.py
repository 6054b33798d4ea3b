"""Tile scheduling: work units for evidence construction.

The ordered-pair matrix of an ``n``-row relation is cut into
``tile_rows x tile_rows`` blocks.  Every block is an independent work unit
(a :class:`Tile`), and contiguous runs of tiles are grouped into
:class:`Shard` ranges balanced by pair count — the unit a cluster worker
receives.  :func:`choose_tile_rows` picks the tile
edge adaptively from a memory budget and the evidence word width, replacing
the fixed 256-row default of the original tiled builder.

A scheduler is not restricted to the full ``n x n`` matrix: the ``rows`` /
``cols`` ranges restrict it to any rectangular ``row-range x row-range``
block, which is what the incremental delta builder
(:mod:`repro.incremental.delta`) uses to enumerate only the new-vs-old
rectangles and the new-vs-new square of an appended batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

#: Default transient-memory budget of one evidence kernel (bytes).
DEFAULT_MEMORY_BUDGET_BYTES = 64 * 2**20

#: Smallest tile edge the adaptive selection will pick.  Below this the
#: per-tile Python overhead (dedup dict, chunk bookkeeping) dominates.
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
    """A contiguous range ``tiles[start:stop]`` of a scheduler's tile list.

    Shards are the distribution unit: ``(start, stop)`` alone identifies
    the work against a scheduler with the same ``(n_rows, tile_rows)``, so
    a remote worker only needs those two integers plus the kernel.
    """

    start: int
    stop: int
    tiles: tuple[Tile, ...]

    @property
    def n_pairs(self) -> int:
        """Ordered pairs covered by the shard."""
        return sum(tile.n_pairs for tile in self.tiles)

    def __len__(self) -> int:
        return len(self.tiles)


def _validated_range(bounds: tuple[int, int] | None, n_rows: int, axis: str) -> tuple[int, int]:
    """Clamp-check one ``[lo, hi)`` row range of a scheduler block."""
    if bounds is None:
        return (0, n_rows)
    lo, hi = int(bounds[0]), int(bounds[1])
    if not 0 <= lo <= hi <= n_rows:
        raise ValueError(
            f"{axis} range ({lo}, {hi}) outside the relation's [0, {n_rows})"
        )
    return (lo, hi)


class TileScheduler:
    """Partition a block of the ordered-pair matrix of ``n_rows`` tuples.

    By default the block is the full ``n x n`` matrix; ``rows`` / ``cols``
    restrict it to any rectangular ``[lo, hi) x [lo, hi)`` sub-block, the
    unit the incremental delta builder schedules (new-vs-old rectangles,
    new-vs-new square).

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
    rows:
        Optional ``[lo, hi)`` range of left-tuple ids; default ``(0, n_rows)``.
    cols:
        Optional ``[lo, hi)`` range of right-tuple ids; default ``(0, n_rows)``.
    """

    def __init__(
        self,
        n_rows: int,
        tile_rows: int | None = None,
        n_words: int = 1,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
        rows: tuple[int, int] | None = None,
        cols: tuple[int, int] | None = None,
    ) -> None:
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        if tile_rows is None:
            tile_rows = choose_tile_rows(max(n_rows, 1), n_words, memory_budget_bytes)
        if tile_rows < 1:
            raise ValueError("tile_rows must be positive")
        self.n_rows = int(n_rows)
        self.tile_rows = int(tile_rows)
        self.rows = _validated_range(rows, self.n_rows, "rows")
        self.cols = _validated_range(cols, self.n_rows, "cols")
        self._tiles: tuple[Tile, ...] | None = None

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Tiles along the (row, column) axes of the scheduled block."""
        t = self.tile_rows
        return (
            -(-(self.rows[1] - self.rows[0]) // t),
            -(-(self.cols[1] - self.cols[0]) // t),
        )

    @property
    def grid(self) -> int:
        """Tiles per side of a square grid (row axis for rectangles)."""
        return self.grid_shape[0]

    def tiles(self) -> tuple[Tile, ...]:
        """All tiles in row-major order (cached)."""
        if self._tiles is None:
            t = self.tile_rows
            (r0, r1), (c0, c1) = self.rows, self.cols
            self._tiles = tuple(
                Tile(i0, min(i0 + t, r1), j0, min(j0 + t, c1))
                for i0 in range(r0, r1, t)
                for j0 in range(c0, c1, t)
            )
        return self._tiles

    def __len__(self) -> int:
        return len(self.tiles())

    def __iter__(self) -> Iterator[Tile]:
        return iter(self.tiles())

    @property
    def total_pairs(self) -> int:
        """Ordered distinct pairs in the block (diagonal cells excluded)."""
        (r0, r1), (c0, c1) = self.rows, self.cols
        diagonal = max(0, min(r1, c1) - max(r0, c0))
        return (r1 - r0) * (c1 - c0) - diagonal

    def shards(self, k: int) -> list[Shard]:
        """Split the tile list into at most ``k`` contiguous balanced shards.

        See :func:`shard_tiles` — returns ``min(k, len(self))`` shards that
        exactly partition :meth:`tiles`.
        """
        return shard_tiles(self.tiles(), k)


def shard_tiles(tiles: tuple[Tile, ...], k: int) -> list[Shard]:
    """Split a tile sequence into at most ``k`` contiguous balanced shards.

    Balancing is by pair count with a greedy fair-share cut: each shard
    closes once it reaches its share of the remaining pairs, subject to
    every remaining shard still receiving at least one tile.  Returns
    ``min(k, len(tiles))`` shards that exactly partition ``tiles``.  Works
    over any tile list — a scheduler's full grid or the concatenated block
    grids of the incremental delta builder.
    """
    if k < 1:
        raise ValueError("shard count must be positive")
    tiles = tuple(tiles)
    if not tiles:
        return []
    k = min(k, len(tiles))
    remaining = sum(tile.n_pairs for tile in tiles)
    shards: list[Shard] = []
    start = 0
    accumulated = 0
    for index, tile in enumerate(tiles):
        accumulated += tile.n_pairs
        shards_left = k - len(shards)
        tiles_after = len(tiles) - index - 1
        # Close the shard at its fair share of the remaining pairs, or
        # when every remaining shard needs one of the remaining tiles.
        reached_share = accumulated * shards_left >= remaining
        must_close = tiles_after == shards_left - 1
        if shards_left > 1 and (reached_share or must_close):
            shards.append(Shard(start, index + 1, tiles[start : index + 1]))
            remaining -= accumulated
            accumulated = 0
            start = index + 1
    shards.append(Shard(start, len(tiles), tiles[start:]))
    return shards
