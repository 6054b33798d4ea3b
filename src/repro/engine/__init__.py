"""Parallel evidence engine.

The engine decomposes evidence construction (the dominant phase of the
pipeline, per the paper's Figure 8 decomposition) into independent,
shardable tile work units:

* :mod:`repro.engine.scheduler` — :class:`TileScheduler` partitions the
  ordered-pair matrix into row tiles, balances contiguous tile ranges into
  shards (:meth:`TileScheduler.shards`), and picks an adaptive tile edge
  from a memory budget (:func:`choose_tile_rows`).
* :mod:`repro.engine.kernel` — :class:`TileKernel`, the picklable per-tile
  evidence kernel: all comparison data is resolved once up front so worker
  processes receive a compact numpy-only payload instead of the relation
  and predicate space.
* :mod:`repro.engine.partial` — :class:`PartialEvidenceSet`, an
  accumulator of per-tile results whose :meth:`~PartialEvidenceSet.merge`
  is associative and commutative, so partials can be combined in any order.
* :mod:`repro.engine.parallel` — :func:`fold_tiles`, the serial fold of a
  kernel over a tile sequence, and :func:`parallel_tile_rows`, the tile
  edge for several concurrent kernels.

Parallelism comes from :mod:`repro.cluster`, whose workers run the same
:func:`fold_tiles` over shards of the same schedule, so cluster and
``tiled`` results are bit-identical.
"""

from repro.engine.scheduler import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    Shard,
    Tile,
    TileScheduler,
    choose_tile_rows,
    shard_tiles,
)
from repro.engine.kernel import TileKernel, TilePartial, prepare_groups
from repro.engine.partial import (
    PartialEvidenceSet,
    participation_from_key_chunks,
    split_participation,
)
from repro.engine.parallel import fold_tiles, parallel_tile_rows

__all__ = [
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "Tile",
    "Shard",
    "TileScheduler",
    "choose_tile_rows",
    "shard_tiles",
    "TileKernel",
    "TilePartial",
    "prepare_groups",
    "PartialEvidenceSet",
    "participation_from_key_chunks",
    "split_participation",
    "fold_tiles",
    "parallel_tile_rows",
]
