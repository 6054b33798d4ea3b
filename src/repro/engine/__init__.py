"""Evidence engine.

The engine decomposes evidence construction (the dominant phase of the
pipeline, per the paper's Figure 8 decomposition) into tile work units
that one backend call folds:

* :mod:`repro.engine.scheduler` — :class:`TileScheduler` partitions the
  ordered-pair matrix into row tiles and picks an adaptive tile edge from
  a memory budget (:func:`choose_tile_rows`).
* :mod:`repro.engine.kernel` — :class:`TileKernel`, the evidence kernel,
  which folds a whole tile list in one backend call: all comparison data
  is resolved once up front into a compact numpy-only payload instead of
  the relation and predicate space.
* :mod:`repro.engine.partial` — :class:`PartialEvidenceSet`, an
  accumulator of fold results whose :meth:`~PartialEvidenceSet.merge`
  is associative and commutative, so partials can be combined in any order.
* :mod:`repro.engine.parallel` — :func:`fold_tiles`, the fold of a kernel
  over a tile sequence (one kernel call).
"""

from repro.engine.scheduler import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    Shard,
    Tile,
    TileScheduler,
    choose_tile_rows,
)
from repro.engine.kernel import TileKernel, TilePartial, prepare_groups
from repro.engine.partial import (
    PartialEvidenceSet,
    participation_csr,
    participation_from_pairs,
)
from repro.engine.parallel import fold_tiles

__all__ = [
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "Tile",
    "Shard",
    "TileScheduler",
    "choose_tile_rows",
    "TileKernel",
    "TilePartial",
    "prepare_groups",
    "PartialEvidenceSet",
    "participation_csr",
    "participation_from_pairs",
    "fold_tiles",
]
