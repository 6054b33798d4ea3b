"""Evidence engine.

The engine decomposes evidence construction (the dominant phase of the
pipeline, per the paper's Figure 8 decomposition) into tile work units
that one backend call folds:

* :mod:`repro.engine.scheduler` — :func:`block_tiles`, the one cutter of
  the ordered-pair matrix into tiles (a full build's row-major square grid
  and an append's delta blocks alike), and :func:`choose_tile_rows`, the
  tile edge for an evidence word width.
* :mod:`repro.engine.kernel` — :class:`TileKernel`, the evidence kernel,
  which folds a whole tile list in one backend call: all comparison data
  is resolved once up front into a compact numpy-only payload instead of
  the relation and predicate space; and :func:`fold_tiles`, which runs
  that one call and absorbs its result into a partial.
* :mod:`repro.engine.partial` — :class:`PartialEvidenceSet`, an
  accumulator of fold results whose :meth:`~PartialEvidenceSet.merge`
  is associative and commutative, so partials can be combined in any order.
"""

from repro.engine.scheduler import Shard, Tile, block_tiles, choose_tile_rows
from repro.engine.kernel import TileKernel, TilePartial, fold_tiles, prepare_groups
from repro.engine.partial import (
    PartialEvidenceSet,
    participation_csr,
    participation_from_pairs,
)

__all__ = [
    "Tile",
    "Shard",
    "block_tiles",
    "choose_tile_rows",
    "TileKernel",
    "TilePartial",
    "prepare_groups",
    "fold_tiles",
    "PartialEvidenceSet",
    "participation_csr",
    "participation_from_pairs",
]
