"""The tile fold shared by every evidence builder.

:func:`fold_tiles` hands a whole tile sequence to one
:meth:`~repro.engine.kernel.TileKernel.run` call — on the compiled backend
one native call, however many tiles — and absorbs the fold's single
result into a :class:`~repro.engine.partial.PartialEvidenceSet`: one
intern of the fold's distinct evidences, not one per tile.  The tiled
builder calls it once per build and the incremental delta builder once per
seed build or delta.  Because the merge is associative/commutative and
finalization orders evidences canonically, every split of the schedule
finalizes bit-identically to one fold of the whole schedule.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.engine.kernel import TileKernel
from repro.engine.partial import PartialEvidenceSet
from repro.engine.scheduler import Shard
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:
    from repro.engine.scheduler import Tile


def fold_tiles(kernel: TileKernel, tiles: tuple["Tile", ...]) -> PartialEvidenceSet:
    """Fold a tile sequence into one partial, with one kernel call."""
    partial = PartialEvidenceSet(
        kernel.n_rows, kernel.n_words, kernel.include_participation
    )
    # Lone diagonal cells hold no pair.
    kept = tuple(tile for tile in tiles if tile.n_pairs)
    if not kept:
        return partial
    batch = Shard(0, len(kept), kept)
    fold_start = time.perf_counter()
    folded = kernel.run(batch)
    obs_metrics.EVIDENCE_TILE_SECONDS.observe(time.perf_counter() - fold_start)
    obs_metrics.EVIDENCE_TILES.inc(len(kept))
    obs_metrics.EVIDENCE_PAIRS.inc(batch.n_pairs)
    if folded is not None:
        partial.add_tile(folded)
    return partial

