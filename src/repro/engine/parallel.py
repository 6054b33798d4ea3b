"""The tile fold shared by every evidence builder.

:func:`fold_tiles` hands a whole tile sequence to one
:meth:`~repro.engine.kernel.TileKernel.run` call — on the compiled backend
one native call, however many tiles — and absorbs the fold's single
result into a :class:`~repro.engine.partial.PartialEvidenceSet`: one
intern of the fold's distinct evidences, not one per tile.  The serial tiled
builder and the incremental delta builder call it in-process; cluster
workers (:class:`~repro.cluster.contexts.TileFoldContext`) call it on their
shard of the schedule.  Because the merge is associative/commutative and
finalization orders evidences canonically, every split of the schedule
finalizes bit-identically to the serial fold.

:func:`parallel_tile_rows` sizes the tiles when several kernels run at
once (the cluster's workers).
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING

from repro.engine.kernel import TileKernel
from repro.engine.partial import PartialEvidenceSet
from repro.engine.scheduler import Shard, choose_tile_rows
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:
    from repro.engine.scheduler import Tile

#: Shards issued per concurrent kernel; >1 smooths load imbalance from
#: tiles whose evidence distributions dedup at different speeds, and
#: re-balances naturally after a cluster worker dies.
SHARDS_PER_WORKER = 2


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
    # Tile-throughput metrics: in cluster workers these land in the worker
    # process's own registry; serial in-process folds report here directly.
    fold_start = time.perf_counter()
    folded = kernel.run(batch)
    obs_metrics.EVIDENCE_TILE_SECONDS.observe(time.perf_counter() - fold_start)
    obs_metrics.EVIDENCE_TILES.inc(len(kept))
    obs_metrics.EVIDENCE_PAIRS.inc(batch.n_pairs)
    if folded is not None:
        partial.add_tile(folded)
    return partial


def parallel_tile_rows(
    n_rows: int, n_words: int, n_workers: int, memory_budget_bytes: int
) -> int:
    """Adaptive tile edge for ``n_workers`` concurrent kernels.

    One kernel gets the serial edge of
    :func:`~repro.engine.scheduler.choose_tile_rows`.  For more, the memory
    budget is split across the workers (each runs its own kernel
    concurrently), and the edge is additionally capped so the grid has at
    least ``SHARDS_PER_WORKER * n_workers`` tiles — otherwise a large
    budget would yield one giant tile and no parallelism.
    """
    if n_workers <= 1:
        return choose_tile_rows(n_rows, n_words, memory_budget_bytes)
    per_worker_budget = max(1, memory_budget_bytes // n_workers)
    tile_rows = choose_tile_rows(n_rows, n_words, per_worker_budget)
    grid = math.ceil(math.sqrt(SHARDS_PER_WORKER * n_workers))
    target_edge = math.ceil(n_rows / grid)
    return max(1, min(tile_rows, target_edge))
