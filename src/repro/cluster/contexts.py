"""Work contexts: the payloads cluster workers execute tasks against.

A *context* is the expensive, shipped-once half of a submission; a *task*
is the tiny per-unit payload.  Workers call ``context.run(task)`` — any
picklable object with that method works, so new distributed workloads plug
into the coordinator without touching the transport or scheduling code.

:class:`TileFoldContext` is the evidence workload: the same
``(TileKernel, tiles)`` pair the serial builder folds, with
``(start, stop)`` shard ranges as tasks, each folded by
:func:`~repro.engine.parallel.fold_tiles`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.parallel import fold_tiles
from repro.engine.scheduler import shard_tiles

if TYPE_CHECKING:
    from repro.engine.kernel import TileKernel
    from repro.engine.partial import PartialEvidenceSet
    from repro.engine.scheduler import Tile


@dataclass
class TileFoldContext:
    """Fold the worker's kernel over ``tiles[start:stop]`` shard ranges.

    ``delay_per_task`` injects a sleep before each shard — a testing hook
    the chaos and straggler tests (and the benchmark's failure-injection
    sweep) use to hold a worker *mid-shard* long enough to kill it.
    """

    kernel: "TileKernel"
    tiles: tuple["Tile", ...]
    delay_per_task: float = 0.0

    def run(self, task: tuple[int, int]) -> "PartialEvidenceSet":
        if self.delay_per_task:
            time.sleep(self.delay_per_task)
        start, stop = task
        return fold_tiles(self.kernel, self.tiles[start:stop])

    def describe(self, task: tuple[int, int]) -> dict[str, int]:
        """Shard size metadata a traced worker attaches to its task span."""
        start, stop = task
        shard = self.tiles[start:stop]
        return {
            "tiles": len(shard),
            "pairs": sum(tile.n_pairs for tile in shard),
        }


def shard_tasks(
    tiles: tuple["Tile", ...], k: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """Balanced ``(start, stop)`` shard tasks plus their pair-count weights.

    Balanced by :func:`~repro.engine.scheduler.shard_tiles`; the weights
    drive the coordinator's largest-first assignment.
    """
    shards = shard_tiles(tiles, k)
    return (
        [(shard.start, shard.stop) for shard in shards],
        [shard.n_pairs for shard in shards],
    )
