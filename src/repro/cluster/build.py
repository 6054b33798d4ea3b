"""Cluster-backed evidence construction (``method="cluster"``).

The parallel twin of
:func:`~repro.core.evidence_builder.build_evidence_set_tiled`: the same
:class:`~repro.engine.kernel.TileKernel` and tile schedule, split into
pair-count-balanced shards, fanned over a
:class:`~repro.cluster.coordinator.ClusterCoordinator`, and reduced with a
balanced binary *merge tree* rather than a left fold.  Because
:meth:`PartialEvidenceSet.merge` is associative/commutative
and finalization orders evidences canonically, any transport, worker count,
failure schedule, or merge-tree shape finalizes bit-identically to the
serial tiled builder — the invariant the chaos tests and
``benchmarks/bench_cluster.py`` enforce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.contexts import TileFoldContext, shard_tasks
from repro.cluster.local import resolve_coordinator
from repro.core.evidence import EvidenceSet, n_words_for
from repro.engine.kernel import TileKernel
from repro.engine.parallel import SHARDS_PER_WORKER, parallel_tile_rows
from repro.engine.partial import PartialEvidenceSet
from repro.engine.scheduler import DEFAULT_MEMORY_BUDGET_BYTES, TileScheduler

if TYPE_CHECKING:
    from repro.core.predicate_space import PredicateSpace
    from repro.data.relation import Relation
    from repro.engine.scheduler import Tile


def merge_partials_tree(partials: list[PartialEvidenceSet]) -> PartialEvidenceSet:
    """Reduce partials with a balanced binary merge tree.

    A tree keeps every intermediate merge between partials of comparable
    size — ``O(log k)`` levels instead of the left fold's ``k`` sequential
    absorptions into one ever-growing accumulator — and is the shape a
    multi-level (per-rack, per-datacenter) reduction would use.  Any tree
    finalizes identically (property-tested in
    ``tests/test_engine_properties.py``).
    """
    if not partials:
        raise ValueError("cannot merge zero partials")
    layer = list(partials)
    while len(layer) > 1:
        merged = [
            layer[index].merge(layer[index + 1])
            for index in range(0, len(layer) - 1, 2)
        ]
        if len(layer) % 2:
            merged.append(layer[-1])
        layer = merged
    return layer[0]


def fold_tiles_cluster(
    kernel: TileKernel,
    tiles: tuple["Tile", ...],
    cluster: object,
) -> PartialEvidenceSet:
    """Fold kernel results over ``tiles`` on a cluster; one merged partial.

    The distributed counterpart of
    :func:`~repro.engine.parallel.fold_tiles`: tiles are balanced into
    ``SHARDS_PER_WORKER × n_workers`` shard ranges, the kernel ships
    once per worker inside the :class:`TileFoldContext`, and the returned
    partials are reduced with :func:`merge_partials_tree`.
    """
    coordinator = resolve_coordinator(cluster)
    tiles = tuple(tiles)
    if not tiles:
        return PartialEvidenceSet(
            kernel.n_rows, kernel.n_words, kernel.include_participation
        )
    n_workers = max(coordinator.n_alive, 1)
    tasks, weights = shard_tasks(tiles, SHARDS_PER_WORKER * n_workers)
    context = TileFoldContext(kernel, tiles)
    partials = coordinator.submit(context, tasks, weights)
    return merge_partials_tree(partials)


def build_evidence_set_cluster(
    relation: "Relation",
    space: "PredicateSpace",
    cluster: object,
    include_participation: bool = True,
    tile_rows: int | None = None,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> EvidenceSet:
    """Build ``Evi(D)`` over a worker cluster (``method="cluster"``).

    Parameters
    ----------
    relation:
        The database ``D`` (or a sample of it).
    space:
        Predicate space produced by
        :func:`repro.core.predicate_space.build_predicate_space`.
    cluster:
        A :class:`~repro.cluster.coordinator.ClusterCoordinator` with
        registered workers, or a :class:`~repro.cluster.local.LocalCluster`.
    include_participation:
        Whether to also build the per-evidence tuple-participation
        structure (needed by the f2/f3 approximation functions).
    tile_rows:
        Tile edge length; ``None`` (default) selects it adaptively from
        the memory budget, word width and worker count
        (:func:`~repro.engine.parallel.parallel_tile_rows`).
    memory_budget_bytes:
        Transient-memory budget shared by the workers' concurrent kernels.
    """
    coordinator = resolve_coordinator(cluster)
    n = relation.n_rows
    if n < 2:
        return EvidenceSet(space, [], [], n, [] if include_participation else None)
    n_words = n_words_for(len(space))
    if tile_rows is None:
        tile_rows = parallel_tile_rows(
            n, n_words, coordinator.n_alive, memory_budget_bytes
        )
    scheduler = TileScheduler(n, tile_rows=tile_rows, n_words=n_words)
    kernel = TileKernel.from_relation(relation, space, include_participation)
    return fold_tiles_cluster(kernel, scheduler.tiles(), coordinator).finalize(space)
