"""Evidence-set construction over packed 64-bit predicate words.

Three builders are provided, all producing the packed
``(n_evidences, n_words)`` uint64 representation natively (no Python-int
round-trip anywhere):

* :func:`build_evidence_set_tiled` — the default builder.  It runs the
  engine's picklable :class:`~repro.engine.kernel.TileKernel` serially over
  the :class:`~repro.engine.scheduler.TileScheduler`'s row-tile schedule,
  folding every tile's distinct evidences into a
  :class:`~repro.engine.partial.PartialEvidenceSet`.  Peak memory is
  ``O(n_words * tile_rows^2)`` instead of the dense builder's
  ``O(n_words * n^2)``; the tile edge is chosen adaptively from a memory
  budget when not given (:func:`repro.engine.scheduler.choose_tile_rows`).
  Its parallel twin, :func:`repro.cluster.build.build_evidence_set_cluster`
  (``method="cluster"``), folds the same kernel and schedule over a
  worker cluster and is bit-identical by construction.
* :func:`build_evidence_set_dense` — the original dense builder
  materialising full ``n x n`` category matrices and word planes.  Retained
  behind a flag as a correctness oracle and for benchmarking.
* :func:`build_evidence_set_pairwise` — the naive row-by-row builder of
  FASTDC/AFASTDC [11], kept both as a correctness oracle for tests and as
  the evidence-construction baseline timed in Figures 7 and 8.

All builders emit evidences in the canonical lexicographic word order of
:func:`repro.core.evidence.lexsort_word_rows`, so their outputs are
bit-identical (words, multiplicities, participation), not merely equal as
multisets.  :func:`build_evidence_set` dispatches between them by
``method`` and is what the pipeline entry points call.
"""

from __future__ import annotations

import numpy as np

from repro.core.evidence import (
    EvidenceSet,
    evidence_from_pair_masks,
    n_words_for,
    unique_word_rows,
)
from repro.core.predicate_space import PredicateSpace
from repro.data.relation import Relation
from repro.engine.kernel import TileKernel, prepare_groups
from repro.engine.parallel import fold_tiles
from repro.engine.partial import participation_keys, split_participation
from repro.engine.scheduler import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    TileScheduler,
    choose_tile_rows,
)

#: All evidence construction methods accepted by :func:`build_evidence_set`.
EVIDENCE_METHODS = ("tiled", "cluster", "dense", "pairwise")


def build_evidence_set(
    relation: Relation,
    space: PredicateSpace,
    include_participation: bool = True,
    method: str = "tiled",
    tile_rows: int | None = None,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    cluster: object | None = None,
) -> EvidenceSet:
    """Build ``Evi(D)``, dispatching to the requested builder.

    Parameters
    ----------
    relation:
        The database ``D`` (or a sample of it).
    space:
        Predicate space produced by
        :func:`repro.core.predicate_space.build_predicate_space`.
    include_participation:
        Whether to also build the per-evidence tuple-participation structure
        (needed by the f2/f3 approximation functions; costs one extra pass).
    method:
        ``"tiled"`` (default, serial), ``"cluster"`` (the same tiles
        folded over the workers of :mod:`repro.cluster`; requires
        ``cluster=``), ``"dense"`` (the full-plane oracle) or
        ``"pairwise"`` (the naive AFASTDC-style oracle).
    tile_rows:
        Tile edge length of the tiled/cluster builders; ``None``
        (default) selects it adaptively from the memory budget.
    memory_budget_bytes:
        Transient-memory budget driving the adaptive tile size.
    cluster:
        A :class:`~repro.cluster.coordinator.ClusterCoordinator` or
        :class:`~repro.cluster.local.LocalCluster` carrying the workers of
        the ``"cluster"`` method; ignored by the other methods.
    """
    if method == "tiled":
        return build_evidence_set_tiled(
            relation,
            space,
            include_participation=include_participation,
            tile_rows=tile_rows,
            memory_budget_bytes=memory_budget_bytes,
        )
    if method == "cluster":
        if cluster is None:
            raise ValueError(
                "method='cluster' needs a cluster= coordinator "
                "(e.g. repro.cluster.LocalCluster)"
            )
        # Imported lazily: repro.cluster pulls in the whole fabric (and, via
        # the enumeration context, this very module), which non-cluster
        # builds should neither pay for nor cycle through.
        from repro.cluster.build import build_evidence_set_cluster

        return build_evidence_set_cluster(
            relation,
            space,
            cluster,
            include_participation=include_participation,
            tile_rows=tile_rows,
            memory_budget_bytes=memory_budget_bytes,
        )
    if method == "dense":
        return build_evidence_set_dense(
            relation, space, include_participation=include_participation
        )
    if method == "pairwise":
        return build_evidence_set_pairwise(
            relation, space, include_participation=include_participation
        )
    raise ValueError(
        f"unknown evidence construction method {method!r}; "
        f"valid methods are {', '.join(EVIDENCE_METHODS)}"
    )


def build_evidence_set_tiled(
    relation: Relation,
    space: PredicateSpace,
    include_participation: bool = True,
    tile_rows: int | None = None,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> EvidenceSet:
    """Build ``Evi(D)`` by streaming over row-tile pairs (the default).

    The ordered-pair matrix is processed in ``tile_rows x tile_rows``
    blocks (:class:`~repro.engine.scheduler.TileScheduler`); every block is
    evaluated by the engine's :class:`~repro.engine.kernel.TileKernel` with
    the same broadcasting as the dense builder restricted to the block's
    rows/columns, then folded into a running
    :class:`~repro.engine.partial.PartialEvidenceSet`, so no ``n x n``
    array is ever allocated.  When ``tile_rows`` is ``None`` the edge is
    chosen adaptively so one kernel fits ``memory_budget_bytes``.
    """
    n = relation.n_rows
    if n < 2:
        return EvidenceSet(space, [], [], n, [] if include_participation else None)
    n_words = n_words_for(len(space))
    if tile_rows is None:
        tile_rows = choose_tile_rows(n, n_words, memory_budget_bytes)
    scheduler = TileScheduler(n, tile_rows=tile_rows, n_words=n_words)
    kernel = TileKernel.from_relation(relation, space, include_participation)
    return fold_tiles(kernel, scheduler.tiles()).finalize(space)


def build_evidence_set_dense(
    relation: Relation,
    space: PredicateSpace,
    include_participation: bool = True,
) -> EvidenceSet:
    """Build ``Evi(D)`` with full ``n x n`` word planes (the dense oracle).

    This is the original DCFinder-style strategy materialising one dense
    plane per 64-bit word.  It is kept behind the ``method="dense"`` flag as
    a correctness oracle for the tiled builder and for memory benchmarking;
    the tiled builder computes exactly the same planes tile by tile.
    """
    n = relation.n_rows
    if n < 2:
        return EvidenceSet(space, [], [], n, [] if include_participation else None)

    n_words = n_words_for(len(space))
    groups = prepare_groups(relation, space)
    plane = np.zeros((n, n, n_words), dtype=np.uint64)
    for group in groups:
        categories = group.tile_categories(0, n, 0, n)
        plane |= group.lookup[categories]

    off_diagonal = ~np.eye(n, dtype=bool)
    flat_words = plane[off_diagonal]
    unique_words, inverse, counts = unique_word_rows(flat_words)

    participation = None
    if include_participation:
        row_index, col_index = np.nonzero(off_diagonal)
        participation = _build_participation(inverse, row_index, col_index, len(unique_words))
    return EvidenceSet(
        space, counts=counts, n_rows=n, participation=participation, words=unique_words
    )


def build_evidence_set_pairwise(
    relation: Relation,
    space: PredicateSpace,
    include_participation: bool = True,
) -> EvidenceSet:
    """Build ``Evi(D)`` by evaluating every predicate on every ordered pair.

    This is the quadratic, per-pair strategy of AFASTDC [11]; it is orders of
    magnitude slower than the tiled builder but trivially correct, so it
    doubles as the reference implementation in the test suite.
    """
    n = relation.n_rows
    rows = [relation.row(i) for i in range(n)]
    pair_masks: list[int] = []
    pair_tuples: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            mask = 0
            for index, predicate in enumerate(space.predicates):
                if predicate.evaluate(rows[i], rows[j]):
                    mask |= 1 << index
            pair_masks.append(mask)
            pair_tuples.append((i, j))
    return evidence_from_pair_masks(
        space,
        pair_masks,
        n,
        pair_tuples if include_participation else None,
    )


def _build_participation(
    inverse: np.ndarray,
    row_index: np.ndarray,
    col_index: np.ndarray,
    n_evidences: int,
):
    """Aggregate the ``vios`` structure from the per-pair evidence ids."""
    keys = np.concatenate([
        participation_keys(inverse, row_index),
        participation_keys(inverse, col_index),
    ])
    unique_keys, key_counts = np.unique(keys, return_counts=True)
    return split_participation(unique_keys, key_counts, n_evidences)
