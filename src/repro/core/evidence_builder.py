"""Evidence-set construction over packed 64-bit predicate words.

Three builders are provided, all producing the packed
``(n_evidences, n_words)`` uint64 representation natively (no Python-int
round-trip anywhere):

* :func:`build_evidence_set_tiled` — the default builder.  It folds the
  square tile grid of the pair matrix
  (:func:`~repro.engine.scheduler.block_tiles`) through the engine's
  :class:`~repro.engine.kernel.TileKernel` in one backend call, into a
  :class:`~repro.engine.partial.PartialEvidenceSet`.  Beyond its distinct
  evidences, the compiled fold holds one uint32 evidence id per pair of
  its largest tile (when it counts participation) plus fixed per-block
  scratch, never the dense builder's ``O(n_words * n^2)``.  The tile edge
  follows the word width when not given
  (:func:`repro.engine.scheduler.choose_tile_rows`).
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

from repro.core.bitset import n_words_for_bits
from repro.core.evidence import (
    EvidenceSet,
    evidence_from_pair_masks,
    unique_word_rows,
)
from repro.core.operators import OrderCategory
from repro.core.predicate_space import PredicateSpace
from repro.data.relation import Relation
from repro.engine.kernel import (
    NUMERIC_PAIR,
    SINGLE_TUPLE,
    TileKernel,
    fold_tiles,
    prepare_groups,
)
from repro.engine.partial import participation_csr, participation_from_pairs
from repro.engine.scheduler import block_tiles, choose_tile_rows

#: All evidence construction methods accepted by :func:`build_evidence_set`.
EVIDENCE_METHODS = ("tiled", "dense", "pairwise")


def build_evidence_set(
    relation: Relation,
    space: PredicateSpace,
    include_participation: bool = True,
    method: str = "tiled",
    tile_rows: int | None = None,
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
        ``"tiled"`` (default), ``"dense"`` (the full-plane oracle) or
        ``"pairwise"`` (the naive AFASTDC-style oracle).
    tile_rows:
        Tile edge length of the tiled builder; ``None`` (default) selects
        it from the evidence word width.
    """
    if method == "tiled":
        return build_evidence_set_tiled(
            relation,
            space,
            include_participation=include_participation,
            tile_rows=tile_rows,
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
) -> EvidenceSet:
    """Build ``Evi(D)`` by folding row-tile pairs (the default).

    The ordered-pair matrix is cut into ``tile_rows x tile_rows`` blocks
    (:func:`~repro.engine.scheduler.block_tiles`), which the engine's
    :class:`~repro.engine.kernel.TileKernel` folds in one call into a
    :class:`~repro.engine.partial.PartialEvidenceSet`, so no ``n x n``
    array is ever allocated.  When ``tile_rows`` is ``None`` the edge is
    chosen from the word width (:func:`~repro.engine.scheduler.choose_tile_rows`).
    """
    n = relation.n_rows
    if n < 2:
        return _no_evidence(space, n, include_participation)
    if tile_rows is None:
        tile_rows = choose_tile_rows(n, n_words_for_bits(len(space)))
    tiles = block_tiles((0, n), (0, n), tile_rows)
    kernel = TileKernel.from_relation(relation, space, include_participation)
    return fold_tiles(kernel, tiles).finalize(space)


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
        return _no_evidence(space, n, include_participation)

    n_words = n_words_for_bits(len(space))
    plane = np.zeros((n, n, n_words), dtype=np.uint64)
    for kind, left, right, masks in zip(*prepare_groups(relation, space)):
        plane |= masks[_dense_categories(kind, left, right)]

    off_diagonal = ~np.eye(n, dtype=bool)
    flat_words = plane[off_diagonal]
    unique_words, inverse, counts = unique_word_rows(flat_words)

    participation = None
    if include_participation:
        row_index, col_index = np.nonzero(off_diagonal)
        participation = participation_from_pairs(
            inverse, row_index, col_index, len(unique_words)
        )
    return EvidenceSet(
        space, counts=counts, n_rows=n, participation=participation, words=unique_words
    )


def _no_evidence(space: PredicateSpace, n: int, include_participation: bool) -> EvidenceSet:
    """The evidence set of a relation with fewer than two rows."""
    empty = np.zeros(0, dtype=np.int64)
    participation = participation_csr(empty, empty, 0) if include_participation else None
    return EvidenceSet(space, [], [], n, participation)


def _dense_categories(kind: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The ``(n, n)`` order-category matrix of one prepared group.

    Evaluated here on its own rather than through the engine's tile pass,
    so the dense oracle checks that pass instead of sharing it.
    """
    n = len(left)
    if kind == SINGLE_TUPLE:
        return np.broadcast_to(left.astype(np.int8)[:, None], (n, n))
    if kind == NUMERIC_PAIR:
        diff = left[:, None] - right[None, :]
        return np.select(
            [diff < 0, diff == 0],
            [OrderCategory.LESS, OrderCategory.EQUAL],
            OrderCategory.GREATER,
        ).astype(np.int8)
    equal = left[:, None] == right[None, :]
    return np.where(equal, OrderCategory.EQUAL, OrderCategory.LESS).astype(np.int8)


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
