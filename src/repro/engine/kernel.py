"""The evidence kernel.

:class:`TileKernel` is the compute core of the tiled builder and of the
incremental delta builder: given a list of
:class:`~repro.engine.scheduler.Tile`-s it folds every pair of every tile
into the list's deduplicated evidence words, multiplicities and
tuple-participation histogram (one :class:`TilePartial`).  The fold is one
backend call: on the compiled backend, one native call evaluates each
pair's per-group category codes (one key word per pair for up to 32
groups of three distinct rows, whatever the space's word count),
deduplicates them in a table that lives for the call, counts participation
in the same pass, and only then decodes the distinct codes into evidence
words and sorts them canonically, so nothing returns to Python between
tiles.

The kernel is a *numpy-only* payload: building it resolves every
predicate group's comparison data — per-row order categories, float value
vectors, string factorization codes — and the per-category word masks up
front, so a fold reads a few flat arrays instead of the :class:`Relation`
and :class:`PredicateSpace` objects.  Preparation splits in two: the
space-only :class:`GroupPlan` (rules and lookups) and the per-row planes
it fills, which a growing relation extends row by row
(:class:`~repro.incremental.delta.RowPlanes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.evidence import n_words_for
from repro.core.operators import (
    SATISFIED_BY_CATEGORY,
    SATISFIED_BY_CATEGORY_STRING,
    OrderCategory,
)
from repro.core.predicates import PredicateForm
from repro.engine.partial import check_row_count
from repro.native import dispatch as native_dispatch

if TYPE_CHECKING:
    from repro.core.predicate_space import PredicateSpace
    from repro.data.relation import Relation
    from repro.engine.scheduler import Shard, Tile

_WORD_BITS = 64


@dataclass(frozen=True)
class TilePartial:
    """The deduplicated evidence contribution of one fold of tiles.

    ``words[k]`` occurred ``counts[k]`` times among the tiles' ordered
    pairs; the rows are distinct and in canonical lexicographic order.
    ``part_keys``/``part_counts`` encode the tuple-participation histogram
    with *fold-local* evidence ids (row indices of ``words``):
    ``part_keys = local_id << 32 | tuple_id``, aggregated over the fold and
    ascending.  The stride does not depend on the relation's size, so keys
    stay valid as the relation grows.
    :class:`~repro.engine.partial.PartialEvidenceSet` remaps the local ids
    to its own global ids on absorption.
    """

    words: np.ndarray
    counts: np.ndarray
    part_keys: np.ndarray | None
    part_counts: np.ndarray | None


#: Category rules of the fused tile pass (``kinds`` codes of ``tile_plane``
#: in :mod:`repro.native`): the category of a single-tuple group is stored
#: per row; numeric pairs compare values by sign; string pairs compare
#: factorization codes for equality.
SINGLE_TUPLE, NUMERIC_PAIR, STRING_PAIR = 0, 1, 2


@dataclass(frozen=True)
class GroupPlan:
    """The space-only half of kernel preparation.

    One entry per predicate group that sets any bit: its category rule
    (``kinds``), the column pair it compares, whether both columns are
    numeric, and its ``(3, n_words)`` category→word lookup (stacked into
    ``lookup``).  None of it depends on the rows, so a growing relation
    plans once and only :meth:`fill`-s the per-row planes of new rows.
    """

    kinds: np.ndarray
    columns: tuple[tuple[str, str], ...]
    numeric: tuple[bool, ...]
    lookup: np.ndarray

    @classmethod
    def of(cls, relation: "Relation", space: "PredicateSpace") -> "GroupPlan":
        """Plan every group of ``space`` over ``relation``'s schema."""
        kinds: list[int] = []
        columns: list[tuple[str, str]] = []
        numerics: list[bool] = []
        lookups: list[np.ndarray] = []
        for group in space.groups:
            left_column, right_column, form = group.key
            lookup = category_masks(space, group.indices, group.numeric)
            if not lookup.any():
                continue
            numeric = (
                relation.column(left_column).type.is_numeric
                and relation.column(right_column).type.is_numeric
            )
            if form is PredicateForm.SINGLE_TUPLE:
                kinds.append(SINGLE_TUPLE)
            else:
                kinds.append(NUMERIC_PAIR if numeric else STRING_PAIR)
            columns.append((left_column, right_column))
            numerics.append(numeric)
            lookups.append(lookup)
        n_words = n_words_for(len(space))
        return cls(
            np.asarray(kinds, dtype=np.int32),
            tuple(columns),
            tuple(numerics),
            np.asarray(lookups, dtype=np.uint64).reshape(len(kinds), 3, n_words),
        )

    def fill(self, relation: "Relation", a: np.ndarray, b: np.ndarray, start: int) -> None:
        """Write rows ``[start, n)`` of ``relation`` into the per-row planes.

        ``a``/``b`` are ``(G, >= n)`` float64 planes: a single-tuple group
        stores its per-row category in ``a``; a pair group stores the left
        and right comparison values (numbers, or string factorization codes,
        which float64 holds exactly) in ``a`` and ``b``.  Columns before
        ``start`` are left as they are, which is what makes the planes
        append-only: the relation's string codes are stable under appends,
        so rows planned earlier never need rewriting.
        """
        stop = relation.n_rows
        for g, (kind, (left, right), numeric) in enumerate(
            zip(self.kinds, self.columns, self.numeric)
        ):
            if numeric:
                left_values = relation.column(left).values[start:].astype(np.float64)
                right_values = relation.column(right).values[start:].astype(np.float64)
            else:
                left_codes, right_codes = relation.string_codes(left, right)
                left_values, right_values = left_codes[start:], right_codes[start:]
            if kind != SINGLE_TUPLE:
                a[g, start:stop] = left_values
                b[g, start:stop] = right_values
            elif numeric:
                # A missing value (NaN) falls in LESS, never an invalid index.
                a[g, start:stop] = np.nan_to_num(
                    np.sign(left_values - right_values) + 1, nan=OrderCategory.LESS
                )
            else:
                a[g, start:stop] = np.where(
                    left_values == right_values, OrderCategory.EQUAL, OrderCategory.LESS
                )


def category_masks(space: "PredicateSpace", indices: tuple[int, ...], numeric: bool) -> np.ndarray:
    """Per-category, per-word bitmasks for one predicate group.

    Returns an array of shape ``(3, n_words)`` (uint64) where entry
    ``[category, word]`` is the OR of the bits of the group's predicates
    satisfied in that category, restricted to that 64-bit word.
    """
    n_words = n_words_for(len(space))
    table = SATISFIED_BY_CATEGORY if numeric else SATISFIED_BY_CATEGORY_STRING
    masks = np.zeros((3, n_words), dtype=np.uint64)
    for category in OrderCategory:
        satisfied = table[category]
        for index in indices:
            if space[index].operator in satisfied:
                word, bit = divmod(index, _WORD_BITS)
                masks[category, word] |= np.uint64(1) << np.uint64(bit)
    return masks


def prepare_groups(
    relation: "Relation", space: "PredicateSpace"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve every predicate group over all rows of ``relation``.

    Returns ``(kinds, a, b, lookup)``: the :class:`GroupPlan`'s rules and
    lookups with freshly filled ``(G, n)`` per-row planes — the arrays the
    fused ``tile_plane`` pass reads.
    """
    plan = GroupPlan.of(relation, space)
    n_groups = len(plan.kinds)
    a = np.zeros((n_groups, relation.n_rows), dtype=np.float64)
    b = np.zeros((n_groups, relation.n_rows), dtype=np.float64)
    plan.fill(relation, a, b, 0)
    return plan.kinds, a, b, plan.lookup


class TileKernel:
    """Fold the evidence words of tiles of the ordered-pair matrix.

    Parameters
    ----------
    packed:
        ``(kinds, a, b, lookup)`` as returned by :func:`prepare_groups`:
        per-group category rules, the two ``(G, n_rows)`` float64 per-row
        planes (row-strided views of larger buffers are fine) and the
        ``(G, 3, n_words)`` category→words lookup.
    n_rows:
        Number of tuples of the relation.
    n_predicates:
        Size of the predicate space (determines the word width).
    include_participation:
        Whether :meth:`run` also aggregates the tuple-participation
        histogram needed by the f2/f3 approximation functions.
    """

    def __init__(
        self,
        packed: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        n_rows: int,
        n_predicates: int,
        include_participation: bool = True,
    ) -> None:
        self.n_rows = check_row_count(n_rows)
        self.n_predicates = int(n_predicates)
        self.n_words = n_words_for(n_predicates)
        self.include_participation = bool(include_participation)
        self._packed = packed

    @classmethod
    def from_relation(
        cls,
        relation: "Relation",
        space: "PredicateSpace",
        include_participation: bool = True,
    ) -> "TileKernel":
        """Resolve a relation/predicate-space pair into a compact kernel."""
        return cls(
            prepare_groups(relation, space),
            relation.n_rows,
            len(space),
            include_participation,
        )

    def _plane(self, tile: "Tile") -> np.ndarray:
        """The tile's per-pair evidence words, diagonal pairs included."""
        kinds, a, b, lookup = self._packed
        return native_dispatch.get_backend().kernels.tile_plane(
            kinds, a, b, lookup, tile.i0, tile.i1, tile.j0, tile.j1, self.n_words
        )

    def tile_words(self, tile: "Tile") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pair evidence words of one tile, with the pair's tuple ids.

        Returns ``(words, left_ids, right_ids)`` where ``words[k]`` is the
        packed evidence word row of the ordered pair
        ``(left_ids[k], right_ids[k])``; diagonal pairs are excluded.  This
        is the un-deduplicated view :meth:`run` folds — the violation
        serving layer replays it to reconstruct *which* pairs carry an
        evidence, something the deduplicated evidence set no longer knows.
        """
        i0, i1, j0, j1 = tile.i0, tile.i1, tile.j0, tile.j1
        flat = self._plane(tile)
        left_ids = np.repeat(np.arange(i0, i1, dtype=np.int64), j1 - j0)
        right_ids = np.tile(np.arange(j0, j1, dtype=np.int64), i1 - i0)
        keep = left_ids != right_ids
        if not keep.all():
            flat = flat[keep]
            left_ids = left_ids[keep]
            right_ids = right_ids[keep]
        return flat, left_ids, right_ids

    def run(self, tiles: "Shard") -> TilePartial | None:
        """Fold the :class:`Shard` ``tiles`` into one :class:`TilePartial`
        (``None`` if its tiles hold no pair).

        Diagonal pairs are skipped.  The whole list goes to the backend's
        ``fold_tiles`` in one call, so the cost of a fold follows its pairs,
        not its tile count.
        """
        bounds = np.array(
            [(tile.i0, tile.i1, tile.j0, tile.j1) for tile in tiles.tiles], dtype=np.int64
        ).reshape(-1, 4)
        kinds, a, b, lookup = self._packed
        folded = native_dispatch.get_backend().kernels.fold_tiles(
            kinds, a, b, lookup, bounds, self.n_words, self.include_participation
        )
        return None if folded is None else TilePartial(*folded)
