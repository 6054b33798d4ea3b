"""The picklable per-tile evidence kernel.

:class:`TileKernel` is the compute core of both the serial tiled builder
and the cluster builder: given one :class:`~repro.engine.scheduler.Tile`
it produces that block's deduplicated evidence words, multiplicities and
tuple-participation histogram (a :class:`TilePartial`).

The kernel is deliberately a *numpy-only* payload: building it
(:meth:`TileKernel.from_relation`) resolves every predicate group's
comparison data — per-row order categories, float value vectors, string
factorization codes — and the per-category word masks up front, so worker
processes receive a few flat arrays instead of the :class:`Relation` and
:class:`PredicateSpace` objects.  It is pickled once per worker (inside
the cluster's work context), after which tasks are plain ``(start, stop)``
shard ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.evidence import n_words_for, unique_word_rows
from repro.core.operators import (
    SATISFIED_BY_CATEGORY,
    SATISFIED_BY_CATEGORY_STRING,
    OrderCategory,
)
from repro.core.predicates import PredicateForm
from repro.engine.partial import check_row_count, participation_keys
from repro.native import dispatch as native_dispatch

if TYPE_CHECKING:
    from repro.core.predicate_space import PredicateSpace
    from repro.data.relation import Relation
    from repro.engine.scheduler import Tile

_WORD_BITS = 64


@dataclass(frozen=True)
class TilePartial:
    """One tile's deduplicated evidence contribution.

    ``words[k]`` occurred ``counts[k]`` times among the tile's ordered
    pairs.  ``part_keys``/``part_counts`` encode the tuple-participation
    histogram with *tile-local* evidence ids:
    ``part_keys = local_id << 32 | tuple_id``, pre-aggregated within the
    tile.  The stride does not depend on the relation's size, so keys stay
    valid as the relation grows.
    :class:`~repro.engine.partial.PartialEvidenceSet` remaps the local ids
    to its own global ids on absorption.
    """

    words: np.ndarray
    counts: np.ndarray
    part_keys: np.ndarray | None
    part_counts: np.ndarray | None


class PreparedGroup:
    """One predicate group with its comparison data resolved up front.

    ``tile_categories(i0, i1, j0, j1)`` returns the
    :class:`OrderCategory` matrix of the ordered pairs
    ``(t_i, t_j), i in [i0, i1), j in [j0, j1)`` — the per-tile slice of
    the dense builder's category matrix, computed without materialising it.
    Subclasses hold only numpy arrays, so every prepared group pickles
    cheaply into worker processes.
    """

    def __init__(self, lookup: np.ndarray) -> None:
        self.lookup = lookup

    def tile_categories(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        raise NotImplementedError


class SingleTupleGroup(PreparedGroup):
    """``t[A] op t[B]``: the category depends only on the left row."""

    def __init__(self, lookup: np.ndarray, per_row: np.ndarray) -> None:
        super().__init__(lookup)
        self.per_row = per_row

    def tile_categories(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        return np.broadcast_to(self.per_row[i0:i1, None], (i1 - i0, j1 - j0))


class NumericPairGroup(PreparedGroup):
    """Numeric ``t[A] op t'[B]``: sign of the value difference."""

    def __init__(self, lookup: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
        super().__init__(lookup)
        self.left = left
        self.right = right

    def tile_categories(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        sign = np.sign(self.left[i0:i1, None] - self.right[None, j0:j1])
        return (sign + 1).astype(np.int8)


class StringPairGroup(PreparedGroup):
    """String ``t[A] op t'[B]``: equality of factorization codes."""

    def __init__(self, lookup: np.ndarray, left_codes: np.ndarray, right_codes: np.ndarray) -> None:
        super().__init__(lookup)
        self.left_codes = left_codes
        self.right_codes = right_codes

    def tile_categories(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        equal = self.left_codes[i0:i1, None] == self.right_codes[None, j0:j1]
        categories = np.full(equal.shape, OrderCategory.LESS, dtype=np.int8)
        categories[equal] = OrderCategory.EQUAL
        return categories


def prepare_groups(relation: "Relation", space: "PredicateSpace") -> list[PreparedGroup]:
    """Resolve every predicate group's comparison data and word lookup."""
    prepared: list[PreparedGroup] = []
    for group in space.groups:
        left_column, right_column, form = group.key
        lookup = category_masks(space, group.indices, group.numeric)
        if not lookup.any():
            continue
        left = relation.column(left_column)
        right = relation.column(right_column)
        numeric = left.type.is_numeric and right.type.is_numeric

        if form is PredicateForm.SINGLE_TUPLE:
            per_row = row_categories(relation, left_column, right_column, numeric)
            prepared.append(SingleTupleGroup(lookup, per_row))
        elif numeric:
            prepared.append(
                NumericPairGroup(
                    lookup,
                    left.values.astype(np.float64, copy=False),
                    right.values.astype(np.float64, copy=False),
                )
            )
        else:
            left_codes, right_codes = relation.string_codes(left_column, right_column)
            prepared.append(StringPairGroup(lookup, left_codes, right_codes))
    return prepared


def row_categories(
    relation: "Relation", left_column: str, right_column: str, numeric: bool
) -> np.ndarray:
    """Per-row order category for single-tuple predicates ``t[A] op t[B]``."""
    left = relation.column(left_column).values
    right = relation.column(right_column).values
    if numeric:
        sign = np.sign(left.astype(np.float64) - right.astype(np.float64))
        return (sign + 1).astype(np.int8)
    left_codes, right_codes = relation.string_codes(left_column, right_column)
    categories = np.full(len(left_codes), OrderCategory.LESS, dtype=np.int8)
    categories[left_codes == right_codes] = OrderCategory.EQUAL
    return categories


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


class TileKernel:
    """Evaluate the evidence words of one tile of the ordered-pair matrix.

    Parameters
    ----------
    groups:
        Prepared predicate groups (see :func:`prepare_groups`).
    n_rows:
        Number of tuples of the relation.
    n_predicates:
        Size of the predicate space (determines the word width).
    include_participation:
        Whether :meth:`run` also aggregates the tuple-participation
        histogram needed by the f2/f3 approximation functions.
    """

    #: Group-class → kernel category-rule code of the fused native tile
    #: pass (see ``tile_plane`` in :mod:`repro.native`).  Unknown
    #: :class:`PreparedGroup` subclasses force the per-group numpy loop.
    _NATIVE_KINDS = {SingleTupleGroup: 0, NumericPairGroup: 1, StringPairGroup: 2}

    def __init__(
        self,
        groups: list[PreparedGroup],
        n_rows: int,
        n_predicates: int,
        include_participation: bool = True,
    ) -> None:
        self.groups = groups
        self.n_rows = check_row_count(n_rows)
        self.n_predicates = int(n_predicates)
        self.n_words = n_words_for(n_predicates)
        self.include_participation = bool(include_participation)
        self._packed = self._pack_groups()

    def _pack_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Flatten the groups for the one-call tile kernel.

        Returns ``(kinds, a, b, lookup)`` — per-group category-rule codes,
        the two ``(G, n_rows)`` float64 comparison planes and the contiguous
        ``(G, 3, n_words)`` category→words lookup — or ``None`` when any
        group is not one of the three standard classes (the per-group
        fallback then evaluates custom ``tile_categories`` overrides).
        """
        kinds = []
        for group in self.groups:
            kind = self._NATIVE_KINDS.get(type(group))
            if kind is None:
                return None
            kinds.append(kind)
        n_groups = len(self.groups)
        a = np.zeros((n_groups, self.n_rows), dtype=np.float64)
        b = np.zeros((n_groups, self.n_rows), dtype=np.float64)
        lookup = np.zeros((n_groups, 3, self.n_words), dtype=np.uint64)
        for g, (group, kind) in enumerate(zip(self.groups, kinds)):
            lookup[g] = group.lookup
            if kind == 0:
                a[g] = group.per_row
            elif kind == 1:
                a[g] = group.left
                b[g] = group.right
            else:
                # Factorization codes are small ints; float64 holds them
                # exactly, so equality of codes == equality of doubles.
                a[g] = group.left_codes
                b[g] = group.right_codes
        return np.asarray(kinds, dtype=np.int32), a, b, lookup

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

    def tile_words(self, tile: "Tile") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pair evidence words of one tile, with the pair's tuple ids.

        Returns ``(words, left_ids, right_ids)`` where ``words[k]`` is the
        packed evidence word row of the ordered pair
        ``(left_ids[k], right_ids[k])``; diagonal pairs are excluded.  This
        is the un-deduplicated view :meth:`run` aggregates — the violation
        serving layer replays it to reconstruct *which* pairs carry an
        evidence, something the deduplicated evidence set no longer knows.
        """
        i0, i1, j0, j1 = tile.i0, tile.i1, tile.j0, tile.j1
        if self._packed is not None:
            kinds, a, b, lookup = self._packed
            flat = native_dispatch.get_backend().kernels.tile_plane(
                kinds, a, b, lookup, i0, i1, j0, j1, self.n_words
            )
        else:
            plane = np.zeros((i1 - i0, j1 - j0, self.n_words), dtype=np.uint64)
            for group in self.groups:
                categories = group.tile_categories(i0, i1, j0, j1)
                plane |= group.lookup[categories]
            flat = plane.reshape(-1, self.n_words)
        left_ids = np.repeat(np.arange(i0, i1, dtype=np.int64), j1 - j0)
        right_ids = np.tile(np.arange(j0, j1, dtype=np.int64), i1 - i0)
        keep = left_ids != right_ids
        if not keep.all():
            flat = flat[keep]
            left_ids = left_ids[keep]
            right_ids = right_ids[keep]
        return flat, left_ids, right_ids

    def run(self, tile: "Tile") -> TilePartial | None:
        """Compute one tile's :class:`TilePartial` (``None`` if empty)."""
        flat, left_ids, right_ids = self.tile_words(tile)
        if not len(flat):
            return None

        unique_words, inverse, counts = unique_word_rows(flat)
        part_keys = part_counts = None
        if self.include_participation:
            keys = np.concatenate([
                participation_keys(inverse, left_ids),
                participation_keys(inverse, right_ids),
            ])
            part_keys, part_counts = np.unique(keys, return_counts=True)
        return TilePartial(unique_words, counts, part_keys, part_counts)
