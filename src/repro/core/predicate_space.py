"""Predicate space generation.

The predicate space ``P_R`` is the set of predicates a denial constraint over
relation ``R`` may use.  Following Chu et al. [11] and the paper's Section
4.2 (component 1 of ADCMiner) the generator emits:

* ``t[A] op t'[A]`` for every attribute ``A``;
* ``t[A] op t[B]`` and ``t[A] op t'[B]`` for attribute pairs ``A != B`` of
  the same type that share at least 30% of their values;
* order operators only for numeric attributes, equality operators for all.

The resulting :class:`PredicateSpace` assigns every predicate a stable index
used as a bit position by the evidence set and the enumeration algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.operators import NUMERIC_OPERATORS, STRING_OPERATORS
from repro.core.predicates import Predicate, PredicateForm
from repro.data.relation import Column, Relation

#: Minimum fraction of shared values for cross-attribute predicates
#: (the 30% rule of [11, 37], quoted in Section 4.2 of the paper).
DEFAULT_SHARED_VALUE_THRESHOLD = 0.3


@dataclass(frozen=True)
class PredicateSpaceConfig:
    """Tunable knobs of predicate space generation.

    Attributes
    ----------
    shared_value_threshold:
        Minimum fraction of common values two distinct attributes must share
        for cross-attribute predicates to be generated (0.3 in the paper).
    include_cross_column:
        Whether to generate cross-attribute predicates at all.
    include_single_tuple:
        Whether to generate single-tuple predicates ``t[A] op t[B]``.
    max_predicates:
        Safety cap on the size of the space; exceeded caps raise.
    """

    shared_value_threshold: float = DEFAULT_SHARED_VALUE_THRESHOLD
    include_cross_column: bool = True
    include_single_tuple: bool = True
    max_predicates: int = 4096


@dataclass(frozen=True)
class PredicateGroup:
    """All predicates over one column pair + structural form."""

    key: tuple[str, str, PredicateForm]
    indices: tuple[int, ...]
    numeric: bool


class PredicateSpace:
    """An indexed predicate space.

    The space behaves like an immutable sequence of :class:`Predicate`
    objects and provides the index arithmetic (complements, groups, bitmask
    helpers) the evidence builder and the enumerators rely on.
    """

    def __init__(self, predicates: Sequence[Predicate]) -> None:
        self._predicates: tuple[Predicate, ...] = tuple(predicates)
        self._index: dict[Predicate, int] = {}
        for position, predicate in enumerate(self._predicates):
            if predicate in self._index:
                raise ValueError(f"duplicate predicate in space: {predicate}")
            self._index[predicate] = position
        self._complements: list[int | None] = []
        for predicate in self._predicates:
            self._complements.append(self._index.get(predicate.complement))
        groups: dict[tuple[str, str, PredicateForm], list[int]] = {}
        for position, predicate in enumerate(self._predicates):
            groups.setdefault(predicate.group_key, []).append(position)
        self._groups: dict[tuple[str, str, PredicateForm], PredicateGroup] = {}
        group_mask_by_key: dict[tuple[str, str, PredicateForm], int] = {}
        for key, indices in groups.items():
            numeric = any(self._predicates[i].operator.is_order for i in indices)
            self._groups[key] = PredicateGroup(key, tuple(indices), numeric)
            mask = 0
            for member in indices:
                mask |= 1 << member
            group_mask_by_key[key] = mask
        # Per-index caches the enumerators read once per hit branch: the
        # group bitmask of every predicate and the complement index table
        # (-1 marks a predicate whose complement is outside the space).
        self._group_masks: tuple[int, ...] = tuple(
            group_mask_by_key[predicate.group_key] for predicate in self._predicates
        )
        self._complement_index_array = np.array(
            [c if c is not None else -1 for c in self._complements], dtype=np.int64
        )
        self._complement_index_array.setflags(write=False)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._predicates)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self._predicates)

    def __getitem__(self, index: int) -> Predicate:
        return self._predicates[index]

    def __contains__(self, predicate: Predicate) -> bool:
        return predicate in self._index

    @property
    def predicates(self) -> tuple[Predicate, ...]:
        """All predicates in index order."""
        return self._predicates

    # ------------------------------------------------------------------
    # Index arithmetic
    # ------------------------------------------------------------------
    def index_of(self, predicate: Predicate) -> int:
        """Index of ``predicate`` in the space."""
        try:
            return self._index[predicate]
        except KeyError:
            raise KeyError(f"predicate not in space: {predicate}") from None

    def complement_index(self, index: int) -> int:
        """Index of the complement of the predicate at ``index``."""
        complement = self._complements[index]
        if complement is None:
            raise KeyError(
                f"complement of {self._predicates[index]} is not in the space"
            )
        return complement

    def complement_mask(self, mask: int) -> int:
        """Bitmask of the complements of all predicates in ``mask``."""
        result = 0
        for index in iter_bits(mask):
            result |= 1 << self.complement_index(index)
        return result

    def group_mask(self, index: int) -> int:
        """Bitmask of all predicates sharing the group of ``index`` (cached)."""
        return self._group_masks[index]

    @property
    def group_masks(self) -> tuple[int, ...]:
        """Per-index group bitmasks, precomputed at construction."""
        return self._group_masks

    @property
    def complement_indices(self) -> np.ndarray:
        """Read-only int64 array mapping each index to its complement's index.

        Entries are ``-1`` for predicates whose complement is not in the
        space (:meth:`complement_index` raises for those).
        """
        return self._complement_index_array

    @property
    def groups(self) -> tuple[PredicateGroup, ...]:
        """All predicate groups."""
        return tuple(self._groups.values())

    # ------------------------------------------------------------------
    # Bitmask helpers
    # ------------------------------------------------------------------
    def mask_of(self, predicates: Iterable[Predicate]) -> int:
        """Bitmask of a collection of predicates."""
        mask = 0
        for predicate in predicates:
            mask |= 1 << self.index_of(predicate)
        return mask

    def predicates_of(self, mask: int) -> tuple[Predicate, ...]:
        """Predicates whose bits are set in ``mask``."""
        return tuple(self._predicates[index] for index in iter_bits(mask))

    def describe(self) -> str:
        """Human readable rendering of the whole space."""
        lines = [f"predicate space: {len(self)} predicates, {len(self._groups)} groups"]
        for position, predicate in enumerate(self._predicates):
            lines.append(f"  [{position:>3}] {predicate}")
        return "\n".join(lines)


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate over the positions of the set bits of a Python int."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_predicate_space(
    relation: Relation,
    config: PredicateSpaceConfig | None = None,
) -> PredicateSpace:
    """Generate the predicate space of a relation.

    This is the ``GeneratePSpace`` component of ADCMiner (Figure 1, line 1).
    """
    config = config or PredicateSpaceConfig()
    predicates: list[Predicate] = []

    columns = relation.columns
    for column in columns:
        operators = NUMERIC_OPERATORS if column.type.is_numeric else STRING_OPERATORS
        for op in operators:
            predicates.append(
                Predicate(column.name, op, column.name, PredicateForm.TWO_TUPLE_SAME_COLUMN)
            )

    if config.include_cross_column or config.include_single_tuple:
        # Each column's distinct values, built once for this call only: a
        # column takes part in up to n_columns - 1 comparisons.
        value_sets: dict[str, set[object]] = {}

        def values_of(column: Column) -> set[object]:
            if column.name not in value_sets:
                value_sets[column.name] = column.value_set()
            return value_sets[column.name]

        for left_position, left in enumerate(columns):
            for right in columns[left_position + 1:]:
                # Cross-attribute predicates need compatible types and at
                # least shared_value_threshold of shared values (the 30% rule).
                if left.type.is_numeric != right.type.is_numeric:
                    continue
                fraction = _shared_fraction(values_of(left), values_of(right))
                if fraction < config.shared_value_threshold:
                    continue
                numeric = left.type.is_numeric and right.type.is_numeric
                operators = NUMERIC_OPERATORS if numeric else STRING_OPERATORS
                if config.include_single_tuple:
                    for op in operators:
                        predicates.append(
                            Predicate(left.name, op, right.name, PredicateForm.SINGLE_TUPLE)
                        )
                if config.include_cross_column:
                    for op in operators:
                        predicates.append(
                            Predicate(left.name, op, right.name, PredicateForm.TWO_TUPLE_CROSS_COLUMN)
                        )

    if len(predicates) > config.max_predicates:
        raise ValueError(
            f"predicate space of size {len(predicates)} exceeds the configured cap "
            f"of {config.max_predicates}"
        )
    return PredicateSpace(predicates)


def shared_value_fraction(relation: Relation, left: str, right: str) -> float:
    """Fraction of shared distinct values between two columns.

    This is the quantity behind the paper's 30% rule (Section 4.2, item 1):
    predicates comparing two *different* attributes are only generated when
    the attributes share at least 30% of their values.  Following FASTDC, the
    fraction is computed w.r.t. the smaller active domain so that a column
    whose values are a subset of another's qualifies.
    """
    return _shared_fraction(relation.column(left).value_set(), relation.column(right).value_set())


def _shared_fraction(left_values: set[object], right_values: set[object]) -> float:
    if not left_values or not right_values:
        return 0.0
    common = len(left_values & right_values)
    return common / min(len(left_values), len(right_values))
