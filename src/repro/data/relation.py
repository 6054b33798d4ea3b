"""Typed in-memory relations.

A :class:`Relation` is the database abstraction the whole library operates
on: a named, ordered collection of typed columns backed by numpy arrays.
It supports the operations the mining pipeline needs — row access, column
access, row selection and uniform sampling, appends — and nothing more.  The running example of the paper (Table 1) is provided by
:func:`running_example`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.types import ColumnType, coerce_values, infer_column_type


@dataclass(frozen=True)
class Column:
    """A single typed column of a relation."""

    name: str
    type: ColumnType
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def distinct_count(self) -> int:
        """Number of distinct values in the column."""
        return len(np.unique(self.values))

    def value_set(self) -> set[object]:
        """Distinct values as a Python set (used by the 30% sharing rule)."""
        return set(self.values.tolist())


class Relation:
    """A finite set of tuples over a fixed relation schema.

    Columns are stored as numpy arrays (``float64`` / ``int64`` for numeric
    columns, ``object`` for strings) which allows the evidence-set builder to
    vectorise tuple-pair comparisons.

    Parameters
    ----------
    name:
        Relation name (used in reports and DC rendering).
    columns:
        Ordered mapping from column name to raw values.  All columns must
        have the same length.
    types:
        Optional explicit column types; inferred from the data if omitted.
    """

    def __init__(
        self,
        name: str,
        columns: Mapping[str, Sequence[object]],
        types: Mapping[str, ColumnType] | None = None,
    ) -> None:
        if not columns:
            raise ValueError("a relation needs at least one column")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns of {name!r} have inconsistent lengths: {lengths}")
        self.name = name
        self._columns: dict[str, Column] = {}
        for column_name, values in columns.items():
            column_type = (types or {}).get(column_name) or infer_column_type(values)
            coerced = coerce_values(list(values), column_type)
            if column_type is ColumnType.INTEGER:
                array = np.asarray(coerced, dtype=np.int64)
            elif column_type is ColumnType.FLOAT:
                array = np.asarray(coerced, dtype=np.float64)
            else:
                array = np.asarray(coerced, dtype=object)
            self._columns[column_name] = Column(column_name, column_type, array)
        self._n_rows = lengths.pop() if lengths else 0
        # String factorization caches (see string_codes): a column name maps
        # to its (value -> code lookup, per-row codes) pair, and an ordered
        # column pair to its joint lookup and jointly comparable code arrays.
        # Codes follow first-appearance order, so appending rows never
        # changes an existing row's code (see append_rows).
        self._factorization_cache: dict[str, tuple[dict[str, int], np.ndarray]] = {}
        self._pair_codes_cache: dict[
            tuple[str, str], tuple[dict[str, int], np.ndarray, np.ndarray]
        ] = {}

    # ------------------------------------------------------------------
    # Schema and size
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> list[str]:
        """Column names in schema order."""
        return list(self._columns)

    @property
    def columns(self) -> list[Column]:
        """Column objects in schema order."""
        return list(self._columns.values())

    @property
    def n_rows(self) -> int:
        """Number of tuples in the relation."""
        return self._n_rows

    @property
    def n_columns(self) -> int:
        """Number of attributes in the schema."""
        return len(self._columns)

    def __len__(self) -> int:
        return self._n_rows

    def column(self, name: str) -> Column:
        """Return the column called ``name``."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"relation {self.name!r} has no column {name!r}") from None

    def column_type(self, name: str) -> ColumnType:
        """Type of the column called ``name``."""
        return self.column(name).type

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, index: int) -> dict[str, object]:
        """Return row ``index`` as a ``{column: value}`` dict."""
        if not 0 <= index < self._n_rows:
            raise IndexError(f"row index {index} out of range for {self._n_rows} rows")
        return {name: col.values[index] for name, col in self._columns.items()}

    def rows(self) -> Iterator[dict[str, object]]:
        """Iterate over all rows as dicts."""
        for index in range(self._n_rows):
            yield self.row(index)

    def value(self, index: int, column: str) -> object:
        """Value of ``column`` in row ``index``."""
        return self.column(column).values[index]

    # ------------------------------------------------------------------
    # Cached string factorization (evidence-builder support)
    # ------------------------------------------------------------------
    def _column_factorization(self, name: str) -> tuple[dict[str, int], np.ndarray]:
        """Value→code lookup of a column and the per-row codes into it.

        Computed once per column and cached for the relation's lifetime;
        every predicate group over the column reuses it on every evidence
        build instead of re-running ``np.unique`` string factorization.
        Codes are assigned in first-appearance order, which keeps them
        *stable under appends*: :meth:`append_rows` extends the lookup and
        code array for the new rows without touching existing codes, so an
        incremental evidence build sees the same equality structure a full
        rebuild would.
        """
        cached = self._factorization_cache.get(name)
        if cached is None:
            values = np.asarray([str(v) for v in self.column(name).values.tolist()])
            if len(values) == 0:
                cached = ({}, np.zeros(0, dtype=np.int64))
            else:
                uniques, first_index, inverse = np.unique(
                    values, return_index=True, return_inverse=True
                )
                # Remap np.unique's sorted codes onto first-appearance order.
                order = np.argsort(first_index, kind="stable")
                rank = np.empty(len(uniques), dtype=np.int64)
                rank[order] = np.arange(len(uniques), dtype=np.int64)
                lookup = {
                    str(value): int(rank[position])
                    for position, value in enumerate(uniques.tolist())
                }
                cached = (lookup, rank[inverse.ravel()])
            self._factorization_cache[name] = cached
        return cached

    def string_codes(self, left: str, right: str) -> tuple[np.ndarray, np.ndarray]:
        """Jointly comparable integer codes for two (string) columns.

        Equal codes mean equal string values *across* the two columns.  For a
        single column this is its cached factorization; for a pair of
        distinct columns the two per-column factorizations are aligned on a
        merged vocabulary (work proportional to the number of distinct
        values, not the number of rows).  Like the per-column codes, the
        joint codes are stable under :meth:`append_rows`: a value first
        seen in one column keeps its code when it later shows up in the
        other, so per-row data derived from earlier codes stays valid.
        """
        left_lookup, left_codes = self._column_factorization(left)
        if left == right:
            return left_codes, left_codes
        cached = self._pair_codes_cache.get((left, right))
        if cached is None:
            right_lookup, right_codes = self._column_factorization(right)
            joint: dict[str, int] = dict(left_lookup)
            for value in right_lookup:
                if value not in joint:
                    joint[value] = len(joint)
            right_map = np.empty(len(right_lookup), dtype=np.int64)
            for value, code in right_lookup.items():
                right_map[code] = joint[value]
            # Left codes are already first-appearance codes of ``joint``.
            cached = (joint, left_codes, right_map[right_codes])
            self._pair_codes_cache[(left, right)] = cached
        return cached[1], cached[2]

    # ------------------------------------------------------------------
    # Appending (incremental-store support)
    # ------------------------------------------------------------------
    def append_rows(self, rows: "Relation | Iterable[Mapping[str, object]]") -> int:
        """Append a batch of rows in place; returns the number of rows added.

        ``rows`` is either a relation over the same schema or an iterable of
        ``{column: value}`` records.  Values are coerced to the existing
        column types (types are fixed by the schema, never re-inferred).

        Cached string-factorization codes, per column and jointly aligned
        per column pair, are *extended, not recomputed*: existing rows keep
        their codes (first-appearance coding) and only the new rows are
        factorized, so an incremental evidence build after an append of
        ``m`` rows pays ``O(m)`` factorization work instead of ``O(n + m)``.
        """
        if isinstance(rows, Relation):
            if rows.column_names != self.column_names:
                raise ValueError(
                    f"cannot append relation with schema {rows.column_names} "
                    f"to schema {self.column_names}"
                )
            batch = {name: rows.column(name).values.tolist() for name in self.column_names}
            n_new = rows.n_rows
        else:
            records = list(rows)
            for record in records:
                missing = [name for name in self.column_names if name not in record]
                if missing:
                    raise ValueError(f"appended row is missing columns {missing}")
            batch = {
                name: [record[name] for record in records] for name in self.column_names
            }
            n_new = len(records)
        if n_new == 0:
            return 0

        # Coerce every column before mutating any, so a bad value in one
        # column (streaming data is dirty by premise) cannot leave the
        # relation with columns of unequal length.
        extensions: dict[str, np.ndarray] = {}
        for name, column in self._columns.items():
            coerced = coerce_values(batch[name], column.type)
            if column.type is ColumnType.INTEGER:
                extensions[name] = np.asarray(coerced, dtype=np.int64)
            elif column.type is ColumnType.FLOAT:
                extensions[name] = np.asarray(coerced, dtype=np.float64)
            else:
                extensions[name] = np.asarray(coerced, dtype=object)
        for name, column in list(self._columns.items()):
            self._columns[name] = Column(
                name, column.type, np.concatenate([column.values, extensions[name]])
            )

        # Extend the cached codes for the new rows only.  Lookup dicts are
        # replaced (not mutated) so copies sharing the old cache entry keep
        # seeing a consistent snapshot.
        for name, (lookup, codes) in list(self._factorization_cache.items()):
            lookup, new_codes = _extend_codes(
                lookup, self._columns[name].values[self._n_rows:].tolist()
            )
            self._factorization_cache[name] = (lookup, np.concatenate([codes, new_codes]))
        for (left, right), (joint, left_codes, right_codes) in list(
            self._pair_codes_cache.items()
        ):
            joint, new_codes = _extend_codes(
                joint,
                self._columns[left].values[self._n_rows:].tolist()
                + self._columns[right].values[self._n_rows:].tolist(),
            )
            self._pair_codes_cache[(left, right)] = (
                joint,
                np.concatenate([left_codes, new_codes[:n_new]]),
                np.concatenate([right_codes, new_codes[n_new:]]),
            )

        self._n_rows += n_new
        return n_new

    # ------------------------------------------------------------------
    # Derived relations
    # ------------------------------------------------------------------
    def take(self, indices: Sequence[int]) -> "Relation":
        """Return a relation containing the rows at ``indices`` (in order)."""
        index_array = np.asarray(list(indices), dtype=np.int64)
        data = {name: col.values[index_array] for name, col in self._columns.items()}
        types = {name: col.type for name, col in self._columns.items()}
        return Relation(self.name, data, types)

    def head(self, n: int) -> "Relation":
        """Return the first ``n`` rows."""
        return self.take(range(min(n, self._n_rows)))

    def sample(self, fraction: float, seed: int | None = None) -> "Relation":
        """Uniformly sample ``fraction`` of the rows without replacement.

        This is the sampler component of ADCMiner (Figure 1, step 2).  A
        fraction of 1.0 (or more) returns the relation unchanged.
        """
        if fraction <= 0:
            raise ValueError("sample fraction must be positive")
        if fraction >= 1.0:
            return self
        rng = random.Random(seed)
        sample_size = max(2, round(fraction * self._n_rows))
        indices = sorted(rng.sample(range(self._n_rows), min(sample_size, self._n_rows)))
        return self.take(indices)

    def copy(self) -> "Relation":
        """Return a deep copy (noise injection mutates copies, never inputs).

        The column arrays are already typed, so they are copied as they are
        instead of going back through value coercion: the copy costs one
        array copy per column.  Cached string factorizations carry over: the
        cached arrays and lookup dicts are never mutated in place
        (``append_rows`` replaces them), so sharing them between copies is
        safe and spares the copy a full refactorization on its first
        evidence build.
        """
        duplicate = object.__new__(type(self))
        duplicate.__dict__.update(self.__dict__)
        duplicate._columns = {
            name: Column(name, col.type, col.values.copy())
            for name, col in self._columns.items()
        }
        duplicate._factorization_cache = dict(self._factorization_cache)
        duplicate._pair_codes_cache = dict(self._pair_codes_cache)
        return duplicate

    def with_values(self, column: str, values: np.ndarray) -> "Relation":
        """Return a copy of the relation with one column replaced."""
        data = {name: col.values for name, col in self._columns.items()}
        types = {name: col.type for name, col in self._columns.items()}
        data[column] = values
        return Relation(self.name, data, types)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        name: str,
        records: Iterable[Mapping[str, object]],
        types: Mapping[str, ColumnType] | None = None,
    ) -> "Relation":
        """Build a relation from an iterable of row dicts."""
        records = list(records)
        if not records:
            raise ValueError("cannot build a relation from zero records")
        column_names = list(records[0])
        data = {name_: [record[name_] for record in records] for name_ in column_names}
        return cls(name, data, types)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Relation({self.name!r}, rows={self._n_rows}, columns={self.column_names})"

    def describe(self) -> str:
        """One line per column: name, type, distinct count."""
        lines = [f"{self.name}: {self._n_rows} rows"]
        for col in self.columns:
            lines.append(f"  {col.name:<16} {col.type.value:<8} distinct={col.distinct_count()}")
        return "\n".join(lines)


def _extend_codes(
    lookup: dict[str, int], values: list[object]
) -> tuple[dict[str, int], np.ndarray]:
    """A copy of ``lookup`` extended by ``values``, and their codes.

    Unseen values get the next free code in order of appearance, so every
    code ``lookup`` already held keeps its meaning.
    """
    extended = dict(lookup)
    codes = np.empty(len(values), dtype=np.int64)
    for position, value in enumerate(values):
        text = str(value)
        code = extended.get(text)
        if code is None:
            code = extended[text] = len(extended)
        codes[position] = code
    return extended, codes


def running_example() -> Relation:
    """The 15-tuple income/tax relation of Table 1 in the paper.

    Monetary values are stored as integers (``28K`` becomes ``28000``) so
    that order predicates apply to them.
    """
    names = ["Alice", "Mark", "Bob", "Mary", "Alice", "Julia", "Jimmy", "Sam",
             "Jeff", "Gary", "Ron", "Jennifer", "Adam", "Tim", "Sarah"]
    states = ["NY", "NY", "NY", "NY", "NY", "WA", "WA", "WA",
              "WA", "WA", "WA", "WA", "WA", "IL", "IL"]
    zips = [11803, 10102, 13914, 10437, 10437, 98112, 98112, 98112,
            98112, 98112, 98112, 98112, 98112, 62078, 98112]
    incomes = [28000, 42000, 93000, 58000, 26000, 27000, 24000, 49000,
               56000, 50000, 58000, 61000, 20000, 39000, 54000]
    taxes = [2400, 4700, 11800, 6700, 2100, 1400, 1600, 6800,
             7800, 7200, 8000, 8500, 1000, 5000, 5000]
    return Relation(
        "people",
        {
            "Name": names,
            "State": states,
            "Zip": zips,
            "Income": incomes,
            "Tax": taxes,
        },
        types={
            "Name": ColumnType.STRING,
            "State": ColumnType.STRING,
            "Zip": ColumnType.INTEGER,
            "Income": ColumnType.INTEGER,
            "Tax": ColumnType.INTEGER,
        },
    )
