"""Column type model for relations.

The predicate space of a denial constraint depends on column types: order
comparisons (``<``, ``<=``, ``>``, ``>=``) are only generated for numeric
columns, while equality and inequality apply to every column.  This module
defines the small type lattice used throughout the library and the inference
routine that maps raw Python values onto it.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence


class ColumnType(enum.Enum):
    """Type of a relation column.

    The three members mirror the distinction made by the paper (Section 3):
    string attributes support ``=`` and ``!=`` only, numeric attributes
    (integers and floats) additionally support the order operators.
    """

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"

    @property
    def is_numeric(self) -> bool:
        """Return ``True`` for integer and float columns."""
        return self in (ColumnType.INTEGER, ColumnType.FLOAT)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def _looks_like_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _looks_like_float(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return not math.isnan(value)


def infer_value_type(value: object) -> ColumnType:
    """Infer the :class:`ColumnType` of a single value.

    Booleans are treated as integers, strings holding numbers are classified
    by their content (so CSV data does not degrade to strings), and anything
    else falls back to ``STRING``.
    """
    if isinstance(value, bool):
        return ColumnType.INTEGER
    if isinstance(value, int):
        return ColumnType.INTEGER
    if isinstance(value, float):
        return ColumnType.FLOAT
    if isinstance(value, str):
        stripped = value.strip()
        if not stripped:
            return ColumnType.STRING
        if _looks_like_int(stripped):
            return ColumnType.INTEGER
        if _looks_like_float(stripped):
            return ColumnType.FLOAT
    return ColumnType.STRING


def infer_column_type(values: Iterable[object]) -> ColumnType:
    """Infer the type of a column from its values.

    The result is the least upper bound over the per-value types: a column is
    integer only if every value is an integer, float if every value is
    numeric, and string otherwise.  Missing values (``None``) do not count,
    except that they make an integer column ``FLOAT``: integer columns hold
    no missing marker, float columns hold ``nan`` (see
    :func:`coerce_values`).  An empty or all-missing column defaults to
    ``STRING``.
    """
    result: ColumnType | None = None
    missing = False
    for value in values:
        if value is None:
            missing = True
            continue
        value_type = infer_value_type(value)
        if result is None:
            result = value_type
        elif result is not value_type:
            if result.is_numeric and value_type.is_numeric:
                result = ColumnType.FLOAT
            else:
                return ColumnType.STRING
    if result is None:
        return ColumnType.STRING
    if missing and result is ColumnType.INTEGER:
        return ColumnType.FLOAT
    return result


def coerce_values(values: Sequence[object], column_type: ColumnType) -> list[object]:
    """Coerce raw values to the canonical Python type for ``column_type``.

    Strings holding numbers are parsed for numeric columns; everything is
    stringified for string columns.  ``None`` is mapped to a type-appropriate
    missing marker (empty string / ``nan``) so the numpy backing array stays
    homogeneous.
    """
    coerced: list[object] = []
    for value in values:
        if column_type is ColumnType.STRING:
            coerced.append("" if value is None else str(value))
        elif column_type is ColumnType.INTEGER:
            if value is None:
                raise ValueError("integer columns do not support missing values")
            coerced.append(int(value))
        else:
            coerced.append(float("nan") if value is None else float(value))
    return coerced
