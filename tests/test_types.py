"""Tests for the column type model."""

from __future__ import annotations

import pytest

from repro.data.types import ColumnType, coerce_values, infer_column_type, infer_value_type


class TestInferValueType:
    def test_integer(self):
        assert infer_value_type(7) is ColumnType.INTEGER

    def test_bool_is_integer(self):
        assert infer_value_type(True) is ColumnType.INTEGER

    def test_float(self):
        assert infer_value_type(3.5) is ColumnType.FLOAT

    def test_plain_string(self):
        assert infer_value_type("hello") is ColumnType.STRING

    def test_numeric_string_integer(self):
        assert infer_value_type("42") is ColumnType.INTEGER

    def test_numeric_string_float(self):
        assert infer_value_type("42.5") is ColumnType.FLOAT

    def test_empty_string(self):
        assert infer_value_type("") is ColumnType.STRING

    def test_whitespace_string(self):
        assert infer_value_type("   ") is ColumnType.STRING

    def test_nan_string_is_string(self):
        assert infer_value_type("nan") is ColumnType.STRING


class TestInferColumnType:
    def test_all_integers(self):
        assert infer_column_type([1, 2, 3]) is ColumnType.INTEGER

    def test_mixed_numeric_promotes_to_float(self):
        assert infer_column_type([1, 2.5, 3]) is ColumnType.FLOAT

    def test_mixed_numeric_and_string_is_string(self):
        assert infer_column_type([1, "abc", 3]) is ColumnType.STRING

    def test_all_strings(self):
        assert infer_column_type(["a", "b"]) is ColumnType.STRING

    def test_numeric_strings(self):
        assert infer_column_type(["1", "2"]) is ColumnType.INTEGER

    def test_empty_column_defaults_to_string(self):
        assert infer_column_type([]) is ColumnType.STRING

    def test_missing_values_do_not_count_for_floats(self):
        assert infer_column_type([1.0, None, 2.5]) is ColumnType.FLOAT
        assert infer_column_type([None, 2.5]) is ColumnType.FLOAT

    def test_missing_integers_make_a_float_column(self):
        # coerce_values refuses missing integers; a float column holds nan.
        assert infer_column_type([1, None, 3]) is ColumnType.FLOAT
        assert infer_column_type(["1", None]) is ColumnType.FLOAT

    def test_missing_values_in_a_string_column(self):
        assert infer_column_type(["a", None]) is ColumnType.STRING

    def test_all_missing_column_is_string(self):
        assert infer_column_type([None, None]) is ColumnType.STRING

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([None, 1], ColumnType.FLOAT),
            ([None, 1, 2.5], ColumnType.FLOAT),
            ([True, None], ColumnType.FLOAT),
            (["1.5", None], ColumnType.FLOAT),
            ([None, "a", 1], ColumnType.STRING),
            (["", None], ColumnType.STRING),
        ],
    )
    def test_missing_values_anywhere_in_the_column(self, values, expected):
        assert infer_column_type(values) is expected
        assert infer_column_type(iter(values)) is expected

    def test_inferred_missing_values_coerce(self):
        for values in ([1.0, None, 2.5], [1, None, 3]):
            coerced = coerce_values(values, infer_column_type(values))
            assert coerced[0] == values[0] and coerced[2] == values[2]
            assert coerced[1] != coerced[1]  # NaN


class TestColumnType:
    def test_integer_is_numeric(self):
        assert ColumnType.INTEGER.is_numeric

    def test_float_is_numeric(self):
        assert ColumnType.FLOAT.is_numeric

    def test_string_is_not_numeric(self):
        assert not ColumnType.STRING.is_numeric


class TestCoerceValues:
    def test_coerce_to_string(self):
        assert coerce_values([1, "a", None], ColumnType.STRING) == ["1", "a", ""]

    def test_coerce_to_integer(self):
        assert coerce_values(["3", 4], ColumnType.INTEGER) == [3, 4]

    def test_coerce_to_float(self):
        assert coerce_values(["3", 4.5], ColumnType.FLOAT) == [3.0, 4.5]

    def test_missing_integer_raises(self):
        with pytest.raises(ValueError):
            coerce_values([None], ColumnType.INTEGER)

    def test_missing_float_becomes_nan(self):
        result = coerce_values([None], ColumnType.FLOAT)
        assert result[0] != result[0]  # NaN
