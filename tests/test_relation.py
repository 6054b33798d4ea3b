"""Tests for the typed relation layer."""

from __future__ import annotations

import pytest

from repro.data.relation import Relation, running_example
from repro.data.types import ColumnType


@pytest.fixture
def people() -> Relation:
    return Relation(
        "people",
        {
            "name": ["ann", "bob", "cat", "dan"],
            "age": [30, 25, 30, 41],
            "score": [1.5, 2.0, 2.5, 3.0],
        },
    )


class TestConstruction:
    def test_row_and_column_counts(self, people):
        assert people.n_rows == 4
        assert people.n_columns == 3
        assert len(people) == 4

    def test_column_types_inferred(self, people):
        assert people.column_type("name") is ColumnType.STRING
        assert people.column_type("age") is ColumnType.INTEGER
        assert people.column_type("score") is ColumnType.FLOAT

    def test_explicit_types_override_inference(self):
        relation = Relation("r", {"x": [1, 2]}, types={"x": ColumnType.STRING})
        assert relation.column_type("x") is ColumnType.STRING
        assert relation.value(0, "x") == "1"

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            Relation("bad", {"a": [1, 2], "b": [1]})

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            Relation("bad", {})

    def test_unknown_column_raises(self, people):
        with pytest.raises(KeyError):
            people.column("missing")


class TestRowAccess:
    def test_row_returns_dict(self, people):
        assert people.row(1) == {"name": "bob", "age": 25, "score": 2.0}

    def test_row_out_of_range(self, people):
        with pytest.raises(IndexError):
            people.row(10)

    def test_rows_iterates_all(self, people):
        assert len(list(people.rows())) == 4

    def test_value(self, people):
        assert people.value(2, "name") == "cat"


class TestDerivedRelations:
    def test_project(self, people):
        projected = people.project(["name", "age"])
        assert projected.column_names == ["name", "age"]
        assert projected.n_rows == 4

    def test_take_preserves_order(self, people):
        taken = people.take([2, 0])
        assert taken.value(0, "name") == "cat"
        assert taken.value(1, "name") == "ann"

    def test_head(self, people):
        assert people.head(2).n_rows == 2

    def test_sample_fraction_one_returns_same_object(self, people):
        assert people.sample(1.0) is people

    def test_sample_is_deterministic_with_seed(self, people):
        first = people.sample(0.5, seed=3)
        second = people.sample(0.5, seed=3)
        assert [r for r in first.rows()] == [r for r in second.rows()]

    def test_sample_rejects_non_positive_fraction(self, people):
        with pytest.raises(ValueError):
            people.sample(0.0)

    def test_copy_is_independent(self, people):
        copy = people.copy()
        copy.column("age").values[0] = 99
        assert people.value(0, "age") == 30

    def test_copy_reuses_the_typed_arrays_without_coercion(self, people, monkeypatch):
        import repro.data.relation as relation_module

        people.string_codes("name", "name")

        def no_coercion(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("copy must not re-coerce stored values")

        monkeypatch.setattr(relation_module, "coerce_values", no_coercion)
        copy = people.copy()
        assert copy.name == people.name and copy.n_rows == people.n_rows
        for original, duplicate in zip(people.columns, copy.columns):
            assert duplicate.type is original.type
            assert duplicate.values.dtype == original.values.dtype
            assert duplicate.values is not original.values
            assert duplicate.values.tolist() == original.values.tolist()
        # The factorization cache is shared, not recomputed.
        assert copy.string_codes("name", "name")[0] is people.string_codes("name", "name")[0]

    def test_with_values_replaces_column(self, people):
        new_ages = people.column("age").values.copy()
        new_ages[0] = 99
        updated = people.with_values("age", new_ages)
        assert updated.value(0, "age") == 99
        assert people.value(0, "age") == 30


class TestAppendRows:
    def test_append_records_grows_in_place(self, people):
        added = people.append_rows([
            {"name": "eve", "age": 22, "score": 4.5},
            {"name": "fox", "age": 63, "score": 0.5},
        ])
        assert added == 2
        assert people.n_rows == 6
        assert people.value(4, "name") == "eve"
        assert people.value(5, "age") == 63
        assert people.column_type("age") is ColumnType.INTEGER

    def test_append_relation_checks_schema(self, people):
        batch = Relation(
            "batch", {"name": ["gil"], "age": [18], "score": [9.0]}
        )
        assert people.append_rows(batch) == 1
        assert people.n_rows == 5
        mismatched = Relation("bad", {"name": ["x"], "age": [1]})
        with pytest.raises(ValueError):
            people.append_rows(mismatched)

    def test_append_missing_column_rejected(self, people):
        with pytest.raises(ValueError):
            people.append_rows([{"name": "no-age", "score": 1.0}])

    def test_append_coerces_to_existing_types(self, people):
        people.append_rows([{"name": "eve", "age": "33", "score": "4.25"}])
        assert people.value(4, "age") == 33
        assert people.value(4, "score") == 4.25

    def test_empty_append_is_noop(self, people):
        assert people.append_rows([]) == 0
        assert people.n_rows == 4

    def test_failed_append_leaves_the_relation_untouched(self, people):
        with pytest.raises(ValueError):
            people.append_rows([{"name": "bad", "age": "not-a-number", "score": 1.0}])
        assert people.n_rows == 4
        assert all(len(column) == 4 for column in people.columns)
        assert people.value(3, "name") == "dan"

    def test_string_codes_stay_stable_across_appends(self, people):
        before = people.string_codes("name", "name")[0].copy()
        people.append_rows([
            {"name": "ann", "age": 1, "score": 1.0},   # existing value
            {"name": "aaa", "age": 2, "score": 2.0},   # sorts before all
        ])
        after = people.string_codes("name", "name")[0]
        assert (after[:4] == before).all()
        assert after[4] == before[0]       # "ann" reuses ann's code
        assert after[5] == before.max() + 1  # new value extends the code range

    def test_pair_codes_stay_comparable_after_append(self):
        relation = Relation(
            "r", {"a": ["x", "y", "z"], "b": ["y", "q", "x"]}
        )
        relation.string_codes("a", "b")
        relation.append_rows([{"a": "q", "b": "z"}])
        left, right = relation.string_codes("a", "b")
        a_values = [str(v) for v in relation.column("a").values.tolist()]
        b_values = [str(v) for v in relation.column("b").values.tolist()]
        for i in range(len(a_values)):
            for j in range(len(b_values)):
                assert (left[i] == right[j]) == (a_values[i] == b_values[j])

    def test_copies_are_isolated_from_appends(self, people):
        people.string_codes("name", "name")
        duplicate = people.copy()
        people.append_rows([{"name": "eve", "age": 1, "score": 1.0}])
        assert duplicate.n_rows == 4
        assert len(duplicate.string_codes("name", "name")[0]) == 4
        duplicate.append_rows([{"name": "gil", "age": 2, "score": 2.0}])
        assert people.n_rows == 5
        assert people.value(4, "name") == "eve"
        assert duplicate.value(4, "name") == "gil"


class TestIO:
    def test_csv_round_trip(self, tmp_path, people):
        path = tmp_path / "people.csv"
        people.to_csv(path)
        loaded = Relation.from_csv(path)
        assert loaded.n_rows == people.n_rows
        assert loaded.column_names == people.column_names
        assert loaded.column_type("age") is ColumnType.INTEGER

    def test_from_records(self):
        relation = Relation.from_records("r", [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert relation.n_rows == 2
        assert relation.column_type("a") is ColumnType.INTEGER

    def test_from_records_empty_rejected(self):
        with pytest.raises(ValueError):
            Relation.from_records("r", [])


class TestRunningExample:
    def test_shape_matches_table_1(self):
        relation = running_example()
        assert relation.n_rows == 15
        assert relation.column_names == ["Name", "State", "Zip", "Income", "Tax"]

    def test_types(self):
        relation = running_example()
        assert relation.column_type("State") is ColumnType.STRING
        assert relation.column_type("Income") is ColumnType.INTEGER

    def test_describe_mentions_all_columns(self):
        text = running_example().describe()
        for column in ["Name", "State", "Zip", "Income", "Tax"]:
            assert column in text
