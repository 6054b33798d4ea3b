"""Tests for the synthetic dataset generators and their golden DCs."""

from __future__ import annotations

import pytest

from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import DATASET_NAMES, DEFAULT_ROWS, generate_dataset
from repro.data.golden import GOLDEN_DCS, golden_dcs
from tests.reference import generate_all_datasets

#: Golden DC counts reported in Table 4 of the paper.
EXPECTED_GOLDEN_COUNTS = {
    "tax": 9, "stock": 6, "hospital": 7, "food": 10,
    "airport": 9, "adult": 3, "flight": 13, "voter": 12,
}

#: Small row count keeping the exhaustive golden-DC validation fast.
TEST_ROWS = 60


@pytest.fixture(scope="module", params=DATASET_NAMES)
def dataset(request):
    return generate_dataset(request.param, n_rows=TEST_ROWS, seed=5)


class TestGenerators:
    def test_row_and_golden_counts(self, dataset):
        assert dataset.n_rows == TEST_ROWS
        assert dataset.n_golden == EXPECTED_GOLDEN_COUNTS[dataset.name]

    def test_generation_is_deterministic(self, dataset):
        again = generate_dataset(dataset.name, n_rows=TEST_ROWS, seed=5)
        assert list(again.relation.rows()) == list(dataset.relation.rows())

    def test_different_seeds_differ(self, dataset):
        other = generate_dataset(dataset.name, n_rows=TEST_ROWS, seed=6)
        assert list(other.relation.rows()) != list(dataset.relation.rows())

    def test_golden_dcs_hold_exactly_on_clean_data(self, dataset):
        for constraint in dataset.golden:
            assert constraint.violation_count(dataset.relation) == 0, str(constraint)

    def test_golden_predicates_exist_in_predicate_space(self, dataset):
        space = build_predicate_space(dataset.relation)
        for constraint in dataset.golden:
            for predicate in constraint.predicates:
                assert predicate in space, f"{dataset.name}: {predicate}"

    def test_golden_dcs_are_nontrivial(self, dataset):
        assert all(not constraint.is_trivial() for constraint in dataset.golden)


class TestRegistry:
    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            generate_dataset("nope")
        with pytest.raises(KeyError):
            golden_dcs("nope")

    def test_all_datasets_have_golden_dcs(self):
        assert set(GOLDEN_DCS) == set(DATASET_NAMES)

    def test_default_rows_ordering_follows_table_4(self):
        assert DEFAULT_ROWS["tax"] >= max(DEFAULT_ROWS[name] for name in DATASET_NAMES)
        assert DEFAULT_ROWS["adult"] <= min(DEFAULT_ROWS[name] for name in DATASET_NAMES)

    def test_generate_all_datasets_scaled(self):
        datasets = generate_all_datasets(scale=0.1, seed=1)
        assert set(datasets) == set(DATASET_NAMES)
        assert all(ds.n_rows >= 20 for ds in datasets.values())
