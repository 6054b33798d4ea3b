"""Tests for the MMCS minimal hitting set enumerator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hitting_set import MMCS, minimal_hitting_sets
from tests.reference import brute_force_minimal_hitting_sets, is_hitting_set


class TestKnownInstances:
    def test_single_subset(self):
        assert set(minimal_hitting_sets([0b101], 3)) == {0b001, 0b100}

    def test_two_disjoint_subsets(self):
        results = set(minimal_hitting_sets([0b011, 0b100], 3))
        assert results == {0b101, 0b110}

    def test_empty_family_has_empty_hitting_set(self):
        assert minimal_hitting_sets([], 3) == [0]

    def test_unhittable_empty_subset(self):
        assert minimal_hitting_sets([0b0, 0b1], 2) == []

    def test_duplicated_subsets(self):
        assert set(minimal_hitting_sets([0b11, 0b11], 2)) == {0b01, 0b10}


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        n_elements = rng.randint(3, 7)
        subsets = [
            rng.randint(1, (1 << n_elements) - 1) for _ in range(rng.randint(1, 8))
        ]
        expected = set(brute_force_minimal_hitting_sets(subsets, n_elements))
        actual = minimal_hitting_sets(subsets, n_elements)
        assert set(actual) == expected
        assert len(actual) == len(set(actual)), "each hitting set must be produced once"

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=63), min_size=1, max_size=6),
    )
    def test_property_minimal_and_complete(self, subsets):
        n_elements = 6
        results = minimal_hitting_sets(subsets, n_elements)
        expected = set(brute_force_minimal_hitting_sets(subsets, n_elements))
        assert set(results) == expected
        for mask in results:
            assert is_hitting_set(mask, subsets)
            for bit in range(n_elements):
                if mask & (1 << bit):
                    assert not is_hitting_set(mask & ~(1 << bit), subsets)


class TestStatistics:
    def test_statistics_populated(self):
        enumerator = MMCS([0b011, 0b110], 3)
        results = enumerator.enumerate()
        assert enumerator.statistics.outputs == len(results)
        assert enumerator.statistics.recursive_calls >= len(results)
