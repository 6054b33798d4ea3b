"""ADCEnum in the exact case: minimal hitting sets of a set family.

At ``epsilon = 0`` the approximate base case asks for no uncovered pair,
so ADCEnum enumerates what the MMCS enumerator of Murakami and Uno
enumerates: the minimal hitting sets of the evidence family.  These tests
feed it arbitrary set families (:func:`tests.reference.family_evidence`),
including shapes no evidence builder produces, and check the output
against a brute-force oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1
from tests.reference import (
    brute_force_minimal_hitting_sets,
    family_evidence,
    family_hitting_set,
    is_hitting_set,
)


def _enumerator(subsets, n_elements) -> ADCEnum:
    return ADCEnum(family_evidence(subsets, n_elements), F1(), 0.0)


def minimal_hitting_sets(subsets, n_elements) -> list[int]:
    """The element sets ADCEnum reports at ``epsilon = 0``, in order."""
    return [
        family_hitting_set(adc.hitting_set_mask)
        for adc in _enumerator(subsets, n_elements).enumerate()
    ]


class TestKnownInstances:
    def test_single_subset(self):
        assert set(minimal_hitting_sets([0b101], 3)) == {0b001, 0b100}

    def test_two_disjoint_subsets(self):
        results = set(minimal_hitting_sets([0b011, 0b100], 3))
        assert results == {0b101, 0b110}

    def test_empty_family_reports_no_dc(self):
        # The empty family's one minimal hitting set is the empty set; its
        # DC has no predicate, and ADCEnum never reports the empty DC.
        assert brute_force_minimal_hitting_sets([], 3) == [0]
        assert minimal_hitting_sets([], 3) == []

    def test_unhittable_empty_subset(self):
        assert minimal_hitting_sets([0b0, 0b1], 2) == []

    def test_duplicated_subsets(self):
        assert set(minimal_hitting_sets([0b11, 0b11], 2)) == {0b01, 0b10}

    def test_nested_subsets(self):
        # {0} forces element 0, which also hits its superset {0, 1}; only
        # {1, 2} is left to hit, by 1 or by 2.
        assert set(minimal_hitting_sets([0b011, 0b001, 0b110], 3)) == {0b011, 0b101}


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
        enumerator = _enumerator([0b011, 0b110], 3)
        results = enumerator.enumerate()
        assert enumerator.statistics.outputs == len(results)
        assert enumerator.statistics.recursive_calls >= len(results)
