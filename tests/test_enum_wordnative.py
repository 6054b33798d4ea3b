"""Word-native enumeration core vs the frozen pre-refactor reference.

The word-native ``ADCEnum`` and ``MMCS`` must be *bit-identical* to the
pre-refactor implementations kept in :mod:`tests.legacy_enum`: same
masks, same order, same scores, same search-tree statistics.  These
cross-checks are what licenses every representation change inside the
recursion (packed criticality planes, incremental overlap counts,
dead-evidence compaction, canHit subsumption by the overlap counts).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_relation
from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1, F1Adjusted, F2, F3Greedy
from repro.core.evidence_builder import build_evidence_set
from repro.core.hitting_set import MMCS
from tests.legacy_enum import LegacyADCEnum, LegacyMMCS
from repro.core.predicate_space import build_predicate_space


def _evidence_for(seed: int, n_rows: int = 7, domain: int = 3):
    relation = make_random_relation(n_rows=n_rows, seed=seed, domain_size=domain)
    space = build_predicate_space(relation)
    return build_evidence_set(relation, space, include_participation=True)


def _discovered(adcs):
    """Everything DiscoveredADC carries, in emission order, scores exact."""
    return [
        (adc.hitting_set_mask, adc.violation_score, adc.constraint.predicates)
        for adc in adcs
    ]


def _statistics_tuple(statistics):
    return (
        statistics.recursive_calls,
        statistics.hit_branches,
        statistics.skip_branches,
        statistics.pruned_by_willcover,
        statistics.pruned_by_criticality,
        statistics.minimality_checks,
        statistics.outputs,
    )


class TestADCEnumBitIdentical:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("selection", ["max", "min", "random"])
    def test_f1_same_list_same_order_same_scores(self, seed, epsilon, selection):
        evidence = _evidence_for(seed)
        new = ADCEnum(evidence, F1(), epsilon, selection=selection, max_dc_size=3)
        old = LegacyADCEnum(evidence, F1(), epsilon, selection=selection, max_dc_size=3)
        assert _discovered(new.enumerate()) == _discovered(old.enumerate())
        assert _statistics_tuple(new.statistics) == _statistics_tuple(old.statistics)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_f1_unbounded_dc_size(self, seed):
        evidence = _evidence_for(seed, n_rows=6)
        new = ADCEnum(evidence, F1(), 0.1)
        old = LegacyADCEnum(evidence, F1(), 0.1)
        assert _discovered(new.enumerate()) == _discovered(old.enumerate())
        assert _statistics_tuple(new.statistics) == _statistics_tuple(old.statistics)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("function", [F2(), F3Greedy()], ids=["f2", "f3"])
    def test_tuple_based_functions(self, seed, function):
        """The non-pair path (explicit uncovered index arrays) also matches."""
        evidence = _evidence_for(seed)
        new = ADCEnum(evidence, function, 0.3, max_dc_size=2)
        old = LegacyADCEnum(evidence, function, 0.3, max_dc_size=2)
        assert _discovered(new.enumerate()) == _discovered(old.enumerate())

    def test_adjusted_f1_pair_determined_path(self):
        """f1' is pair-determined but with nontrivial score arithmetic."""
        evidence = _evidence_for(3)
        function = F1Adjusted(confidence_z=1.645)
        new = ADCEnum(evidence, function, 0.1, max_dc_size=3)
        old = LegacyADCEnum(evidence, function, 0.1, max_dc_size=3)
        assert _discovered(new.enumerate()) == _discovered(old.enumerate())

    def test_partial_pair_shortcut_takes_non_pair_path(self):
        """A function whose pair shortcut is only *partial* must not be
        treated as pair-determined; it takes the index-array path and still
        matches the legacy enumerator."""

        class PartialShortcutF1(F1):
            pair_determined = False

            def violation_score_from_pair_fraction(self, pair_fraction, total_pairs):
                if pair_fraction == 0.0:
                    return 0.0
                return None  # fall back to violation_score everywhere else

        evidence = _evidence_for(2)
        function = PartialShortcutF1()
        new = ADCEnum(evidence, function, 0.1, max_dc_size=3)
        old = LegacyADCEnum(evidence, function, 0.1, max_dc_size=3)
        assert _discovered(new.enumerate()) == _discovered(old.enumerate())

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_random_relations(self, seed):
        evidence = _evidence_for(seed, n_rows=6)
        new = ADCEnum(evidence, F1(), 0.15, max_dc_size=3)
        old = LegacyADCEnum(evidence, F1(), 0.15, max_dc_size=3)
        assert _discovered(new.enumerate()) == _discovered(old.enumerate())
        assert _statistics_tuple(new.statistics) == _statistics_tuple(old.statistics)

    def test_repeated_runs_are_stable(self):
        evidence = _evidence_for(0)
        enumerator = ADCEnum(evidence, F1(), 0.05, max_dc_size=3)
        assert _discovered(enumerator.enumerate()) == _discovered(enumerator.enumerate())


class TestMMCSBitIdentical:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_masks_same_order(self, seed):
        rng = random.Random(seed)
        n_elements = rng.randint(1, 9)
        subsets = [
            rng.randint(0, (1 << n_elements) - 1) for _ in range(rng.randint(0, 10))
        ]
        new = MMCS(subsets, n_elements)
        old = LegacyMMCS(subsets, n_elements)
        assert new.enumerate() == old.enumerate()
        assert new.statistics.recursive_calls == old.statistics.recursive_calls
        assert new.statistics.outputs == old.statistics.outputs
        assert (
            new.statistics.pruned_by_criticality
            == old.statistics.pruned_by_criticality
        )

    @settings(max_examples=40, deadline=None)
    @given(
        subsets=st.lists(st.integers(min_value=0, max_value=255), max_size=8),
    )
    def test_property_same_output_list(self, subsets):
        assert MMCS(subsets, 8).enumerate() == LegacyMMCS(subsets, 8).enumerate()

    def test_interleaved_iterators_are_independent(self):
        """Search state is per-call, so two suspended iterators over the
        same MMCS instance must not corrupt each other."""
        subsets = [0b011, 0b110, 0b101]
        enumerator = MMCS(subsets, 3)
        expected = enumerator.enumerate()
        first = enumerator.iter_minimal_hitting_sets()
        head = next(first)
        second = enumerator.iter_minimal_hitting_sets()
        assert list(second) == expected
        assert [head] + list(first) == expected
