"""Tests for the evidence set and its two builders."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tests.conftest import make_random_relation
from repro.core.dc import DenialConstraint
from repro.core.evidence import EvidenceSet, evidence_from_pair_masks
from repro.core.evidence_builder import build_evidence_set, build_evidence_set_pairwise
from repro.core.predicate_space import build_predicate_space
from repro.data.relation import Relation


class TestRunningExampleEvidence:
    def test_total_pairs(self, example_evidence):
        assert example_evidence.total_pairs == 15 * 14
        assert example_evidence.recorded_pairs == 15 * 14

    def test_masks_and_counts_align(self, example_evidence):
        assert len(example_evidence.masks) == len(example_evidence.counts)
        assert all(count > 0 for count in example_evidence.counts)

    def test_every_evidence_nonempty(self, example_evidence):
        # Every ordered pair of distinct tuples satisfies at least one
        # predicate (e.g. one of ==/!= on every attribute).
        assert all(mask != 0 for mask in example_evidence.masks)

    def test_participation_counts_sum_to_two_per_pair(self, example_evidence):
        owners = np.repeat(np.arange(len(example_evidence)), np.diff(example_evidence.offsets))
        per_evidence = np.bincount(
            owners, weights=example_evidence.pair_counts, minlength=len(example_evidence)
        )
        assert per_evidence.tolist() == (2 * example_evidence.counts).tolist()

    def test_uncovered_pair_count_matches_indices(self, example_evidence, example_space):
        hitting = 1 << 0
        indices = example_evidence.uncovered_indices(hitting)
        assert example_evidence.uncovered_pair_count(hitting) == example_evidence.pair_count_of(indices)


class TestBuildersAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_vectorized_matches_pairwise(self, seed):
        relation = make_random_relation(n_rows=9, seed=seed)
        space = build_predicate_space(relation)
        fast = build_evidence_set(relation, space, include_participation=True)
        slow = build_evidence_set_pairwise(relation, space, include_participation=True)
        assert sorted(zip(fast.masks, fast.counts.tolist())) == sorted(
            zip(slow.masks, slow.counts.tolist())
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_participation_matches_pairwise(self, seed):
        relation = make_random_relation(n_rows=8, seed=seed)
        space = build_predicate_space(relation)
        fast = build_evidence_set(relation, space, include_participation=True)
        slow = build_evidence_set_pairwise(relation, space, include_participation=True)
        assert fast.masks == list(slow.masks)
        np.testing.assert_array_equal(fast.offsets, slow.offsets)
        np.testing.assert_array_equal(fast.tuple_ids, slow.tuple_ids)
        np.testing.assert_array_equal(fast.pair_counts, slow.pair_counts)

    def test_single_row_relation_yields_empty_evidence(self):
        relation = make_random_relation(n_rows=1)
        space = build_predicate_space(relation)
        evidence = build_evidence_set(relation, space)
        assert len(evidence) == 0
        assert evidence.total_pairs == 0


class TestMissingValues:
    """A missing number (NaN) orders the same in every builder: across two
    tuples any comparison with it is GREATER, within one tuple LESS."""

    RELATIONS = {
        "same-column": {"a": [1.0, None, 2.5, None, 2.5], "b": list("xyxxz")},
        "cross-column": {"a": [1.0, None, 2.0, 3.0, 2.0], "c": [1.0, 2.0, None, 3.0, 1.0]},
    }

    @pytest.mark.parametrize("name", sorted(RELATIONS))
    def test_builders_agree(self, name):
        relation = Relation(name, self.RELATIONS[name])
        space = build_predicate_space(relation)
        built = {
            method: build_evidence_set(relation, space, method=method)
            for method in ("tiled", "dense", "pairwise")
        }
        expected = sorted(zip(built["tiled"].masks, built["tiled"].counts.tolist()))
        for evidence in built.values():
            assert sorted(zip(evidence.masks, evidence.counts.tolist())) == expected
        if name == "same-column":
            assert len(built["pairwise"]) == 5

    @pytest.mark.parametrize("name", sorted(RELATIONS))
    def test_violating_pairs_match_the_evidence(self, name):
        relation = Relation(name, self.RELATIONS[name])
        space = build_predicate_space(relation)
        evidence = build_evidence_set(relation, space)
        for size in (1, 2):
            for indices in itertools.combinations(range(len(space)), size):
                bits = sum(1 << index for index in indices)
                constraint = DenialConstraint(space[index] for index in indices)
                expected = sum(
                    count
                    for mask, count in zip(evidence.masks, evidence.counts.tolist())
                    if mask & bits == bits
                )
                assert len(constraint.violating_pairs(relation)) == expected


class TestEvidenceOperations:
    def test_participation_requires_flag(self, example_relation, example_space):
        evidence = build_evidence_set(example_relation, example_space, include_participation=False)
        assert not evidence.has_participation
        with pytest.raises(RuntimeError):
            evidence.violation_counts_per_tuple([0])

    @pytest.mark.parametrize(
        "offsets, tuple_ids, pair_counts",
        [
            pytest.param([0, 2], [0, 1], [1, 1], id="offsets-too-short"),
            pytest.param([0, 1, 2, 2], [0, 1], [1, 1], id="offsets-too-long"),
            pytest.param([1, 1, 2], [0, 1], [1, 1], id="offsets-not-from-zero"),
            pytest.param([0, 2, 1], [0], [1], id="offsets-decreasing"),
            pytest.param([0, 1, 1], [0, 1], [1, 1], id="offsets-short-of-tuple-ids"),
            pytest.param([0, 1, 3], [0, 1], [1, 1], id="offsets-past-tuple-ids"),
            pytest.param([0, 1, 2], [0, 1], [1], id="pair-counts-shorter"),
            pytest.param([0, 1, 2], [0, 1], [1, 1, 1], id="pair-counts-longer"),
        ],
    )
    def test_malformed_participation_is_rejected(
        self, example_space, offsets, tuple_ids, pair_counts
    ):
        arrays = tuple(np.asarray(a, dtype=np.int64) for a in (offsets, tuple_ids, pair_counts))
        with pytest.raises(ValueError):
            EvidenceSet(example_space, [0b1, 0b10], [1, 1], 2, arrays)

    def test_well_formed_participation_is_kept(self, example_space):
        arrays = tuple(np.asarray(a, dtype=np.int64) for a in ([0, 2, 2], [0, 1], [1, 1]))
        evidence = EvidenceSet(example_space, [0b1, 0b10], [1, 0], 2, arrays)
        assert evidence.violation_counts_per_tuple([0]).tolist() == [1, 1]
        assert evidence.violation_counts_per_tuple([1]).tolist() == [0, 0]

    def test_evidence_from_pair_masks_counts(self, example_space):
        evidence = evidence_from_pair_masks(
            example_space, [0b1, 0b1, 0b10], n_rows=2, pair_tuples=[(0, 1), (1, 0), (0, 1)]
        )
        assert sorted(zip(evidence.masks, evidence.counts.tolist())) == [(0b1, 2), (0b10, 1)]

    def test_violation_counts_per_tuple(self, example_evidence):
        totals = example_evidence.violation_counts_per_tuple(range(len(example_evidence)))
        # Every tuple participates in 2 * (n - 1) ordered pairs.
        assert set(totals.tolist()) == {2 * 14}

    def test_describe_mentions_size(self, example_evidence):
        assert "distinct evidences" in example_evidence.describe()


class TestWordNativeQueries:
    """The hitting-set queries accept packed word vectors, not just ints."""

    def test_word_vector_matches_int_mask(self, example_evidence):
        from repro.core.evidence import mask_to_words

        for mask in (0, 0b1, 0b1010, (1 << 5) | (1 << 20)):
            words = mask_to_words(mask, example_evidence.n_words)
            assert example_evidence.uncovered_indices(words) == (
                example_evidence.uncovered_indices(mask)
            )
            assert example_evidence.uncovered_pair_count(words) == (
                example_evidence.uncovered_pair_count(mask)
            )

    def test_hitting_words_normalises_both_forms(self, example_evidence):
        import numpy as np
        from repro.core.evidence import mask_to_words

        mask = 0b1101
        from_int = example_evidence.hitting_words(mask)
        from_words = example_evidence.hitting_words(
            mask_to_words(mask, example_evidence.n_words)
        )
        assert np.array_equal(from_int, from_words)

    def test_wrong_width_word_vector_raises(self, example_evidence):
        import numpy as np

        with pytest.raises(ValueError):
            example_evidence.uncovered_indices(
                np.zeros(example_evidence.n_words + 1, dtype=np.uint64)
            )


class TestLazyMaskViewEdgeCases:
    """Slicing/indexing corners of the chunk-lazy Python-int mask view."""

    @pytest.fixture(scope="class")
    def view_and_list(self, example_evidence):
        view = example_evidence.masks
        return view, list(view)

    def test_negative_indices(self, view_and_list):
        view, reference = view_and_list
        for index in (-1, -2, -len(reference)):
            assert view[index] == reference[index]

    def test_out_of_range_raises(self, view_and_list):
        view, reference = view_and_list
        with pytest.raises(IndexError):
            view[len(reference)]
        with pytest.raises(IndexError):
            view[-len(reference) - 1]

    def test_out_of_range_slices_clamp_like_lists(self, view_and_list):
        view, reference = view_and_list
        n = len(reference)
        assert view[: n + 100] == reference[: n + 100]
        assert view[n + 1 :] == []
        assert view[-2 * n : 3] == reference[-2 * n : 3]
        assert view[5:2] == []

    def test_step_slices(self, view_and_list):
        view, reference = view_and_list
        assert view[::2] == reference[::2]
        assert view[1::3] == reference[1::3]
        assert view[::-1] == reference[::-1]
        assert view[10:2:-2] == reference[10:2:-2]

    def test_equality_against_lists_and_tuples(self, view_and_list):
        view, reference = view_and_list
        assert view == reference
        assert not (view == reference[:-1])
        assert not (view == [mask + 1 for mask in reference])
        assert view == view
        assert view == tuple(reference)
        assert view.__eq__(object()) is NotImplemented

    def test_equality_against_other_views(self, example_evidence):
        from repro.core.evidence import LazyMaskView

        first = LazyMaskView(example_evidence.words)
        second = LazyMaskView(example_evidence.words)
        assert first == second
        assert first == first

    def test_iteration_matches_indexing(self, view_and_list):
        view, reference = view_and_list
        assert [mask for mask in view] == reference
