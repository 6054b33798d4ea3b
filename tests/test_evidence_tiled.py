"""Randomized cross-checks of the tiled evidence builder.

The tiled builder must be indistinguishable from the dense word-plane
builder and from the pairwise oracle on masks, counts, and tuple
participation — across seeds, mixed numeric/string schemas, and odd sizes
(``n < tile_rows``, ``n % tile_rows != 0``, tiles of edge 1).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import make_random_relation
from repro.core.evidence import words_to_mask
from repro.core.evidence_builder import (
    build_evidence_set,
    build_evidence_set_dense,
    build_evidence_set_pairwise,
    build_evidence_set_tiled,
)
from repro.core.predicate_space import build_predicate_space


def _mask_count_map(evidence) -> dict[int, int]:
    return dict(zip(evidence.masks, evidence.counts.tolist()))


def _participation_map(evidence) -> dict[int, dict[int, int]]:
    return {
        mask: dict(
            zip(
                evidence.participation(i).tuple_ids.tolist(),
                evidence.participation(i).pair_counts.tolist(),
            )
        )
        for i, mask in enumerate(evidence.masks)
    }


class TestTiledMatchesOracles:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("tile_rows", [1, 3, 4, 16])
    def test_masks_counts_participation(self, seed, tile_rows):
        relation = make_random_relation(
            n_rows=9, n_string_columns=2, n_numeric_columns=2, seed=seed
        )
        space = build_predicate_space(relation)
        tiled = build_evidence_set_tiled(
            relation, space, include_participation=True, tile_rows=tile_rows
        )
        dense = build_evidence_set_dense(relation, space, include_participation=True)
        oracle = build_evidence_set_pairwise(relation, space, include_participation=True)
        assert _mask_count_map(tiled) == _mask_count_map(oracle)
        assert _mask_count_map(dense) == _mask_count_map(oracle)
        assert _participation_map(tiled) == _participation_map(oracle)
        assert _participation_map(dense) == _participation_map(oracle)

    @pytest.mark.parametrize("n_rows", [2, 3, 5, 7, 11])
    def test_odd_sizes_not_multiple_of_tile(self, n_rows):
        # n < tile_rows and n % tile_rows != 0 both exercised (tile_rows=4).
        relation = make_random_relation(n_rows=n_rows, seed=n_rows)
        space = build_predicate_space(relation)
        tiled = build_evidence_set_tiled(
            relation, space, include_participation=True, tile_rows=4
        )
        oracle = build_evidence_set_pairwise(relation, space, include_participation=True)
        assert _mask_count_map(tiled) == _mask_count_map(oracle)
        assert _participation_map(tiled) == _participation_map(oracle)

    def test_tile_larger_than_relation(self):
        relation = make_random_relation(n_rows=6, seed=9)
        space = build_predicate_space(relation)
        tiled = build_evidence_set_tiled(
            relation, space, include_participation=True, tile_rows=512
        )
        oracle = build_evidence_set_pairwise(relation, space, include_participation=True)
        assert _mask_count_map(tiled) == _mask_count_map(oracle)
        assert _participation_map(tiled) == _participation_map(oracle)

    def test_string_only_and_numeric_only_schemas(self):
        for kwargs in (
            {"n_string_columns": 3, "n_numeric_columns": 0},
            {"n_string_columns": 0, "n_numeric_columns": 3},
        ):
            relation = make_random_relation(n_rows=8, seed=5, **kwargs)
            space = build_predicate_space(relation)
            tiled = build_evidence_set_tiled(relation, space, tile_rows=3)
            oracle = build_evidence_set_pairwise(relation, space)
            assert _mask_count_map(tiled) == _mask_count_map(oracle)

    def test_invalid_tile_rows_rejected(self):
        relation = make_random_relation(n_rows=4)
        space = build_predicate_space(relation)
        with pytest.raises(ValueError):
            build_evidence_set_tiled(relation, space, tile_rows=0)

    def test_dispatcher_methods(self):
        relation = make_random_relation(n_rows=6, seed=2)
        space = build_predicate_space(relation)
        reference = _mask_count_map(build_evidence_set_pairwise(relation, space))
        for method in ("tiled", "dense", "pairwise"):
            evidence = build_evidence_set(relation, space, method=method)
            assert _mask_count_map(evidence) == reference
        with pytest.raises(ValueError):
            build_evidence_set(relation, space, method="nope")

    def test_unknown_method_error_lists_valid_methods(self):
        relation = make_random_relation(n_rows=4, seed=2)
        space = build_predicate_space(relation)
        for bogus in ("bogus", "cluster", "parallel"):
            with pytest.raises(ValueError) as excinfo:
                build_evidence_set(relation, space, method=bogus)
            assert "valid methods are tiled, dense, pairwise" in str(excinfo.value)


class TestPackedWordsNative:
    def test_words_round_trip_masks(self):
        relation = make_random_relation(n_rows=7, seed=3)
        space = build_predicate_space(relation)
        evidence = build_evidence_set_tiled(relation, space)
        assert evidence.words.dtype == np.uint64
        assert evidence.words.shape == (len(evidence), evidence.n_words)
        assert [words_to_mask(row) for row in evidence.words] == evidence.masks

    def test_predicate_membership_matches_masks(self):
        relation = make_random_relation(n_rows=7, seed=6)
        space = build_predicate_space(relation)
        evidence = build_evidence_set_tiled(relation, space)
        contains = evidence.predicate_membership()
        assert contains.shape == (len(space), len(evidence))
        for e, mask in enumerate(evidence.masks):
            for p in range(len(space)):
                assert contains[p, e] == bool(mask & (1 << p))

    def test_vectorized_uncovered_queries_match_bitmask_semantics(self):
        relation = make_random_relation(n_rows=8, seed=7)
        space = build_predicate_space(relation)
        evidence = build_evidence_set_tiled(relation, space)
        for hitting in (0, 1, 0b1010, (1 << len(space)) - 1):
            expected = [i for i, m in enumerate(evidence.masks) if m & hitting == 0]
            assert evidence.uncovered_indices(hitting) == expected
            assert evidence.uncovered_pair_count(hitting) == sum(
                int(evidence.counts[i]) for i in expected
            )


class TestProjectionKeepsParticipation:
    def test_restrict_merges_participation(self):
        relation = make_random_relation(n_rows=8, seed=1)
        space = build_predicate_space(relation)
        evidence = build_evidence_set_tiled(relation, space, include_participation=True)
        predicate_mask = 0b111111
        projected = evidence.restrict_to_predicates(predicate_mask)
        assert projected.has_participation
        assert projected.recorded_pairs == evidence.recorded_pairs
        # Aggregate the expected merged participation by projected mask.
        expected: dict[int, dict[int, int]] = {}
        for i, mask in enumerate(evidence.masks):
            key = mask & predicate_mask
            bucket = expected.setdefault(key, {})
            part = evidence.participation(i)
            for tuple_id, count in zip(part.tuple_ids.tolist(), part.pair_counts.tolist()):
                bucket[tuple_id] = bucket.get(tuple_id, 0) + count
        assert _participation_map(projected) == expected

    def test_f2_f3_run_on_projected_evidence(self):
        from repro.core.approximation import F2, F3Greedy

        relation = make_random_relation(n_rows=8, seed=4)
        space = build_predicate_space(relation)
        evidence = build_evidence_set_tiled(relation, space, include_participation=True)
        projected = evidence.restrict_to_predicates(0b1111)
        all_indices = list(range(len(projected)))
        for function in (F2(), F3Greedy()):
            score = function.violation_score(projected, all_indices)
            assert 0.0 <= score <= 1.0

    def test_projection_without_participation_stays_without(self):
        relation = make_random_relation(n_rows=6, seed=8)
        space = build_predicate_space(relation)
        evidence = build_evidence_set_tiled(relation, space, include_participation=False)
        projected = evidence.restrict_to_predicates(0b11)
        assert not projected.has_participation


class TestRelationStringCodeCache:
    def test_codes_cached_per_column(self):
        relation = make_random_relation(n_rows=6, seed=0)
        first = relation.string_codes("S0", "S0")
        second = relation.string_codes("S0", "S0")
        assert first[0] is second[0]

    def test_cross_column_codes_comparable(self):
        relation = make_random_relation(n_rows=10, seed=2, domain_size=4)
        left, right = relation.string_codes("S0", "S1")
        left_values = [str(v) for v in relation.column("S0").values.tolist()]
        right_values = [str(v) for v in relation.column("S1").values.tolist()]
        for i in range(len(left_values)):
            for j in range(len(right_values)):
                assert (left[i] == right[j]) == (left_values[i] == right_values[j])
