"""Property tests of the partial-evidence merge algebra.

The engine's correctness rests on one algebraic fact: folding tile results
into :class:`PartialEvidenceSet`s and merging the partials finalizes to the
same :class:`EvidenceSet` no matter how the tiles are grouped or in what
order the partials are merged (associativity + commutativity up to the
id relabeling that finalization erases).  Hypothesis drives randomized
relations, tile groupings and merge orders through that claim, and
cross-checks the serial tiled builder and the cluster builder (several
shards merged from two workers) against the dense oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_relation
from tests.test_engine import assert_evidence_identical
from repro.cluster import LocalCluster, build_evidence_set_cluster
from repro.core.evidence_builder import (
    build_evidence_set_dense,
    build_evidence_set_tiled,
)
from repro.core.predicate_space import build_predicate_space
from repro.engine import PartialEvidenceSet, TileKernel, TileScheduler


def _tile_partials(relation, space, tile_rows):
    """Kernel results of every non-empty tile of the schedule."""
    kernel = TileKernel.from_relation(relation, space, include_participation=True)
    partials = []
    for tile in TileScheduler(relation.n_rows, tile_rows=tile_rows):
        tile_partial = kernel.run(tile)
        if tile_partial is not None:
            partials.append(tile_partial)
    return kernel, partials


def _fold(kernel, tile_partials) -> PartialEvidenceSet:
    partial = PartialEvidenceSet(kernel.n_rows, kernel.n_words, kernel.include_participation)
    for tile_partial in tile_partials:
        partial.add_tile(tile_partial)
    return partial


relation_strategy = st.builds(
    make_random_relation,
    n_rows=st.integers(min_value=2, max_value=12),
    n_string_columns=st.integers(min_value=0, max_value=2),
    n_numeric_columns=st.integers(min_value=1, max_value=2),
    domain_size=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)


class TestMergeAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(
        relation=relation_strategy,
        tile_rows=st.integers(min_value=1, max_value=6),
        order_seed=st.randoms(use_true_random=False),
    )
    def test_merge_is_order_independent(self, relation, tile_rows, order_seed):
        space = build_predicate_space(relation)
        kernel, tiles = _tile_partials(relation, space, tile_rows)
        reference = _fold(kernel, tiles).finalize(space)

        shuffled = list(tiles)
        order_seed.shuffle(shuffled)
        # Random grouping of tiles into partials, merged in shuffled order.
        n_groups = order_seed.randint(1, max(1, len(shuffled)))
        groups = [shuffled[i::n_groups] for i in range(n_groups)]
        partials = [_fold(kernel, group) for group in groups if group]
        order_seed.shuffle(partials)
        merged = partials[0]
        for partial in partials[1:]:
            merged = merged.merge(partial)
        assert_evidence_identical(merged.finalize(space), reference)

    @settings(max_examples=25, deadline=None)
    @given(
        relation=relation_strategy,
        tile_rows=st.integers(min_value=1, max_value=5),
    )
    def test_merge_is_associative_and_commutative(self, relation, tile_rows):
        space = build_predicate_space(relation)
        kernel, tiles = _tile_partials(relation, space, tile_rows)
        thirds = [tiles[0::3], tiles[1::3], tiles[2::3]]
        a, b, c = (_fold(kernel, group) for group in thirds)

        left = a.copy().merge(b.copy()).merge(c.copy()).finalize(space)
        right = a.copy().merge(b.copy().merge(c.copy())).finalize(space)
        swapped = c.copy().merge(a.copy()).merge(b.copy()).finalize(space)
        assert_evidence_identical(left, right)
        assert_evidence_identical(left, swapped)

    @settings(max_examples=30, deadline=None)
    @given(
        relation=relation_strategy,
        tile_rows=st.integers(min_value=1, max_value=6),
        tree_seed=st.randoms(use_true_random=False),
    )
    def test_arbitrary_merge_trees_match_serial_fold(self, relation, tile_rows, tree_seed):
        """Any merge *tree* — not just left folds — finalizes identically.

        Random binary reduction trees are built by repeatedly merging two
        random intermediate partials (with random receiver order, so inner
        nodes combine results of very different sizes), which covers the
        cluster coordinator's balanced reduction and every skewed shape a
        failure-rescheduled run could produce.
        """
        space = build_predicate_space(relation)
        kernel, tiles = _tile_partials(relation, space, tile_rows)
        reference = _fold(kernel, tiles).finalize(space)

        # Leaves: a random grouping of tiles into partials.
        shuffled = list(tiles)
        tree_seed.shuffle(shuffled)
        n_leaves = tree_seed.randint(1, max(1, len(shuffled)))
        forest = [
            _fold(kernel, group)
            for group in (shuffled[i::n_leaves] for i in range(n_leaves))
            if group
        ]
        # Inner nodes: merge two random trees until one remains.
        while len(forest) > 1:
            left = forest.pop(tree_seed.randrange(len(forest)))
            right = forest.pop(tree_seed.randrange(len(forest)))
            if tree_seed.random() < 0.5:
                left, right = right, left
            forest.append(left.merge(right))
        assert_evidence_identical(forest[0].finalize(space), reference)

        # The cluster coordinator's balanced binary reduction is one such
        # tree; check it against the same reference explicitly.
        from repro.cluster.build import merge_partials_tree

        balanced = [
            _fold(kernel, group)
            for group in (list(tiles)[i::3] for i in range(3))
            if group
        ]
        assert_evidence_identical(
            merge_partials_tree(balanced).finalize(space), reference
        )

    @settings(max_examples=25, deadline=None)
    @given(relation=relation_strategy, tile_rows=st.integers(min_value=1, max_value=5))
    def test_merge_preserves_pair_mass(self, relation, tile_rows):
        space = build_predicate_space(relation)
        kernel, tiles = _tile_partials(relation, space, tile_rows)
        halves = [_fold(kernel, tiles[0::2]), _fold(kernel, tiles[1::2])]
        merged = halves[0].copy().merge(halves[1])
        n = relation.n_rows
        assert merged.recorded_pairs == n * (n - 1)
        evidence = merged.finalize(space)
        assert evidence.recorded_pairs == n * (n - 1)
        # Participation mass: every ordered pair contributes two tuple slots.
        total = sum(
            int(evidence.participation(i).pair_counts.sum()) for i in range(len(evidence))
        )
        assert total == 2 * n * (n - 1)


class TestParallelEqualsOracles:
    @settings(max_examples=20, deadline=None)
    @given(
        relation=relation_strategy,
        tile_rows=st.integers(min_value=1, max_value=6),
    )
    def test_serial_engine_path_matches_oracles(self, relation, tile_rows):
        space = build_predicate_space(relation)
        engine = build_evidence_set_tiled(relation, space, tile_rows=tile_rows)
        assert_evidence_identical(engine, build_evidence_set_dense(relation, space))

    @settings(max_examples=5, deadline=None)
    @given(relation=relation_strategy)
    def test_cluster_matches_oracles(self, relation):
        space = build_predicate_space(relation)
        with LocalCluster(2, transport="local") as cluster:
            clustered = build_evidence_set_cluster(relation, space, cluster, tile_rows=3)
        assert_evidence_identical(
            clustered, build_evidence_set_tiled(relation, space, tile_rows=3)
        )
        assert_evidence_identical(clustered, build_evidence_set_dense(relation, space))

    @settings(max_examples=15, deadline=None)
    @given(relation=relation_strategy, mask_bits=st.integers(min_value=0, max_value=2**16))
    def test_f2_f3_scores_agree_after_cluster_build(self, relation, mask_bits):
        """Participation survives the cluster's multi-shard merge."""
        from repro.core.approximation import F2, F3Greedy

        space = build_predicate_space(relation)
        with LocalCluster(2, transport="local") as cluster:
            engine = build_evidence_set_cluster(relation, space, cluster, tile_rows=4)
        oracle = build_evidence_set_dense(relation, space)
        indices = list(range(len(engine)))
        for function in (F2(), F3Greedy()):
            assert function.violation_score(engine, indices) == \
                function.violation_score(oracle, indices)
        projected_engine = engine.restrict_to_predicates(mask_bits)
        projected_oracle = oracle.restrict_to_predicates(mask_bits)
        assert_evidence_identical(projected_engine, projected_oracle)


def _recounted_chunk_bytes(partial) -> int:
    return sum(chunk.nbytes for chunks in partial._chunk_lists() for chunk in chunks)


class TestChunkBytes:
    @settings(max_examples=40, deadline=None)
    @given(
        relation=relation_strategy,
        tile_rows=st.integers(min_value=1, max_value=4),
        ops=st.lists(
            st.sampled_from(["add_tile", "merge", "compact", "copy", "from_state"]),
            max_size=12,
        ),
    )
    def test_running_total_matches_the_chunks(self, relation, tile_rows, ops):
        """``chunk_bytes`` is a running total; it must equal a recount."""
        space = build_predicate_space(relation)
        kernel, tiles = _tile_partials(relation, space, tile_rows)
        partial = PartialEvidenceSet(kernel.n_rows, kernel.n_words, True)
        for step, op in enumerate(ops):
            if op == "add_tile":
                partial.add_tile(tiles[step % len(tiles)])
            elif op == "merge":
                partial.merge(_fold(kernel, tiles[: step % len(tiles) + 1]))
            elif op == "compact":
                partial.compact()
            elif op == "copy":
                duplicate = partial.copy()
                assert duplicate.chunk_bytes == _recounted_chunk_bytes(duplicate)
                partial.add_tile(tiles[0])  # the copy's total must not move
                assert duplicate.chunk_bytes == _recounted_chunk_bytes(duplicate)
                partial = duplicate
            else:
                partial = PartialEvidenceSet.from_state_arrays(
                    partial.n_rows, partial.n_words, True, *partial.state_arrays()
                )
            assert partial.chunk_bytes == _recounted_chunk_bytes(partial)
