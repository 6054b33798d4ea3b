"""Property tests of the partial-evidence merge algebra and the tile fold.

The engine's correctness rests on one algebraic fact: folding tile results
into :class:`PartialEvidenceSet`s and merging the partials finalizes to the
same :class:`EvidenceSet` no matter how the tiles are grouped or in what
order the partials are merged (associativity + commutativity up to the
id relabeling that finalization erases).  Hypothesis drives randomized
relations, tile groupings and merge orders through that claim, and
cross-checks the tiled builder and the schedule folded in several parts
and merged against the dense oracle.

The compiled backend folds a whole tile list in one native call
(``adc_fold_tiles``); :class:`TestCompiledFold` holds it to the numpy fold,
byte for byte, and to its one-call and out-of-memory contracts.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_relation
from tests.reference import build_evidence_set_in_parts, grid_tiles, merge_partials_tree
from tests.test_engine import assert_evidence_identical
from repro.core.dc import DenialConstraint
from repro.core.evidence_builder import (
    build_evidence_set_dense,
    build_evidence_set_tiled,
)
from repro.core.predicate_space import build_predicate_space
from repro.data.relation import Relation
from repro.engine import PartialEvidenceSet, Shard, Tile, TileKernel, fold_tiles
from repro.native import dispatch, get_backend, use_backend
from tests.numpy_backend import NUMPY_BACKEND, NumpyKernels


def _tile_partials(relation, space, tile_rows):
    """Kernel results of every non-empty tile of the schedule."""
    kernel = TileKernel.from_relation(relation, space, include_participation=True)
    partials = []
    for tile in grid_tiles(relation.n_rows, tile_rows):
        tile_partial = kernel.run(Shard((tile,)))
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


@st.composite
def relation_with_missing_strategy(draw) -> Relation:
    """A :data:`relation_strategy` relation with some numeric cells missing."""
    relation = draw(relation_strategy)
    columns = {}
    for name in relation.column_names:
        values = np.asarray(relation.column(name).values).tolist()
        if name.startswith("N"):
            missing = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
            values = [None if blank else value for value, blank in zip(values, missing)]
        columns[name] = values
    return Relation(relation.name, columns)


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
        nodes combine results of very different sizes), which covers a
        balanced reduction and every skewed shape.
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

        # A balanced binary reduction is one such tree; check it against
        # the same reference explicitly.
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
        assert int(evidence.pair_counts.sum()) == 2 * n * (n - 1)


class TestFoldsEqualOracles:
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
    def test_parts_match_oracles(self, relation):
        space = build_predicate_space(relation)
        folded = build_evidence_set_in_parts(relation, space, tile_rows=3, parts=4)
        assert_evidence_identical(
            folded, build_evidence_set_tiled(relation, space, tile_rows=3)
        )
        assert_evidence_identical(folded, build_evidence_set_dense(relation, space))

    @settings(max_examples=15, deadline=None)
    @given(relation=relation_strategy, mask_bits=st.integers(min_value=0, max_value=2**16))
    def test_f2_f3_scores_agree_after_multi_part_build(self, relation, mask_bits):
        """Participation survives a merge of several folded parts."""
        from repro.core.approximation import F2, F3Greedy

        space = build_predicate_space(relation)
        engine = build_evidence_set_in_parts(relation, space, tile_rows=4, parts=4)
        oracle = build_evidence_set_dense(relation, space)
        for indices in (list(range(len(engine))), engine.uncovered_indices(mask_bits)):
            for function in (F2(), F3Greedy()):
                assert function.violation_score(engine, indices) == \
                    function.violation_score(oracle, indices)


class TestTupleScoresMatchDefinitions:
    """f2 and f3 on every build equal the paper's definitions, computed by
    brute force from the DC's violating pairs."""

    BUILDS = {
        "tiled": lambda relation, space: build_evidence_set_tiled(relation, space, tile_rows=3),
        "parts": lambda relation, space: build_evidence_set_in_parts(
            relation, space, tile_rows=2, parts=3
        ),
        "dense": build_evidence_set_dense,
    }

    @staticmethod
    def expected_scores(relation, constraint) -> tuple[float, float]:
        pairs = constraint.violating_pairs(relation)
        per_tuple = Counter(tuple_id for pair in pairs for tuple_id in pair)
        covered = selected = 0
        for count in sorted(per_tuple.values(), reverse=True):
            if covered >= len(pairs):
                break
            covered += count
            selected += 1
        n = relation.n_rows
        return len(per_tuple) / n, selected / n

    @settings(max_examples=30, deadline=None)
    @given(relation=relation_with_missing_strategy(), data=st.data())
    def test_f2_f3_equal_brute_force(self, relation, data):
        from repro.core.approximation import F2, F3Greedy

        space = build_predicate_space(relation)
        chosen = data.draw(
            st.sets(st.sampled_from(range(len(space))), min_size=1, max_size=3)
        )
        bits = sum(1 << index for index in chosen)
        constraint = DenialConstraint(space[index] for index in chosen)
        expected = self.expected_scores(relation, constraint)
        for name, build in self.BUILDS.items():
            evidence = build(relation, space)
            # A pair violates the DC iff its evidence holds every predicate.
            violating = [i for i, mask in enumerate(evidence.masks) if mask & bits == bits]
            scores = tuple(
                function.violation_score(evidence, violating) for function in (F2(), F3Greedy())
            )
            assert scores == expected, name
            assert all(type(score) is float for score in scores), name


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


# ----------------------------------------------------------------------
# The compiled fold against the numpy fold
# ----------------------------------------------------------------------
#: Lookup shapes of :func:`_random_planes`, one per kind of code field of
#: the compiled fold: ``random`` words give every group three distinct rows
#: (2-bit fields), ``repeated`` draws each group's rows from two words (0-
#: and 1-bit fields), and ``overlapping`` draws them from one shared 6-bit
#: window, so different groups' codes decode to the same words and merge.
LOOKUPS = ("random", "repeated", "overlapping")


def _random_planes(
    rng,
    n_groups: int,
    n_rows: int,
    n_words: int,
    continuous: bool = False,
    lookups: str = "random",
    pair_groups: bool = True,
):
    """Kernel planes of ``n_groups`` random groups over ``n_rows`` rows.

    Numeric planes carry NaN; ``continuous`` values and one-hot category
    bits make nearly every pair a distinct evidence once there are enough
    groups.  ``lookups`` picks one of :data:`LOOKUPS` otherwise, and
    without ``pair_groups`` every group is single-tuple.
    """
    kinds = rng.integers(0, 3, size=n_groups).astype(np.int32)
    if continuous:
        kinds[:] = 1
    if not pair_groups:
        kinds[:] = 0
    a = np.zeros((n_groups, n_rows), dtype=np.float64)
    b = np.zeros((n_groups, n_rows), dtype=np.float64)
    for g in range(n_groups):
        if kinds[g] == 0:
            a[g] = rng.integers(0, 3, size=n_rows)
            continue
        if continuous:
            a[g], b[g] = rng.normal(size=n_rows), rng.normal(size=n_rows)
        else:
            a[g] = rng.integers(-3, 4, size=n_rows)
            b[g] = rng.integers(-3, 4, size=n_rows)
        if kinds[g] == 1:
            a[g, rng.random(n_rows) < 0.1] = np.nan
    lookup = rng.integers(0, 2**64, size=(n_groups, 3, n_words), dtype=np.uint64)
    if continuous:
        # One bit per (group, category), so no OR of groups saturates.
        lookup[:] = 0
        for g in range(n_groups):
            for category in range(3):
                bit = (3 * g + category) % (64 * n_words)
                lookup[g, category, bit // 64] = np.uint64(1) << np.uint64(bit % 64)
    elif lookups == "repeated":
        for g in range(n_groups):
            lookup[g] = lookup[g, rng.integers(0, 2, size=3)]
    elif lookups == "overlapping":
        lookup = rng.integers(0, 2**6, size=(n_groups, 3, n_words), dtype=np.uint64)
    return kinds, a, b, lookup


@st.composite
def _tile_lists(draw, n_rows: int):
    """Tile lists over ``n_rows`` rows: tiles, 1 x n and n x 1 strips,
    tiles across the diagonal and lone diagonal cells, or no tile at all."""
    tiles = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        shape = draw(st.sampled_from(["tile", "row", "column", "diagonal", "cell"]))
        i0 = draw(st.integers(min_value=0, max_value=n_rows - 1))
        j0 = draw(st.integers(min_value=0, max_value=n_rows - 1))
        i1 = draw(st.integers(min_value=i0 + 1, max_value=n_rows))
        j1 = draw(st.integers(min_value=j0 + 1, max_value=n_rows))
        if shape == "row":
            i1 = i0 + 1
        elif shape == "column":
            j1 = j0 + 1
        elif shape == "diagonal":
            j0, j1 = i0, i1
        elif shape == "cell":
            i1, j0, j1 = i0 + 1, i0, i0 + 1
        tiles.append((i0, i1, j0, j1))
    return np.array(tiles, dtype=np.int64).reshape(-1, 4)


def _assert_same_fold(theirs, ours) -> None:
    if ours is None:
        assert theirs is None
        return
    for got, want in zip(theirs, ours):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _counting_backend(calls: list[str]):
    """The compiled backend with every native call logged by name."""
    from repro.native import cext

    compiled = get_backend()

    def logged(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)
        return call

    functions = {name: logged(name, fn) for name, fn in compiled.kernels._fn.items()}
    return dispatch.Backend(
        name="counting", kernels=cext.CKernels(functions),
        workspace_factory=compiled.workspace_factory,
    )


class TestCompiledFold:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_fold_matches_the_numpy_fold(self, data):
        """Words, counts and participation, byte for byte, over random tile
        lists, planes with NaN, spaces of one to three words, every
        :data:`LOOKUPS` shape and planes without a pair group."""
        n_rows = data.draw(st.integers(min_value=1, max_value=70))
        # Past 32 groups of three distinct rows, the codes of a one-word
        # space take two words.
        n_groups = data.draw(st.integers(min_value=0, max_value=40))
        n_words = data.draw(st.integers(min_value=1, max_value=3))
        participation = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
        kinds, a, b, lookup = _random_planes(
            rng, n_groups, n_rows, n_words,
            continuous=data.draw(st.booleans()),
            lookups=data.draw(st.sampled_from(LOOKUPS)),
            pair_groups=data.draw(st.booleans()),
        )
        bounds = data.draw(_tile_lists(n_rows))
        kernels = get_backend().kernels
        _assert_same_fold(
            kernels.fold_tiles(kinds, a, b, lookup, bounds, n_words, participation),
            NumpyKernels.fold_tiles(kinds, a, b, lookup, bounds, n_words, participation),
        )

    @pytest.mark.parametrize("participation", [False, True])
    def test_fold_past_the_initial_table(self, participation):
        """More distinct evidences than the fold's first table and row
        buffer hold (1,024 rows): both grow mid-tile."""
        rng = np.random.default_rng(5)
        kinds, a, b, lookup = _random_planes(rng, 16, 120, 2, continuous=True)
        bounds = np.array([(0, 120, 0, 120), (7, 8, 0, 120)], dtype=np.int64)
        kernels = get_backend().kernels
        theirs = kernels.fold_tiles(kinds, a, b, lookup, bounds, 2, participation)
        ours = NumpyKernels.fold_tiles(kinds, a, b, lookup, bounds, 2, participation)
        assert len(ours[0]) > 8 * 1024
        _assert_same_fold(theirs, ours)

    @pytest.mark.parametrize(
        "n_groups, n_words, lookups, pair_groups",
        [
            (40, 1, "random", True),
            (12, 2, "repeated", True),
            (12, 1, "overlapping", True),
            (5, 1, "random", False),
            (0, 1, "random", True),
        ],
        ids=["codes-wider-than-words", "repeated-rows", "merging-codes", "no-pair-group",
             "no-group"],
    )
    @pytest.mark.parametrize("participation", [False, True])
    def test_code_keys(self, n_groups, n_words, lookups, pair_groups, participation):
        """Each kind of code table over tiles, strips and the diagonal:
        codes wider than the evidence words (40 groups of three distinct
        rows need 80 bits in a one-word space), 0- and 1-bit fields, codes
        that decode to the same words, single-tuple groups only, and no
        group at all."""
        rng = np.random.default_rng(n_groups + 7 * n_words)
        kinds, a, b, lookup = _random_planes(
            rng, n_groups, 45, n_words, lookups=lookups, pair_groups=pair_groups
        )
        bounds = np.array(
            [(0, 45, 0, 45), (3, 4, 0, 45), (0, 45, 9, 10), (20, 30, 20, 30)], dtype=np.int64
        )
        kernels = get_backend().kernels
        _assert_same_fold(
            kernels.fold_tiles(kinds, a, b, lookup, bounds, n_words, participation),
            NumpyKernels.fold_tiles(kinds, a, b, lookup, bounds, n_words, participation),
        )

    def test_codes_that_decode_to_the_same_words_merge(self):
        """Two groups whose rows share bits: six category pairs give three
        word rows, and the fold returns each word row once, with the pairs
        and the participation of all its codes."""
        rng = np.random.default_rng(9)
        n_rows = 30
        kinds = np.array([1, 2], dtype=np.int32)
        a = rng.integers(-1, 2, size=(2, n_rows)).astype(np.float64)
        b = rng.integers(-1, 2, size=(2, n_rows)).astype(np.float64)
        # Numeric group: LESS 1, EQUAL 2, GREATER 0; string group: LESS 1,
        # EQUAL 2.  (GREATER, LESS) and (LESS, LESS) both give 1, and so on.
        lookup = np.array([[[1], [2], [0]], [[1], [2], [3]]], dtype=np.uint64)
        bounds = np.array([(0, n_rows, 0, n_rows)], dtype=np.int64)
        diff = a[0][:, None] - b[0][None, :]
        numeric = 2 - 2 * (diff < 0) - (diff == 0)
        string = a[1][:, None] == b[1][None, :]
        off_diagonal = ~np.eye(n_rows, dtype=bool)
        assert len({(x, y) for x, y in zip(numeric[off_diagonal], string[off_diagonal])}) == 6
        theirs = get_backend().kernels.fold_tiles(
            kinds, a, b, lookup, bounds, 1, True
        )
        _assert_same_fold(theirs, NumpyKernels.fold_tiles(kinds, a, b, lookup, bounds, 1, True))
        assert theirs[0][:, 0].tolist() == [1, 2, 3]

    @settings(max_examples=25, deadline=None)
    @given(
        relation=relation_strategy,
        tile_rows=st.integers(min_value=1, max_value=5),
        participation=st.booleans(),
        split=st.integers(min_value=1, max_value=4),
    )
    def test_finalized_folds_match_across_backends(
        self, relation, tile_rows, participation, split
    ):
        """Folds of tile groups, merged and finalized, under either backend
        give the dense oracle's evidence set."""
        space = build_predicate_space(relation)
        tiles = grid_tiles(relation.n_rows, tile_rows)
        groups = [tiles[i::split] for i in range(split)]
        results = []
        for backend in (get_backend(), NUMPY_BACKEND):
            with use_backend(backend):
                kernel = TileKernel.from_relation(relation, space, participation)
                partial = PartialEvidenceSet(relation.n_rows, kernel.n_words, participation)
                for group in groups:
                    partial.merge(fold_tiles(kernel, group))
                results.append(partial.finalize(space))
        assert_evidence_identical(results[0], results[1])
        assert_evidence_identical(
            results[0],
            build_evidence_set_dense(relation, space, include_participation=participation),
        )

    @pytest.mark.parametrize("participation", [False, True])
    @pytest.mark.parametrize("limit", [16, 40, 100])
    def test_a_fold_split_at_the_row_limit_is_bit_identical(
        self, monkeypatch, limit, participation
    ):
        """With the kernel's uint32 row limit patched down to ``limit``
        cells, ``fold_tiles`` cuts the schedule into runs of at most that
        many cells, one kernel call each, and finalizes bit-identically to
        the one-call fold; a single call past the limit is refused."""
        from repro.native import cext

        relation = make_random_relation(n_rows=23, seed=limit)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space, participation)
        tiles = grid_tiles(relation.n_rows, 4)
        whole = fold_tiles(kernel, tiles)
        shards = []
        run = TileKernel.run

        def recording_run(tile_kernel, shard):
            shards.append(shard)
            return run(tile_kernel, shard)

        monkeypatch.setattr(cext, "MAX_DEDUP_ROWS", limit)
        monkeypatch.setattr(TileKernel, "run", recording_run)
        split = fold_tiles(kernel, tiles)
        cells = [sum((t.i1 - t.i0) * (t.j1 - t.j0) for t in shard.tiles) for shard in shards]
        assert len(shards) > 1 and max(cells) <= limit
        assert [t for shard in shards for t in shard.tiles] == list(tiles)
        assert split.recorded_pairs == whole.recorded_pairs == 23 * 22
        assert_evidence_identical(split.finalize(space), whole.finalize(space))
        with pytest.raises(ValueError, match=f"MAX_DEDUP_ROWS = {limit} pairs"):
            run(kernel, Shard(tiles))

    def test_a_tile_past_the_row_limit_is_refused(self, monkeypatch):
        """A single tile larger than the limit is a run of its own, which
        the kernel refuses rather than overflowing its row ids."""
        from repro.native import cext

        relation = make_random_relation(n_rows=9, seed=1)
        kernel = TileKernel.from_relation(relation, build_predicate_space(relation))
        monkeypatch.setattr(cext, "MAX_DEDUP_ROWS", 10)
        with pytest.raises(ValueError, match="MAX_DEDUP_ROWS = 10 pairs"):
            fold_tiles(kernel, grid_tiles(relation.n_rows, 4))

    def test_a_fold_of_many_tiles_is_one_native_call(self):
        relation = make_random_relation(n_rows=30, seed=3)
        space = build_predicate_space(relation)
        calls: list[str] = []
        with use_backend(_counting_backend(calls)):
            kernel = TileKernel.from_relation(relation, space, include_participation=True)
            tiles = grid_tiles(relation.n_rows, 4)
            partial = fold_tiles(kernel, tiles)
        assert len(tiles) == 64
        assert calls == ["adc_fold_tiles"]
        assert partial.recorded_pairs == 30 * 29

    def test_build_append_and_check_are_one_fold_each(self, monkeypatch):
        """A full build, a store append and a ``check_batch`` probe each make
        one native fold call, intern once per fold and run no ``np.unique``."""
        from repro.core.dc import DenialConstraint
        from repro.core.evidence_builder import build_evidence_set_tiled
        from repro.incremental import EvidenceStore, ViolationService

        relation = make_random_relation(n_rows=41, seed=8)
        seed_rows = relation.take(range(40))
        space = build_predicate_space(seed_rows)
        calls: list[str] = []
        interns: list[int] = []
        intern = PartialEvidenceSet._intern

        def counting_intern(partial, keys, words):
            interns.append(len(keys))
            return intern(partial, keys, words)

        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique ran in a compiled fold")

        run = TileKernel.run

        def guarded_run(kernel, tiles):
            with monkeypatch.context() as patch:
                patch.setattr(np, "unique", no_unique)
                return run(kernel, tiles)

        with use_backend(_counting_backend(calls)):
            store = EvidenceStore(seed_rows, space=space, tile_rows=4)
            service = ViolationService(
                store, [DenialConstraint([space[0]])], base_counts_provider=lambda: [0]
            )
            monkeypatch.setattr(PartialEvidenceSet, "_intern", counting_intern)
            monkeypatch.setattr(TileKernel, "run", guarded_run)
            steps = {}
            for name, step in (
                ("build", lambda: build_evidence_set_tiled(seed_rows, space, tile_rows=4)),
                ("append", lambda: store.append([relation.row(40)])),
                ("check", lambda: service.check_batch([relation.row(3)])),
            ):
                calls.clear()
                interns.clear()
                step()
                steps[name] = (list(calls), len(interns))
        assert steps["build"] == (["adc_fold_tiles"], 1)
        # The append interns its fold, then merges it into the store.
        assert steps["append"] == (["adc_fold_tiles"], 2)
        assert steps["check"] == (["adc_fold_tiles"], 0)

    def test_tiles_outside_the_rows_are_refused(self):
        rng = np.random.default_rng(4)
        kinds, a, b, lookup = _random_planes(rng, 2, 10, 1)
        kernels = get_backend().kernels
        for bounds in ([(0, 11, 0, 10)], [(0, 10, 3, 11)], [(-1, 2, 0, 10)]):
            with pytest.raises(ValueError, match="outside"):
                kernels.fold_tiles(
                    kinds, a, b, lookup, np.array(bounds, dtype=np.int64), 1, True
                )

    def test_a_failed_output_allocation_raises_memory_error(self, monkeypatch):
        from repro.native import cext

        class NoMemory:
            """numpy, except that ``empty`` is out of memory."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(*args, **kwargs):
                raise MemoryError

        rng = np.random.default_rng(2)
        kinds, a, b, lookup = _random_planes(rng, 3, 20, 1)
        bounds = np.array([(0, 20, 0, 20)], dtype=np.int64)
        kernels = get_backend().kernels
        monkeypatch.setattr(cext, "np", NoMemory())
        with pytest.raises(MemoryError, match="fold_tiles"):
            kernels.fold_tiles(kinds, a, b, lookup, bounds, 1, True)
        monkeypatch.undo()
        _assert_same_fold(
            kernels.fold_tiles(kinds, a, b, lookup, bounds, 1, True),
            NumpyKernels.fold_tiles(kinds, a, b, lookup, bounds, 1, True),
        )

    @pytest.mark.skipif(
        not Path("/proc/self/statm").exists(), reason="reads the address-space size from /proc"
    )
    def test_a_failed_table_allocation_raises_memory_error(self):
        """The fold's own buffers, under an address-space limit: the call
        raises, frees what it holds, and the next fold works."""
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from repro.native import dispatch
            from tests.numpy_backend import NumpyKernels

            kernels = dispatch.get_backend().kernels
            rng = np.random.default_rng(0)
            n = 6000
            kinds = np.ones(1, dtype=np.int32)
            a, b = rng.normal(size=(1, n)), rng.normal(size=(1, n))
            lookup = rng.integers(0, 2**64, size=(1, 3, 1), dtype=np.uint64)
            with open("/proc/self/statm") as statm:
                size = int(statm.read().split()[0]) * resource.getpagesize()
            # Room for small folds, not for the 144 MB id buffer of a
            # 6,000 x 6,000 tile.
            resource.setrlimit(resource.RLIMIT_AS, (size + 64 * 2**20, resource.RLIM_INFINITY))
            big = np.array([(0, n, 0, n)], dtype=np.int64)
            for _ in range(3):
                try:
                    kernels.fold_tiles(kinds, a, b, lookup, big, 1, True)
                except MemoryError:
                    pass
                else:
                    raise SystemExit("no MemoryError")
            small = np.array([(0, 50, 0, 60)], dtype=np.int64)
            got = kernels.fold_tiles(kinds, a, b, lookup, small, 1, True)
            want = NumpyKernels.fold_tiles(kinds, a, b, lookup, small, 1, True)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
            print("ok")
            """
        )
        root = Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])},
        )
        assert result.stdout.strip() == "ok", result.stderr
