"""Unit tests of the evidence engine (tile cutter, kernel, partials).

Covers the tile-edge budget math, the pinned tile schedule, picklability
of the tile kernel, the folded tiles being bit-identical to the tiled
builder, and the schedule folded in several parts and merged being
bit-identical to one fold and to the dense oracle.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from tests.conftest import make_random_relation
from tests.reference import (
    build_evidence_set_in_parts,
    fold_in_parts,
    grid_tiles,
    merge_partials_tree,
)
from repro.core.evidence_builder import (
    build_evidence_set,
    build_evidence_set_dense,
    build_evidence_set_tiled,
)
from repro.core.approximation import get_approximation_function
from repro.core.miner import ADCMiner, run_enumeration
from repro.core.predicate_space import build_predicate_space
from repro.data.relation import running_example
from repro.engine import (
    PartialEvidenceSet,
    Shard,
    Tile,
    TileKernel,
    block_tiles,
    choose_tile_rows,
    fold_tiles,
    participation_csr,
)
from repro.engine.partial import MAX_ROWS, aggregate_key_histogram
from repro.incremental import EvidenceStore
from repro.engine.scheduler import (
    _KERNEL_PLANES,
    _MEMORY_BUDGET_BYTES,
    MAX_TILE_ROWS,
    MIN_TILE_ROWS,
)


def signature(adcs):
    """Order-sensitive identity of a DC list."""
    return [
        (adc.hitting_set_mask, adc.violation_score, str(adc.constraint))
        for adc in adcs
    ]


def assert_evidence_identical(left, right) -> None:
    """Bit-identical words, multiplicities, and (if present) participation."""
    assert np.array_equal(left.words, right.words)
    assert np.array_equal(left.counts, right.counts)
    assert left.n_rows == right.n_rows
    assert left.has_participation == right.has_participation
    if left.has_participation:
        assert np.array_equal(left.offsets, right.offsets)
        assert np.array_equal(left.tuple_ids, right.tuple_ids)
        assert np.array_equal(left.pair_counts, right.pair_counts)


#: The (relation size, tile edge) grid the square-grid pin runs over.
PIN_ROWS = (*range(40), 255, 256, 257, 511, 512, 513, 600, 2000, 2400)
PIN_EDGES = (1, 2, 3, 4, 5, 7, 16, 256, 512)
#: Grids of more tiles than this are left out to keep the pin fast: each
#: builds the grid twice as Python objects.  Every grid skipped (edges 1 to
#: 7 at 257 rows and up) is cut by the square-grid branch that the kept
#: grids of the same edges take.
PIN_MAX_TILES = 2**16


class TestChooseTileRows:
    @pytest.mark.parametrize(
        "n_rows,n_words,edge",
        [
            (10**6, 1, MAX_TILE_ROWS),
            (10**6, 42, MAX_TILE_ROWS),
            # The widest spaces under the 64 MiB budget: 43 words is the
            # first width whose edge drops below the cap, 20,000 is clamped
            # at the floor.
            (10**6, 43, 255),
            (10**6, 44, 252),
            (10**6, 100, 167),
            (10**6, 1000, 52),
            (10**6, 20_000, MIN_TILE_ROWS),
            (300, 2, MAX_TILE_ROWS),
            (100, 1, 100),
            (100, 100, 100),
            (17, 20_000, MIN_TILE_ROWS),
            (5, 20_000, 5),
            (1, 1, 1),
        ],
    )
    def test_pinned_edges(self, n_rows, n_words, edge):
        assert choose_tile_rows(n_rows, n_words) == edge

    def test_budgeted_tile_fits_the_budget(self):
        # In the unclamped region the edge is the largest whose numpy fold
        # stays within budget: 3 planes of 8 * n_words bytes per pair.
        for n_words in (43, 100, 1000, 2500):
            tile = choose_tile_rows(10**6, n_words)
            assert MIN_TILE_ROWS < tile < MAX_TILE_ROWS
            bytes_per_pair = _KERNEL_PLANES * 8 * n_words
            assert bytes_per_pair * tile * tile <= _MEMORY_BUDGET_BYTES
            assert bytes_per_pair * (tile + 1) ** 2 > _MEMORY_BUDGET_BYTES

    def test_wider_spaces_get_smaller_tiles(self):
        edges = [choose_tile_rows(10**6, n_words) for n_words in (1, 43, 100, 1000, 20_000)]
        assert edges == sorted(edges, reverse=True)
        assert choose_tile_rows(10**6, 100) < choose_tile_rows(10**6, 1)

    def test_floor_and_cap(self):
        assert choose_tile_rows(10**6, 20_000) == MIN_TILE_ROWS
        assert choose_tile_rows(10**6, 1) == MAX_TILE_ROWS

    def test_clamped_by_relation_size(self):
        assert choose_tile_rows(5, 1) == 5
        assert choose_tile_rows(1, 1) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            choose_tile_rows(0, 1)
        with pytest.raises(ValueError):
            choose_tile_rows(10, 0)


class TestBlockTiles:
    @pytest.mark.parametrize("edge", PIN_EDGES)
    def test_whole_matrix_is_the_row_major_square_grid(self, edge):
        """Pins the schedule every full build, store seed and pair replay
        folds: the explicit row-major grid of ``edge x edge`` tiles."""
        for n in PIN_ROWS:
            if (-(-n // edge)) ** 2 > PIN_MAX_TILES:
                continue
            expected = tuple(
                Tile(i0, min(i0 + edge, n), j0, min(j0 + edge, n))
                for i0 in range(0, n, edge)
                for j0 in range(0, n, edge)
            )
            assert block_tiles((0, n), (0, n), edge) == expected, (n, edge)

    def test_tiles_cover_the_pair_matrix_exactly_once(self):
        tiles = block_tiles((0, 10), (0, 10), 3)
        covered = np.zeros((10, 10), dtype=int)
        for tile in tiles:
            covered[tile.i0 : tile.i1, tile.j0 : tile.j1] += 1
        assert (covered == 1).all()
        assert sum(tile.n_pairs for tile in tiles) == 10 * 9

    def test_grid_length(self):
        assert len(block_tiles((0, 10), (0, 10), 3)) == 16

    def test_default_build_edge_follows_the_word_width(self):
        """A default tiled build folds the grid of ``choose_tile_rows``."""
        from repro.obs import metrics as obs_metrics

        relation = make_random_relation(n_rows=300, seed=3)
        space = build_predicate_space(relation)
        n_words = TileKernel.from_relation(relation, space).n_words
        edge = choose_tile_rows(relation.n_rows, n_words)
        assert edge == MAX_TILE_ROWS
        before = obs_metrics.EVIDENCE_TILES.value
        build_evidence_set_tiled(relation, space)
        assert obs_metrics.EVIDENCE_TILES.value - before == len(grid_tiles(300, edge)) == 4

    def test_diagonal_tiles_exclude_diagonal_pairs(self):
        assert Tile(0, 3, 0, 3).n_pairs == 6
        assert Tile(0, 3, 3, 6).n_pairs == 9
        assert Tile(2, 5, 4, 7).n_pairs == 8  # one overlapping diagonal cell

    @pytest.mark.parametrize("edge", [0, -1])
    def test_invalid_edge(self, edge):
        with pytest.raises(ValueError, match="tile_rows"):
            block_tiles((0, 4), (0, 4), edge)
        with pytest.raises(ValueError, match="tile_rows"):
            block_tiles((0, 0), (0, 0), edge)

    def test_empty_relation(self):
        assert block_tiles((0, 0), (0, 0), 4) == ()

    def test_an_edge_past_the_relation_is_one_tile(self):
        assert block_tiles((0, 5), (0, 5), 8) == (Tile(0, 5, 0, 5),)


class TestTileKernel:
    def test_kernel_round_trips_through_pickle(self):
        relation = make_random_relation(n_rows=9, seed=13)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space, include_participation=True)
        clone = pickle.loads(pickle.dumps(kernel))
        shard = Shard((Tile(0, 5, 3, 9),))
        original = kernel.run(shard)
        revived = clone.run(shard)
        assert np.array_equal(original.words, revived.words)
        assert np.array_equal(original.counts, revived.counts)
        assert np.array_equal(original.part_keys, revived.part_keys)
        assert np.array_equal(original.part_counts, revived.part_counts)

    def test_kernel_over_schedule_matches_tiled_builder(self):
        relation = make_random_relation(n_rows=12, seed=5)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        partial = PartialEvidenceSet(relation.n_rows, kernel.n_words)
        for tile in grid_tiles(relation.n_rows, 5):
            tile_partial = kernel.run(Shard((tile,)))
            if tile_partial is not None:
                partial.add_tile(tile_partial)
        assert_evidence_identical(
            partial.finalize(space), build_evidence_set_tiled(relation, space)
        )

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_one_fold_ignores_the_tile_order(self, order):
        relation = make_random_relation(n_rows=14, seed=10)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        tiles = list(grid_tiles(relation.n_rows, 3))
        if order == "reversed":
            tiles.reverse()
        else:
            np.random.default_rng(0).shuffle(tiles)
        assert_evidence_identical(
            fold_tiles(kernel, tuple(tiles)).finalize(space),
            build_evidence_set_tiled(relation, space, tile_rows=3),
        )

    def test_diagonal_1x1_tile_is_empty(self):
        relation = make_random_relation(n_rows=4, seed=1)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        assert kernel.run(Shard((Tile(2, 3, 2, 3),))) is None


class TestFoldMetrics:
    def test_a_fold_counts_every_tile_and_pair(self):
        """One fold is one latency sample, but the tile and pair counters
        still count every non-empty tile and every pair of the schedule."""
        from repro.obs import metrics as obs_metrics

        relation = make_random_relation(n_rows=10, seed=2)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        # A 4 x 4 grid whose last tile is a lone diagonal cell, plus one more.
        tiles = grid_tiles(10, 3) + (Tile(4, 5, 4, 5),)

        def readings():
            return (
                obs_metrics.EVIDENCE_TILES.value,
                obs_metrics.EVIDENCE_PAIRS.value,
                obs_metrics.EVIDENCE_TILE_SECONDS.labels().count,
            )

        before = readings()
        fold_tiles(kernel, tiles)
        middle = readings()
        fold_tiles(kernel, (Tile(9, 10, 9, 10), Tile(0, 1, 0, 1)))
        after = readings()
        assert [m - b for m, b in zip(middle, before)] == [15, 90, 1]
        # Only diagonal cells: nothing is folded or observed.
        assert after == middle


class TestFoldInParts:
    """Folding the schedule in several parts and merging them finalizes
    bit-identically to one fold and to the dense oracle."""

    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_parts_match_tiled_and_dense(self, parts):
        relation = make_random_relation(
            n_rows=23, n_string_columns=2, n_numeric_columns=2, seed=17
        )
        space = build_predicate_space(relation)
        folded = build_evidence_set_in_parts(relation, space, tile_rows=5, parts=parts)
        assert_evidence_identical(
            folded, build_evidence_set_tiled(relation, space, tile_rows=5)
        )
        assert_evidence_identical(folded, build_evidence_set_dense(relation, space))

    def test_fewer_tiles_than_parts(self):
        relation = make_random_relation(n_rows=6, seed=2)
        space = build_predicate_space(relation)
        folded = build_evidence_set_in_parts(relation, space, tile_rows=8, parts=4)
        assert_evidence_identical(
            folded, build_evidence_set_tiled(relation, space, tile_rows=8)
        )

    def test_builds_never_start_a_process(self, monkeypatch):
        """The builder, the miner and store appends fold in-process."""
        import multiprocessing.process

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("an evidence build must not start a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", forbidden)
        relation = make_random_relation(n_rows=12, seed=5)
        space = build_predicate_space(relation)
        assert_evidence_identical(
            build_evidence_set(relation, space, tile_rows=3),
            build_evidence_set_dense(relation, space),
        )
        assert ADCMiner(function="f1", epsilon=0.05).mine(relation).adcs
        store = EvidenceStore(relation.take(range(8)), space=space, tile_rows=3)
        store.append(relation.take(range(8, 12)))
        assert_evidence_identical(store.evidence(), build_evidence_set_dense(relation, space))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_without_participation(self, parts):
        relation = make_random_relation(n_rows=10, seed=3)
        space = build_predicate_space(relation)
        folded = build_evidence_set_in_parts(
            relation, space, tile_rows=4, parts=parts, include_participation=False
        )
        tiled = build_evidence_set_tiled(
            relation, space, include_participation=False, tile_rows=4
        )
        assert not folded.has_participation
        assert_evidence_identical(folded, tiled)

    @pytest.mark.parametrize("n_rows", [1, 2, 3])
    def test_tiny_relations(self, n_rows):
        relation = make_random_relation(n_rows=n_rows, seed=0)
        space = build_predicate_space(relation)
        folded = build_evidence_set_in_parts(relation, space, tile_rows=1, parts=2)
        assert folded.recorded_pairs == n_rows * (n_rows - 1)
        assert_evidence_identical(folded, build_evidence_set_dense(relation, space))

    @pytest.mark.parametrize("parts", [2, 3])
    def test_minimum_tile_edge_matches_the_default_build(self, parts):
        """The minimum edge cuts the schedule into many tiles; folded in
        parts, they give the default build's evidence."""
        relation = make_random_relation(n_rows=40, seed=11)
        space = build_predicate_space(relation)
        folded = build_evidence_set_in_parts(
            relation, space, tile_rows=MIN_TILE_ROWS, parts=parts
        )
        assert_evidence_identical(folded, build_evidence_set(relation, space))

    def test_multi_word_evidence(self):
        """Spaces past 64 predicates key evidences on several words."""
        relation = make_random_relation(
            n_rows=15, n_string_columns=5, n_numeric_columns=5, seed=8
        )
        space = build_predicate_space(relation)
        assert len(space) > 64
        folded = build_evidence_set_in_parts(relation, space, tile_rows=4, parts=3)
        assert folded.words.shape[1] >= 2
        assert_evidence_identical(folded, build_evidence_set_dense(relation, space))

    @pytest.mark.parametrize(
        "n_string_columns, n_numeric_columns", [(3, 0), (0, 3)]
    )
    def test_single_kind_schemas(self, n_string_columns, n_numeric_columns):
        relation = make_random_relation(
            n_rows=13,
            n_string_columns=n_string_columns,
            n_numeric_columns=n_numeric_columns,
            seed=4,
        )
        space = build_predicate_space(relation)
        folded = build_evidence_set_in_parts(relation, space, tile_rows=3, parts=3)
        assert_evidence_identical(folded, build_evidence_set_dense(relation, space))

    @pytest.mark.parametrize("parts", [2, 3, 5, 8])
    def test_merge_tree_matches_left_fold(self, parts):
        relation = make_random_relation(n_rows=12, seed=3)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        tiles = grid_tiles(relation.n_rows, 3)
        size = -(-len(tiles) // parts)
        runs = [tiles[start : start + size] for start in range(0, len(tiles), size)]
        left = fold_tiles(kernel, runs[0])
        for run in runs[1:]:
            left.merge(fold_tiles(kernel, run))
        tree = merge_partials_tree([fold_tiles(kernel, run) for run in runs])
        assert_evidence_identical(tree.finalize(space), left.finalize(space))
        assert_evidence_identical(
            tree.finalize(space), build_evidence_set_tiled(relation, space, tile_rows=3)
        )

    @pytest.mark.parametrize("function", ["f1", "f2", "f3"])
    def test_mining_multi_part_evidence_matches_the_miner(self, function):
        relation = running_example()
        baseline = ADCMiner(function, 0.05).mine(relation)
        assert baseline.adcs
        evidence = build_evidence_set_in_parts(
            relation, baseline.predicate_space, tile_rows=4, parts=3
        )
        adcs, _ = run_enumeration(evidence, get_approximation_function(function), 0.05)
        assert signature(adcs) == signature(baseline.adcs)


    @pytest.mark.parametrize("first", ["numpy", "cext"])
    def test_parts_folded_on_different_backends_merge(self, first):
        """A partial of one kernel backend merges with one of the other and
        finalizes bit-identically to one fold."""
        from repro.native import dispatch
        from tests.numpy_backend import NUMPY_BACKEND

        backends = [NUMPY_BACKEND, dispatch.get_backend()]
        if first == "cext":
            backends.reverse()
        relation = make_random_relation(n_rows=17, seed=12)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        tiles = grid_tiles(relation.n_rows, 4)
        half = len(tiles) // 2
        partials = []
        for backend, run in zip(backends, (tiles[:half], tiles[half:])):
            with dispatch.use_backend(backend):
                partials.append(fold_tiles(kernel, run))
        merged = partials[0].merge(partials[1])
        assert_evidence_identical(
            merged.finalize(space), build_evidence_set_tiled(relation, space, tile_rows=4)
        )


class TestPartialEvidenceSet:
    @staticmethod
    def folded(relation, space, tiles, include_participation=True):
        kernel = TileKernel.from_relation(relation, space, include_participation)
        return fold_tiles(kernel, tiles)

    @pytest.mark.parametrize("include_participation", [False, True])
    def test_empty_partial_finalizes_to_no_evidence(self, include_participation):
        relation = make_random_relation(n_rows=5, seed=1)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space, include_participation)
        partial = PartialEvidenceSet(5, kernel.n_words, include_participation)
        evidence = partial.finalize(space)
        assert len(evidence) == 0
        assert evidence.recorded_pairs == 0
        assert evidence.n_rows == 5
        assert evidence.has_participation == include_participation

    def test_only_diagonal_cells_fold_to_an_empty_partial(self):
        relation = make_random_relation(n_rows=5, seed=1)
        space = build_predicate_space(relation)
        partial = self.folded(relation, space, (Tile(0, 1, 0, 1), Tile(3, 4, 3, 4)))
        assert len(partial) == 0
        assert partial.chunk_count == 0
        assert partial.recorded_pairs == 0

    @pytest.mark.parametrize("empty_side", ["left", "right"])
    def test_merging_an_empty_partial_changes_nothing(self, empty_side):
        relation = make_random_relation(n_rows=9, seed=6)
        space = build_predicate_space(relation)
        tiles = grid_tiles(relation.n_rows, 4)
        full = self.folded(relation, space, tiles)
        empty = self.folded(relation, space, ())
        merged = empty.merge(full) if empty_side == "left" else full.copy().merge(empty)
        assert_evidence_identical(merged.finalize(space), full.finalize(space))

    def test_merge_refuses_partials_of_other_relations(self):
        with pytest.raises(ValueError, match="different relations"):
            PartialEvidenceSet(5, 1).merge(PartialEvidenceSet(6, 1))
        with pytest.raises(ValueError, match="different relations"):
            PartialEvidenceSet(5, 1).merge(PartialEvidenceSet(5, 2))

    def test_merge_refuses_mismatched_participation(self):
        with pytest.raises(ValueError, match="participation"):
            PartialEvidenceSet(5, 1, True).merge(PartialEvidenceSet(5, 1, False))

    def test_add_tile_requires_the_participation_histogram(self):
        relation = make_random_relation(n_rows=6, seed=2)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space, include_participation=False)
        tile_partial = kernel.run(Shard((Tile(0, 6, 0, 6),)))
        partial = PartialEvidenceSet(6, kernel.n_words, include_participation=True)
        with pytest.raises(ValueError, match="participation"):
            partial.add_tile(tile_partial)

    def test_word_histogram_matches_the_finalized_counts(self):
        relation = make_random_relation(n_rows=11, seed=4)
        space = build_predicate_space(relation)
        tiles = grid_tiles(relation.n_rows, 3)
        partial = fold_in_parts(TileKernel.from_relation(relation, space), tiles, 3)
        words, totals = partial.word_histogram()
        evidence = partial.finalize(space)
        assert int(totals.sum()) == partial.recorded_pairs == relation.n_rows * (
            relation.n_rows - 1
        )
        histogram = {row.tobytes(): int(total) for row, total in zip(words, totals)}
        assert histogram == {
            row.tobytes(): int(count) for row, count in zip(evidence.words, evidence.counts)
        }

    def test_copy_is_independent_of_later_merges(self):
        relation = make_random_relation(n_rows=10, seed=7)
        space = build_predicate_space(relation)
        tiles = grid_tiles(relation.n_rows, 4)
        half = len(tiles) // 2
        original = self.folded(relation, space, tiles[:half])
        before = original.finalize(space)
        duplicate = original.copy()
        duplicate.merge(self.folded(relation, space, tiles[half:]))
        assert_evidence_identical(original.finalize(space), before)
        assert_evidence_identical(
            duplicate.finalize(space), build_evidence_set_tiled(relation, space, tile_rows=4)
        )

    def test_the_largest_addressable_relation_is_accepted(self):
        assert PartialEvidenceSet(MAX_ROWS - 1, 1).n_rows == MAX_ROWS - 1

    def test_no_key_chunks_give_empty_participation(self):
        offsets, tuple_ids, pair_counts = participation_csr(
            *aggregate_key_histogram([], [], 3), 3
        )
        assert offsets.tolist() == [0, 0, 0, 0]
        assert len(tuple_ids) == len(pair_counts) == 0

    def test_participation_csr_cuts_keys_per_evidence(self):
        keys = np.array([(0 << 32) | 1, (0 << 32) | 4, (2 << 32) | 0], dtype=np.int64)
        counts = np.array([3, 1, 2], dtype=np.int64)
        offsets, tuple_ids, pair_counts = participation_csr(keys, counts, 3)
        assert offsets.tolist() == [0, 2, 2, 3]
        assert tuple_ids.tolist() == [1, 4, 0]
        assert pair_counts.tolist() == [3, 1, 2]


class TestTileWords:
    """``TileKernel.tile_words`` is the un-deduplicated view of a fold: the
    violation service replays it to recover which pairs carry an evidence."""

    @pytest.mark.parametrize("tile_rows", [3, 5])
    def test_replayed_tiles_rebuild_the_fold(self, tile_rows):
        relation = make_random_relation(n_rows=11, seed=9)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        tiles = grid_tiles(relation.n_rows, tile_rows)
        replayed = [kernel.tile_words(tile) for tile in tiles]
        words = np.concatenate([tile[0] for tile in replayed])
        pairs = {
            (int(i), int(j))
            for _, left, right in replayed
            for i, j in zip(left, right)
        }
        n = relation.n_rows
        assert len(words) == len(pairs) == n * (n - 1)
        assert all(i != j for i, j in pairs)
        distinct, counts = np.unique(words, axis=0, return_counts=True)
        evidence = fold_tiles(kernel, tiles).finalize(space)
        assert np.array_equal(distinct, evidence.words)
        assert np.array_equal(counts, evidence.counts)

    def test_shard_counts_its_tiles_and_pairs(self):
        shard = Shard((Tile(0, 3, 0, 3), Tile(0, 3, 3, 5), Tile(3, 5, 0, 3)))
        assert len(shard) == 3
        assert shard.n_pairs == 6 + 6 + 6
