"""Unit tests of the evidence engine (scheduler, kernel, partials).

Covers the adaptive tile-size budget math, the tile schedule and its shard
partitioning, picklability of the tile kernel, the folded tiles being
bit-identical to the serial tiled builder, and the parallel fold — the same
tiles over a worker cluster, the one parallel runtime — being bit-identical
to the serial fold and the dense oracle.  The cluster fabric itself is
tested in ``tests/test_cluster.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from tests.conftest import make_random_relation
from repro.cluster import LocalCluster, build_evidence_set_cluster
from repro.core.evidence_builder import (
    build_evidence_set,
    build_evidence_set_dense,
    build_evidence_set_tiled,
)
from repro.core.miner import ADCMiner
from repro.core.predicate_space import build_predicate_space
from repro.engine import (
    PartialEvidenceSet,
    Tile,
    TileKernel,
    TileScheduler,
    choose_tile_rows,
    parallel_tile_rows,
)
from repro.engine.parallel import SHARDS_PER_WORKER
from repro.incremental import EvidenceStore
from repro.engine.scheduler import MAX_TILE_ROWS, MIN_TILE_ROWS, _KERNEL_PLANES


def assert_evidence_identical(left, right) -> None:
    """Bit-identical words, multiplicities, and (if present) participation."""
    assert np.array_equal(left.words, right.words)
    assert np.array_equal(left.counts, right.counts)
    assert left.n_rows == right.n_rows
    assert left.has_participation == right.has_participation
    if left.has_participation:
        for index in range(len(left)):
            a = left.participation(index)
            b = right.participation(index)
            assert np.array_equal(a.tuple_ids, b.tuple_ids)
            assert np.array_equal(a.pair_counts, b.pair_counts)


class TestChooseTileRows:
    def test_budgeted_tile_fits_the_budget(self):
        # In the unclamped region the kernel's transient bytes stay within
        # budget: 3 planes of 8 * n_words bytes per pair.
        for n_words in (1, 2, 8):
            budget = _KERNEL_PLANES * 8 * n_words * 100 * 100
            tile = choose_tile_rows(10**6, n_words, budget)
            assert tile == 100
            assert _KERNEL_PLANES * 8 * n_words * tile * tile <= budget

    def test_monotone_in_budget(self):
        tiles = [
            choose_tile_rows(10**6, 4, budget)
            for budget in (2**18, 2**21, 2**24, 2**27)
        ]
        assert tiles == sorted(tiles)

    def test_wider_spaces_get_smaller_tiles(self):
        budget = 2**22
        assert choose_tile_rows(10**6, 16, budget) < choose_tile_rows(10**6, 1, budget)

    def test_floor_and_cap(self):
        assert choose_tile_rows(10**6, 1, 1) == MIN_TILE_ROWS
        assert choose_tile_rows(10**6, 1, 2**60) == MAX_TILE_ROWS

    def test_clamped_by_relation_size(self):
        assert choose_tile_rows(5, 1, 2**30) == 5
        assert choose_tile_rows(1, 1, 1) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            choose_tile_rows(0, 1)
        with pytest.raises(ValueError):
            choose_tile_rows(10, 0)
        with pytest.raises(ValueError):
            choose_tile_rows(10, 1, 0)


class TestTileScheduler:
    def test_tiles_cover_the_pair_matrix_exactly_once(self):
        scheduler = TileScheduler(n_rows=10, tile_rows=3)
        covered = np.zeros((10, 10), dtype=int)
        for tile in scheduler:
            covered[tile.i0 : tile.i1, tile.j0 : tile.j1] += 1
        assert (covered == 1).all()
        assert scheduler.total_pairs == 10 * 9
        assert sum(tile.n_pairs for tile in scheduler) == 10 * 9

    def test_grid_and_len(self):
        scheduler = TileScheduler(n_rows=10, tile_rows=3)
        assert scheduler.grid == 4
        assert len(scheduler) == 16

    def test_adaptive_default_tile_rows(self):
        scheduler = TileScheduler(n_rows=10**6, n_words=2, memory_budget_bytes=2**22)
        assert scheduler.tile_rows == choose_tile_rows(10**6, 2, 2**22)

    def test_diagonal_tiles_exclude_diagonal_pairs(self):
        assert Tile(0, 3, 0, 3).n_pairs == 6
        assert Tile(0, 3, 3, 6).n_pairs == 9
        assert Tile(2, 5, 4, 7).n_pairs == 8  # one overlapping diagonal cell

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 99])
    def test_shards_partition_tiles_contiguously(self, k):
        scheduler = TileScheduler(n_rows=11, tile_rows=3)
        shards = scheduler.shards(k)
        assert len(shards) == min(k, len(scheduler))
        assert shards[0].start == 0
        assert shards[-1].stop == len(scheduler)
        position = 0
        for shard in shards:
            assert shard.start == position
            assert shard.stop > shard.start
            assert shard.tiles == scheduler.tiles()[shard.start : shard.stop]
            position = shard.stop
        assert sum(shard.n_pairs for shard in shards) == scheduler.total_pairs

    def test_shards_are_balanced(self):
        scheduler = TileScheduler(n_rows=64, tile_rows=4)
        shards = scheduler.shards(4)
        fair_share = scheduler.total_pairs / 4
        for shard in shards:
            assert shard.n_pairs <= 2 * fair_share

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            TileScheduler(n_rows=-1)
        with pytest.raises(ValueError):
            TileScheduler(n_rows=4, tile_rows=0)
        with pytest.raises(ValueError):
            TileScheduler(n_rows=4, tile_rows=2).shards(0)

    def test_empty_relation(self):
        scheduler = TileScheduler(n_rows=0, tile_rows=4)
        assert len(scheduler) == 0
        assert scheduler.shards(3) == []


class TestTileKernel:
    def test_kernel_round_trips_through_pickle(self):
        relation = make_random_relation(n_rows=9, seed=13)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space, include_participation=True)
        clone = pickle.loads(pickle.dumps(kernel))
        tile = Tile(0, 5, 3, 9)
        original = kernel.run(tile)
        revived = clone.run(tile)
        assert np.array_equal(original.words, revived.words)
        assert np.array_equal(original.counts, revived.counts)
        assert np.array_equal(original.part_keys, revived.part_keys)
        assert np.array_equal(original.part_counts, revived.part_counts)

    def test_kernel_over_schedule_matches_tiled_builder(self):
        relation = make_random_relation(n_rows=12, seed=5)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        partial = PartialEvidenceSet(relation.n_rows, kernel.n_words)
        for tile in TileScheduler(relation.n_rows, tile_rows=5):
            tile_partial = kernel.run(tile)
            if tile_partial is not None:
                partial.add_tile(tile_partial)
        assert_evidence_identical(
            partial.finalize(space), build_evidence_set_tiled(relation, space)
        )

    def test_diagonal_1x1_tile_is_empty(self):
        relation = make_random_relation(n_rows=4, seed=1)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        assert kernel.run(Tile(2, 3, 2, 3)) is None


class TestParallelTileRows:
    @pytest.mark.parametrize("n_rows", [2, 500, 10**6])
    def test_one_worker_gets_the_serial_edge(self, n_rows):
        for budget in (2**16, 2**22, 2**30):
            assert parallel_tile_rows(n_rows, 3, 1, budget) == choose_tile_rows(
                n_rows, 3, budget
            )

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_budget_split_and_enough_shards_per_worker(self, n_workers):
        n_rows, n_words = 10_000, 2
        for budget in (2**20, 2**40):
            edge = parallel_tile_rows(n_rows, n_words, n_workers, budget)
            # The workers' concurrent kernels stay within the shared budget...
            assert edge <= choose_tile_rows(n_rows, n_words, budget // n_workers)
            # ...and a large budget still leaves every worker several shards.
            scheduler = TileScheduler(n_rows, tile_rows=edge, n_words=n_words)
            assert len(scheduler) >= SHARDS_PER_WORKER * n_workers


def _forbid_parallel_runtimes(monkeypatch):
    import multiprocessing.process

    import repro.cluster.build as cluster_build

    def forbidden(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("a serial path must not reach a parallel runtime")

    monkeypatch.setattr(cluster_build, "fold_tiles_cluster", forbidden)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", forbidden)


class TestParallelBuilder:
    """The parallel evidence path is ``cluster=``: the serial schedule's
    tiles, sharded over the workers, finalize bit-identically to the serial
    fold and the dense oracle for every worker count."""

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_parallel_matches_tiled_and_dense(self, n_workers):
        relation = make_random_relation(
            n_rows=23, n_string_columns=2, n_numeric_columns=2, seed=17
        )
        space = build_predicate_space(relation)
        with LocalCluster(n_workers, transport="local") as cluster:
            parallel = build_evidence_set_cluster(relation, space, cluster, tile_rows=5)
        assert_evidence_identical(
            parallel, build_evidence_set_tiled(relation, space, tile_rows=5)
        )
        assert_evidence_identical(parallel, build_evidence_set_dense(relation, space))

    def test_fewer_tiles_than_workers(self):
        # One tile -> one shard, far fewer than the cluster's workers.
        relation = make_random_relation(n_rows=6, seed=2)
        space = build_predicate_space(relation)
        with LocalCluster(4, transport="local") as cluster:
            parallel = build_evidence_set_cluster(relation, space, cluster, tile_rows=8)
        assert_evidence_identical(
            parallel, build_evidence_set_tiled(relation, space, tile_rows=8)
        )

    def test_shards_per_worker(self, monkeypatch):
        """The fold issues ``SHARDS_PER_WORKER`` tasks per live worker."""
        relation = make_random_relation(n_rows=40, seed=9)
        space = build_predicate_space(relation)
        submitted = []
        with LocalCluster(2, transport="local") as cluster:
            coordinator = cluster.coordinator
            submit = coordinator.submit

            def recording_submit(context, tasks, *args, **kwargs):
                submitted.append(len(tasks))
                return submit(context, tasks, *args, **kwargs)

            monkeypatch.setattr(coordinator, "submit", recording_submit)
            parallel = build_evidence_set_cluster(relation, space, cluster, tile_rows=4)
        assert submitted == [SHARDS_PER_WORKER * 2]
        assert_evidence_identical(
            parallel, build_evidence_set_tiled(relation, space, tile_rows=4)
        )

    def test_serial_paths_never_start_a_parallel_runtime(self, monkeypatch):
        """Without ``cluster=``, the builder, the miner and store appends fold
        in-process: no cluster fold, no child process."""
        _forbid_parallel_runtimes(monkeypatch)
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

    def test_dispatcher_and_miner_integration(self):
        relation = make_random_relation(n_rows=14, seed=21)
        space = build_predicate_space(relation)
        tiled_run = ADCMiner(function="f1", epsilon=0.05).mine(relation)
        with LocalCluster(2, transport="local") as cluster:
            via_dispatcher = build_evidence_set(
                relation, space, method="cluster", cluster=cluster, tile_rows=6
            )
            cluster_run = ADCMiner(function="f1", epsilon=0.05, cluster=cluster).mine(
                relation
            )
        assert_evidence_identical(
            via_dispatcher, build_evidence_set(relation, space, method="tiled", tile_rows=6)
        )
        assert {str(adc.constraint) for adc in cluster_run.adcs} == {
            str(adc.constraint) for adc in tiled_run.adcs
        }
