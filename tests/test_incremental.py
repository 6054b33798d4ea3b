"""Tests of the incremental evidence subsystem (delta builder + store).

The load-bearing claim is the store's invariant: any schedule of appends
followed by finalization is **bit-identical** — words, canonical order,
multiplicities, tuple participation — to a full tiled rebuild on the
concatenated relation with the same predicate space.  Hypothesis drives
random relations through random append schedules against that claim; the
deterministic tests pin down the delta tile geometry, the participation
rebase, cache invalidation, and the parallel delta path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_relation
from tests.test_engine import assert_evidence_identical
from repro.core.evidence_builder import build_evidence_set_tiled
from repro.core.predicate_space import build_predicate_space
from repro.engine import PartialEvidenceSet, TileKernel, TileScheduler
from repro.incremental import DeltaEvidenceBuilder, EvidenceStore, delta_tiles


def _split_rows(relation, boundaries):
    """Initial slice + batches of ``relation`` cut at ``boundaries``."""
    edges = [0, *boundaries, relation.n_rows]
    parts = [
        relation.take(range(lo, hi)) for lo, hi in zip(edges, edges[1:]) if hi > lo
    ]
    return parts[0], parts[1:]


class TestDeltaTiles:
    def test_empty_append_has_no_tiles(self):
        assert delta_tiles(5, 5, 2) == ()

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            delta_tiles(6, 5, 2)
        with pytest.raises(ValueError):
            delta_tiles(-1, 5, 2)

    @pytest.mark.parametrize("n_existing,n_total", [(0, 4), (3, 7), (5, 6)])
    def test_cross_only_tiles_skip_the_new_square(self, n_existing, n_total):
        tiles = delta_tiles(n_existing, n_total, 2, include_new_vs_new=False)
        covered = np.zeros((n_total, n_total), dtype=np.int64)
        for tile in tiles:
            covered[tile.i0:tile.i1, tile.j0:tile.j1] += 1
        assert (covered[:n_existing, :n_existing] == 0).all()
        assert (covered[n_existing:, n_existing:] == 0).all()
        assert (covered[n_existing:, :n_existing] == 1).all()
        assert (covered[:n_existing, n_existing:] == 1).all()

    @pytest.mark.parametrize("n_existing,n_total,tile_rows", [
        (0, 4, 2), (1, 5, 2), (4, 5, 3), (5, 9, 2), (7, 8, 16), (3, 11, 1),
    ])
    def test_tiles_cover_exactly_the_added_pairs(self, n_existing, n_total, tile_rows):
        tiles = delta_tiles(n_existing, n_total, tile_rows)
        covered = np.zeros((n_total, n_total), dtype=np.int64)
        for tile in tiles:
            covered[tile.i0:tile.i1, tile.j0:tile.j1] += 1
        # Pairs among existing rows are untouched; every pair involving a
        # new row is covered exactly once.
        assert (covered[:n_existing, :n_existing] == 0).all()
        assert (covered[n_existing:, :] == 1).all()
        assert (covered[:, n_existing:] == 1).all()
        # Declared pair counts agree with the covered area minus diagonals.
        total = sum(tile.n_pairs for tile in tiles)
        expected = n_total * (n_total - 1) - n_existing * (n_existing - 1)
        assert total == expected


class TestRectangularScheduler:
    def test_block_tiles_stay_inside_the_block(self):
        scheduler = TileScheduler(10, tile_rows=3, rows=(6, 10), cols=(0, 6))
        for tile in scheduler:
            assert 6 <= tile.i0 < tile.i1 <= 10
            assert 0 <= tile.j0 < tile.j1 <= 6
        assert scheduler.total_pairs == 4 * 6  # no diagonal overlap
        assert scheduler.grid_shape == (2, 2)

    def test_off_diagonal_block_counts_no_diagonal(self):
        scheduler = TileScheduler(10, tile_rows=4, rows=(2, 8), cols=(5, 10))
        # Diagonal overlap of [2, 8) x [5, 10) is rows 5, 6, 7.
        assert scheduler.total_pairs == 6 * 5 - 3

    def test_default_ranges_reproduce_the_full_grid(self):
        full = TileScheduler(9, tile_rows=4)
        ranged = TileScheduler(9, tile_rows=4, rows=(0, 9), cols=(0, 9))
        assert full.tiles() == ranged.tiles()
        assert full.total_pairs == 9 * 8

    def test_out_of_range_block_raises(self):
        with pytest.raises(ValueError):
            TileScheduler(5, tile_rows=2, rows=(3, 7))
        with pytest.raises(ValueError):
            TileScheduler(5, tile_rows=2, cols=(-1, 4))


class TestPartialRebase:
    def test_rebase_keeps_participation(self):
        relation = make_random_relation(n_rows=6, seed=3)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space, include_participation=True)
        partial = PartialEvidenceSet(6, kernel.n_words, True)
        for tile in TileScheduler(6, tile_rows=3):
            result = kernel.run(tile)
            if result is not None:
                partial.add_tile(result)
        reference = partial.copy().finalize(space)

        rebased = partial.copy().rebase_rows(10)
        assert rebased.n_rows == 10
        grown = rebased.finalize(space)
        # Same evidences and counts; participation decodes to the same
        # (tuple, count) rows because keys do not depend on the row count.
        assert np.array_equal(grown.words, reference.words)
        assert np.array_equal(grown.counts, reference.counts)
        for index in range(len(reference)):
            a, b = grown.participation(index), reference.participation(index)
            assert np.array_equal(a.tuple_ids, b.tuple_ids)
            assert np.array_equal(a.pair_counts, b.pair_counts)

    def test_rebase_shrinking_raises(self):
        partial = PartialEvidenceSet(5, 1, False)
        with pytest.raises(ValueError):
            partial.rebase_rows(4)

    def test_rebase_does_not_mutate_copies(self):
        relation = make_random_relation(n_rows=5, seed=9)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space, include_participation=True)
        partial = PartialEvidenceSet(5, kernel.n_words, True)
        for tile in TileScheduler(5, tile_rows=2):
            result = kernel.run(tile)
            if result is not None:
                partial.add_tile(result)
        duplicate = partial.copy()
        before = [chunk.copy() for chunk in duplicate._part_key_chunks]
        partial.rebase_rows(12)
        for chunk, original in zip(duplicate._part_key_chunks, before):
            assert np.array_equal(chunk, original)

    def test_rebase_keeps_every_chunk_array(self):
        relation = make_random_relation(n_rows=6, seed=4)
        space = build_predicate_space(relation)
        partial = DeltaEvidenceBuilder(space, tile_rows=2).full_partial(relation)
        before = [list(chunks) for chunks in partial._chunk_lists()]
        partial.rebase_rows(1000)
        after = partial._chunk_lists()
        assert [len(chunks) for chunks in after] == [len(chunks) for chunks in before]
        for old_chunks, new_chunks in zip(before, after):
            assert all(a is b for a, b in zip(old_chunks, new_chunks))

    def test_row_counts_past_the_key_field_raise(self):
        limit = 1 << 32
        with pytest.raises(ValueError, match="row limit"):
            PartialEvidenceSet(limit, 1, True)
        partial = PartialEvidenceSet(limit - 1, 1, True)
        with pytest.raises(ValueError, match="row limit"):
            partial.rebase_rows(limit)
        assert partial.n_rows == limit - 1
        with pytest.raises(ValueError, match="row limit"):
            TileKernel([], limit, 1)


class TestCompaction:
    @pytest.mark.parametrize("include_participation", [True, False])
    def test_compact_finalizes_identically_and_spares_copies(
        self, example_relation, example_space, include_participation
    ):
        builder = DeltaEvidenceBuilder(
            example_space, include_participation=include_participation, tile_rows=3
        )
        partial = builder.full_partial(example_relation)
        expected = partial.finalize(example_space)
        duplicate = partial.copy()
        shared = [list(chunks) for chunks in duplicate._chunk_lists()]
        partial.compact()
        # One histogram chunk per list (participation lists stay empty when off).
        assert [len(chunks) for chunks in partial._chunk_lists()] == (
            [1, 1, 1, 1] if include_participation else [1, 1, 0, 0]
        )
        assert_evidence_identical(partial.finalize(example_space), expected)
        for old_chunks, kept in zip(shared, duplicate._chunk_lists()):
            assert all(a is b for a, b in zip(old_chunks, kept))
        assert_evidence_identical(duplicate.finalize(example_space), expected)
        assert partial.recorded_pairs == duplicate.recorded_pairs
        assert partial.chunk_bytes < duplicate.chunk_bytes

    def test_compact_empty_partial_is_a_noop(self):
        partial = PartialEvidenceSet(1, 1, True).compact()
        assert partial.chunk_count == 0 and partial.chunk_bytes == 0

    def test_failed_compaction_keeps_the_chunks(self, example_relation, monkeypatch):
        import repro.engine.partial as partial_module

        space = build_predicate_space(example_relation)
        initial, batches = _split_rows(example_relation, (10,))
        store = EvidenceStore(initial, space=space, tile_rows=4)

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(partial_module, "aggregate_key_histogram", out_of_memory)
        # Five rows onto a ten-row seed outweigh the seed: compaction is due.
        assert store.append(batches[0]) == 5
        monkeypatch.undo()
        assert store.compactions == 0
        assert store.generation == 1
        chunks = store.partial.chunk_count
        assert chunks > 4
        assert_evidence_identical(store.evidence(), _rebuild(example_relation, space))
        # The next append past the threshold compacts for real.
        store.append([example_relation.row(0)])
        assert store.compactions == 1
        assert store.partial.chunk_count == 4

    def test_long_trickle_stays_within_twice_compacted(self):
        """Resource bound: chunk bytes stay within 2x the compacted state.

        Every one of 310 single-row appends onto a 310-row seed must leave
        the chunks within twice the compacted histogram and must leave the
        chunk arrays it found untouched (same objects) unless it compacted.
        """
        from repro.data.datasets import generate_dataset

        full = generate_dataset("tax", n_rows=620, seed=5).relation
        # One seed tile: the seed's chunks are then already its compacted
        # histogram, which is the baseline of the 2x rule.
        store = EvidenceStore(full.take(range(310)), tile_rows=512)
        partial = store.partial
        assert len(partial._id_chunks) == 1
        for index in range(310, 620):
            held = [list(chunks) for chunks in partial._chunk_lists()]
            compactions = store.compactions
            store.append([full.row(index)])
            if store.compactions == compactions:
                for old_chunks, new_chunks in zip(held, partial._chunk_lists()):
                    assert all(a is b for a, b in zip(old_chunks, new_chunks))
            words, totals, part_keys, part_counts = partial.state_arrays()
            # The compacted partial holds one id and one count per distinct
            # evidence plus the (evidence, tuple) histogram.
            compacted_bytes = 2 * totals.nbytes + part_keys.nbytes + part_counts.nbytes
            part_bytes = sum(
                chunk.nbytes
                for chunk in partial._part_key_chunks + partial._part_count_chunks
            )
            assert part_bytes <= 2 * (part_keys.nbytes + part_counts.nbytes)
            assert partial.chunk_bytes <= 2 * compacted_bytes
        assert store.compactions >= 2
        assert_evidence_identical(
            store.evidence(), build_evidence_set_tiled(full, store.space)
        )


def _rebuild(relation, space, include_participation=True):
    return build_evidence_set_tiled(
        relation, space, include_participation=include_participation
    )


class TestEvidenceStore:
    @pytest.mark.parametrize("boundaries", [(10,), (10, 13), (2,), (14,), (5, 6, 7)])
    def test_append_matches_full_rebuild(self, example_relation, boundaries):
        space = build_predicate_space(example_relation)
        initial, batches = _split_rows(example_relation, boundaries)
        store = EvidenceStore(initial, space=space, tile_rows=4)
        for batch in batches:
            store.append(batch)
        assert_evidence_identical(store.evidence(), _rebuild(example_relation, space))

    def test_append_record_dicts(self, example_relation):
        space = build_predicate_space(example_relation)
        initial, batches = _split_rows(example_relation, (12,))
        store = EvidenceStore(initial, space=space)
        (batch,) = batches
        appended = store.append([batch.row(i) for i in range(batch.n_rows)])
        assert appended == 3
        assert_evidence_identical(store.evidence(), _rebuild(example_relation, space))

    def test_append_without_participation(self, example_relation):
        space = build_predicate_space(example_relation)
        initial, batches = _split_rows(example_relation, (8,))
        store = EvidenceStore(initial, space=space, include_participation=False)
        for batch in batches:
            store.append(batch)
        expected = _rebuild(example_relation, space, include_participation=False)
        assert_evidence_identical(store.evidence(), expected)

    def test_cluster_delta_matches_serial(self, example_relation):
        from repro.cluster import LocalCluster

        space = build_predicate_space(example_relation)
        initial, batches = _split_rows(example_relation, (9,))
        serial = EvidenceStore(initial, space=space, tile_rows=2)
        with LocalCluster(2, transport="local") as cluster:
            clustered = EvidenceStore(initial, space=space, tile_rows=2, cluster=cluster)
            for batch in batches:
                serial.append(batch)
                clustered.append(batch)
        assert_evidence_identical(serial.evidence(), clustered.evidence())

    def test_empty_append_is_a_noop(self, example_relation):
        store = EvidenceStore(example_relation)
        evidence = store.evidence()
        assert store.append([]) == 0
        assert store.generation == 0
        assert store.evidence() is evidence

    def test_evidence_cache_invalidated_on_append(self, example_relation):
        initial, batches = _split_rows(example_relation, (10,))
        space = build_predicate_space(example_relation)
        store = EvidenceStore(initial, space=space)
        first = store.evidence()
        assert store.evidence() is first
        store.append(batches[0])
        assert store.generation == 1
        assert store.evidence() is not first
        assert store.n_rows == example_relation.n_rows

    def test_failed_append_leaves_the_store_consistent(self, example_relation, monkeypatch):
        """A delta-build failure must not half-commit the append."""
        space = build_predicate_space(example_relation)
        initial, batches = _split_rows(example_relation, (10,))
        store = EvidenceStore(initial, space=space)
        before = store.evidence()

        def broken(relation, n_existing):  # pragma: no cover - failure path
            raise RuntimeError("worker pool died")

        monkeypatch.setattr(store.builder, "delta_partial", broken)
        with pytest.raises(RuntimeError):
            store.append(batches[0])
        assert store.n_rows == 10
        assert store.generation == 0
        assert store.evidence() is before
        monkeypatch.undo()

        # Retrying the same batch after the failure works and stays exact.
        store.append(batches[0])
        assert_evidence_identical(store.evidence(), _rebuild(example_relation, space))

    def test_failed_coercion_leaves_the_store_consistent(self, example_relation):
        initial, batches = _split_rows(example_relation, (10,))
        store = EvidenceStore(initial)
        bad_row = dict(batches[0].row(0))
        bad_row["Income"] = "not-a-number"
        with pytest.raises(ValueError):
            store.append([bad_row])
        assert store.n_rows == 10
        assert store.generation == 0

    def test_store_copies_the_input_relation(self, example_relation):
        initial, batches = _split_rows(example_relation, (10,))
        store = EvidenceStore(initial)
        store.append(batches[0])
        assert initial.n_rows == 10
        assert store.n_rows == 15

    def test_clone_is_independent(self, example_relation):
        initial, batches = _split_rows(example_relation, (10,))
        space = build_predicate_space(example_relation)
        store = EvidenceStore(initial, space=space)
        clone = store.clone()
        store.append(batches[0])
        assert clone.n_rows == 10
        assert store.n_rows == 15
        assert_evidence_identical(clone.evidence(), _rebuild(initial, space))
        assert_evidence_identical(store.evidence(), _rebuild(example_relation, space))

    def test_remine_matches_batch_enumeration(self, example_relation):
        from repro.core.adc_enum import enumerate_adcs

        space = build_predicate_space(example_relation)
        initial, batches = _split_rows(example_relation, (10,))
        store = EvidenceStore(initial, space=space)
        for batch in batches:
            store.append(batch)
        incremental = store.remine(0.05)
        reference = enumerate_adcs(_rebuild(example_relation, space), epsilon=0.05)
        assert [adc.hitting_set_mask for adc in incremental] == [
            adc.hitting_set_mask for adc in reference
        ]
        assert [adc.violation_score for adc in incremental] == [
            adc.violation_score for adc in reference
        ]
        assert store.last_enumeration_statistics is not None
        assert store.last_enumeration_statistics.recursive_calls > 0


class TestAppendScheduleProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n_rows=st.integers(min_value=2, max_value=14),
        seed=st.integers(min_value=0, max_value=10**6),
        n_string_columns=st.integers(min_value=0, max_value=2),
        n_numeric_columns=st.integers(min_value=1, max_value=2),
        tile_rows=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_random_append_schedule_is_bit_identical(
        self, n_rows, seed, n_string_columns, n_numeric_columns, tile_rows, data
    ):
        relation = make_random_relation(
            n_rows=n_rows,
            n_string_columns=n_string_columns,
            n_numeric_columns=n_numeric_columns,
            seed=seed,
        )
        # A random strictly-increasing cut schedule: initial prefix (may be
        # empty appends in between) followed by arbitrary batch sizes.
        boundaries = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=n_rows - 1),
                unique=True,
                max_size=4,
            ).map(sorted),
            label="boundaries",
        )
        space = build_predicate_space(relation)
        initial, batches = _split_rows(relation, boundaries)
        store = EvidenceStore(initial, space=space, tile_rows=tile_rows)
        for batch in batches:
            store.append(batch)
        assert_evidence_identical(store.evidence(), _rebuild(relation, space))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        first=st.integers(min_value=1, max_value=5),
        second=st.integers(min_value=1, max_value=5),
    )
    def test_single_row_trickle_matches_rebuild(self, seed, first, second):
        relation = make_random_relation(n_rows=first + second + 1, seed=seed)
        space = build_predicate_space(relation)
        initial, batches = _split_rows(relation, tuple(range(first, first + second + 1)))
        store = EvidenceStore(initial, space=space)
        for batch in batches:
            assert batch.n_rows == 1
            store.append(batch)
        assert_evidence_identical(store.evidence(), _rebuild(relation, space))


class TestDeltaBuilder:
    def test_delta_plus_seed_equals_full(self, example_relation):
        space = build_predicate_space(example_relation)
        builder = DeltaEvidenceBuilder(space, tile_rows=4)
        initial = example_relation.take(range(11))
        seed_partial = builder.full_partial(initial)

        grown = initial.copy()
        grown.append_rows(example_relation.take(range(11, 15)))
        delta = builder.delta_partial(grown, 11)
        merged = seed_partial.rebase_rows(grown.n_rows).merge(delta)
        assert_evidence_identical(
            merged.finalize(space), _rebuild(example_relation, space)
        )

    def test_fold_is_the_attached_cluster_else_serial(self, example_relation, monkeypatch):
        import repro.cluster.build as cluster_build
        import repro.incremental.delta as delta_module
        from repro.cluster import LocalCluster

        space = build_predicate_space(example_relation)
        expected = _rebuild(example_relation, space)
        calls = []

        def counting(name, fold):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fold(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            delta_module, "fold_tiles", counting("serial", delta_module.fold_tiles)
        )
        monkeypatch.setattr(
            cluster_build,
            "fold_tiles_cluster",
            counting("cluster", cluster_build.fold_tiles_cluster),
        )
        serial = DeltaEvidenceBuilder(space, tile_rows=4)
        assert_evidence_identical(
            serial.full_partial(example_relation).finalize(space), expected
        )
        assert calls == ["serial"]
        with LocalCluster(2, transport="local") as cluster:
            clustered = DeltaEvidenceBuilder(space, tile_rows=4, cluster=cluster)
            partial = clustered.full_partial(example_relation)
        assert_evidence_identical(partial.finalize(space), expected)
        assert calls == ["serial", "cluster"]

    def test_cluster_tile_edge_splits_the_memory_budget(self, example_space):
        from repro.cluster import LocalCluster
        from repro.engine.parallel import parallel_tile_rows
        from repro.engine.scheduler import choose_tile_rows

        budget = 2**22
        serial = DeltaEvidenceBuilder(example_space, memory_budget_bytes=budget)
        n_words = serial.n_words
        assert serial.tile_edge(10_000) == choose_tile_rows(10_000, n_words, budget)
        with LocalCluster(2, transport="local") as cluster:
            clustered = DeltaEvidenceBuilder(
                example_space, cluster=cluster, memory_budget_bytes=budget
            )
            edge = clustered.tile_edge(10_000)
        assert edge == parallel_tile_rows(10_000, n_words, 2, budget)
        # The two workers' concurrent kernels stay within the shared budget.
        assert edge <= choose_tile_rows(10_000, n_words, budget // 2)
