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
from tests.reference import fold_in_parts
from tests.test_engine import assert_evidence_identical
from repro.core.evidence_builder import build_evidence_set_tiled
from repro.core.predicate_space import build_predicate_space
from repro.core.predicates import PredicateForm
from repro.data.relation import Relation
from repro.engine import PartialEvidenceSet, Shard, TileKernel, TileScheduler, fold_tiles
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
        with pytest.raises(ValueError, match="tile_rows"):
            delta_tiles(3, 5, 0)

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
        (20, 21, 4), (30, 33, 4), (3, 40, 4), (25, 31, 3),
    ])
    def test_tiles_cover_exactly_the_added_pairs(self, n_existing, n_total, tile_rows):
        tiles = delta_tiles(n_existing, n_total, tile_rows)
        # Tiles are bounded by pairs (cells), not by edge.
        assert all(
            (tile.i1 - tile.i0) * (tile.j1 - tile.j0) <= tile_rows**2 for tile in tiles
        )
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


class TestDeltaTileCount:
    @pytest.mark.parametrize("n_rows", [200, 2000, 8000])
    def test_single_row_append_and_check_issue_two_tiles_at_any_n(
        self, n_rows, monkeypatch
    ):
        """Latency as a resource bound: a count, not a timing."""
        from repro.core.dc import DenialConstraint
        from repro.core.evidence import n_words_for
        from repro.incremental import ViolationService

        relation = make_random_relation(n_rows=n_rows + 1, domain_size=50, seed=n_rows)
        seed_rows = relation.take(range(n_rows))
        space = build_predicate_space(seed_rows)
        # Adopting an empty partial skips the seed build: only delta tiles
        # run, and their count is all this test reads.
        store = EvidenceStore.from_state(
            seed_rows, space, PartialEvidenceSet(n_rows, n_words_for(len(space)))
        )
        service = ViolationService(
            store, [DenialConstraint([space[0]])], base_counts_provider=lambda: [0]
        )
        issued = []
        run = TileKernel.run

        def counting_run(kernel, tiles):
            issued.append(tiles.tiles)
            return run(kernel, tiles)

        monkeypatch.setattr(TileKernel, "run", counting_run)
        row = relation.row(n_rows)
        service.check_batch([row])
        checked = issued[:]
        issued.clear()
        store.append([row])
        appended = issued[:]

        edge = store.builder.tile_edge(n_rows + 1)
        for folds in (checked, appended):
            # One fold per operation, over two tiles.
            assert len(folds) == 1
            tiles = folds[0]
            assert len(tiles) == 2
            assert all(tile.n_pairs <= edge * edge for tile in tiles)
            # One strip per orientation: together they are the 2n added pairs.
            assert {(tile.i0, tile.i1, tile.j0, tile.j1) for tile in tiles} == {
                (n_rows, n_rows + 1, 0, n_rows),
                (0, n_rows, n_rows, n_rows + 1),
            }


def _shared_vocabulary_relation():
    """Two string columns over one vocabulary, plus a numeric column.

    ``"c"`` and ``"d"`` first appear in column ``R`` only; later rows carry
    them in ``L`` in the other order, which reorders a vocabulary built left
    column first.
    """
    left = ["a", "b", "a", "b", "d", "c", "a", "c", "b", "e", "d", "e"]
    right = ["b", "c", "d", "a", "a", "b", "c", "d", "e", "a", "e", "c"]
    numbers = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]
    return Relation("shared", {"L": left, "R": right, "N": numbers})


class TestKernelPlanes:
    def test_joint_string_codes_are_stable_under_appends(self):
        relation = _shared_vocabulary_relation()
        grown = relation.take(range(4))
        before = [codes.copy() for codes in grown.string_codes("L", "R")]
        grown.append_rows(relation.take(range(4, 12)))
        after = grown.string_codes("L", "R")
        for old, new in zip(before, after):
            assert np.array_equal(new[:4], old)
        # Codes still mean equal values across the two columns.
        values = [grown.column(name).values for name in ("L", "R")]
        for i in range(12):
            for j in range(12):
                assert (after[0][i] == after[1][j]) == (values[0][i] == values[1][j])

    @pytest.mark.parametrize("boundaries", [(4, 5, 6, 7, 8, 9, 10, 11), (4, 8), (2,)])
    def test_cross_column_string_groups_match_full_rebuild(self, boundaries):
        relation = _shared_vocabulary_relation()
        space = build_predicate_space(relation)
        assert any(
            group.key[:2] == ("L", "R") and not group.numeric for group in space.groups
        ), "the space must compare the two string columns"
        initial, batches = _split_rows(relation, boundaries)
        store = EvidenceStore(initial, space=space, tile_rows=3)
        for batch in batches:
            store.append(batch)
            assert_evidence_identical(
                store.evidence(), _rebuild(relation.take(range(store.n_rows)), space)
            )

    def test_failed_appends_and_clones_leave_the_planes_alone(self):
        relation = _shared_vocabulary_relation()
        space = build_predicate_space(relation)
        store = EvidenceStore(relation.take(range(6)), space=space, tile_rows=3)

        def planes():
            _, a, b, _ = store.replay_kernel()._packed
            return a.copy(), b.copy()

        before = planes()
        bad_row = dict(relation.row(6), N="not-a-number")
        with pytest.raises(ValueError):
            store.append([bad_row])

        def journal_failure(n_new):
            raise OSError("journal write failed")

        with pytest.raises(OSError):
            store.append(relation.take(range(9, 12)), pre_commit=journal_failure)
        clone = store.clone()
        clone.append(relation.take(range(9, 12)))
        for old, new in zip(before, planes()):
            assert np.array_equal(old, new)

        store.append(relation.take(range(6, 12)))
        assert_evidence_identical(store.evidence(), _rebuild(relation, space))
        # The clone's next delta reads the planes of its own rows 6-8.
        clone.append(relation.take(range(6, 9)))
        clone_rows = relation.take([*range(6), 9, 10, 11, 6, 7, 8])
        assert_evidence_identical(clone.evidence(), _rebuild(clone_rows, space))


    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    def test_missing_numbers_match_full_rebuild(self, backend):
        """A ``None`` in a numeric column (stored as NaN) gets a valid
        category in single-tuple and pair groups, in both kernel backends
        and in the dense oracle."""
        from repro.core.evidence_builder import build_evidence_set_dense
        from repro.native import dispatch

        try:
            resolved = dispatch.resolve_backend(backend)
        except RuntimeError as error:  # pragma: no cover - host without a compiler
            pytest.skip(str(error))
        seed_rows = Relation(
            "gaps",
            {
                "A": [3.0, 1.0, 4.0, 1.0, 5.0, 9.0],
                "B": [1.0, 4.0, 3.0, 9.0, 5.0, 2.0],
                "S": list("abacab"),
            },
        )
        batches = [
            [{"A": None, "B": 1.0, "S": "d"}],
            [{"A": 6.0, "B": None, "S": "a"}],
            [{"A": 2.0, "B": None, "S": "d"}, {"A": None, "B": 3.0, "S": "b"}],
        ]
        space = build_predicate_space(seed_rows)
        assert ("A", "B", PredicateForm.SINGLE_TUPLE) in {g.key for g in space.groups}
        grown = seed_rows.copy()
        with dispatch.use_backend(resolved):
            store = EvidenceStore(seed_rows, space=space, tile_rows=3)
            for batch in batches:
                store.append(batch)
                grown.append_rows(batch)
                assert np.isnan(grown.column("A").values).any()
                expected = _rebuild(grown, space)
                assert_evidence_identical(store.evidence(), expected)
                assert_evidence_identical(build_evidence_set_dense(grown, space), expected)


    def test_inferred_missing_numbers_append_like_a_rebuild(self):
        """Integers with a missing value infer a float column; the store
        keeps its order predicates and appends stay exact."""
        from repro.core.evidence_builder import build_evidence_set_dense
        from repro.core.operators import Operator
        from repro.core.predicates import same_column_predicate
        from repro.data.types import ColumnType

        records = [
            {"A": 3, "S": "a"}, {"A": None, "S": "b"}, {"A": 1, "S": "a"},
            {"A": 4, "S": "c"}, {"A": 1, "S": "b"},
        ]
        store = EvidenceStore(Relation.from_records("gaps", records))
        assert store.relation.column_type("A") is ColumnType.FLOAT
        assert same_column_predicate("A", Operator.LT) in store.space
        batch = [{"A": 5, "S": "a"}, {"A": None, "S": "c"}]
        store.append(batch)
        grown = Relation.from_records("gaps", records + batch)
        assert_evidence_identical(
            store.evidence(), build_evidence_set_dense(grown, store.space)
        )


class TestPartialRebase:
    def test_rebase_keeps_participation(self):
        relation = make_random_relation(n_rows=6, seed=3)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space, include_participation=True)
        partial = PartialEvidenceSet(6, kernel.n_words, True)
        for tile in TileScheduler(6, tile_rows=3):
            result = kernel.run(Shard(0, 1, (tile,)))
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
            result = kernel.run(Shard(0, 1, (tile,)))
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
        # One fold per tile: a partial with a chunk per tile to compact.
        kernel = builder.kernel(example_relation)
        partial = PartialEvidenceSet(example_relation.n_rows, kernel.n_words,
                                     include_participation)
        for tile in TileScheduler(example_relation.n_rows, tile_rows=3):
            partial.merge(fold_tiles(kernel, (tile,)))
        expected = partial.finalize(example_space)
        assert_evidence_identical(expected, builder.full_partial(example_relation)
                                  .finalize(example_space))
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

    def test_multi_part_delta_matches_serial(self, example_relation, monkeypatch):
        """A seed build and deltas folded in parts and merged leave the store
        bit-identical to one fold per build."""
        import repro.incremental.delta as delta_module

        space = build_predicate_space(example_relation)
        initial, batches = _split_rows(example_relation, (9,))
        serial = EvidenceStore(initial, space=space, tile_rows=2)
        for batch in batches:
            serial.append(batch)
        folds = []

        def fold_in_four(kernel, tiles):
            folds.append(len(tiles))
            return fold_in_parts(kernel, tiles, 4)

        monkeypatch.setattr(delta_module, "fold_tiles", fold_in_four)
        in_parts = EvidenceStore(initial, space=space, tile_rows=2)
        for batch in batches:
            in_parts.append(batch)
        assert len(folds) == 1 + len(batches) and min(folds) >= 2
        assert_evidence_identical(serial.evidence(), in_parts.evidence())

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

        def broken(relation, n_existing, planes=None):  # pragma: no cover - failure path
            raise RuntimeError("delta build failed")

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

    @pytest.mark.parametrize("parts", [1, 2, 3, 5])
    def test_delta_tiles_folded_in_parts_extend_the_seed(self, example_relation, parts):
        """The append's tiles, folded in parts and merged into a fold of the
        seed rows' schedule, give the evidence of the grown relation."""
        space = build_predicate_space(example_relation)
        kernel = TileKernel.from_relation(example_relation, space)
        seed_partial = fold_tiles(kernel, TileScheduler(9, tile_rows=3).tiles())
        tiles = delta_tiles(9, example_relation.n_rows, tile_rows=3)
        merged = seed_partial.merge(fold_in_parts(kernel, tiles, parts))
        assert merged.recorded_pairs == example_relation.n_rows * (
            example_relation.n_rows - 1
        )
        assert_evidence_identical(
            merged.finalize(space), _rebuild(example_relation, space)
        )

    def test_a_builder_reused_across_relations_stays_exact(self):
        """The builder keeps no per-relation state, so a delta over a
        relation other than the one it last built is still exact."""
        first = make_random_relation(n_rows=12, seed=1)
        second = make_random_relation(n_rows=12, seed=2)
        space = build_predicate_space(first)
        builder = DeltaEvidenceBuilder(space, tile_rows=4)
        builder.full_partial(first)
        delta = builder.delta_partial(second, 8)
        seed_partial = DeltaEvidenceBuilder(space, tile_rows=4).full_partial(
            second.take(range(8))
        )
        merged = seed_partial.rebase_rows(second.n_rows).merge(delta)
        assert_evidence_identical(merged.finalize(space), _rebuild(second, space))

    def test_tile_edge_follows_the_memory_budget(self, example_space):
        from repro.engine.scheduler import choose_tile_rows

        budget = 2**22
        builder = DeltaEvidenceBuilder(example_space, memory_budget_bytes=budget)
        assert builder.tile_edge(10_000) == choose_tile_rows(
            10_000, builder.n_words, budget
        )
        assert DeltaEvidenceBuilder(example_space, tile_rows=7).tile_edge(10_000) == 7
