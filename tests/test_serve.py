"""Tests of the violation-serving layer against the semantic DC oracles.

Every query of :class:`~repro.incremental.serve.ViolationService` has a
slow, trivially-correct counterpart on :class:`DenialConstraint` (per-pair
re-evaluation): violation counts, violating pairs, per-tuple scores, and
the per-row admission rates of ``check_batch`` are all cross-checked
against it on the running example and random relations.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_relation
from repro.core.dc import DenialConstraint
from repro.core.predicate_space import build_predicate_space
from repro.core.repair import ConflictGraph, build_conflict_graph, vertex_cover_greedy
from repro.incremental import EvidenceStore, ViolationService
from repro.serve import AppendScheduler, ViolationCounters


@pytest.fixture(scope="module")
def served():
    """Store + service over the running example with its mined ADCs."""
    from repro.data.relation import running_example

    relation = running_example()
    store = EvidenceStore(relation)
    adcs = store.remine(0.05)
    service = ViolationService(store, adcs[:6], epsilon=0.05)
    return relation, store, adcs[:6], service


class TestViolationCounts:
    def test_counts_match_the_pairwise_oracle(self, served):
        relation, _, adcs, service = served
        for index, adc in enumerate(adcs):
            report = service.violations(index)
            assert report.count == adc.constraint.violation_count(relation)
            assert report.total_pairs == relation.n_rows * (relation.n_rows - 1)

    def test_rate_is_count_over_total(self, served):
        _, _, _, service = served
        report = service.violations(0)
        assert report.rate == report.count / report.total_pairs
        assert report.exceeds(report.rate - 1e-12) or report.count == 0
        assert not report.exceeds(1.0)

    def test_resolution_by_constraint_object(self, served):
        relation, _, adcs, service = served
        by_index = service.violations(0)
        by_adc = service.violations(adcs[0])
        by_dc = service.violations(adcs[0].constraint)
        assert by_index.count == by_adc.count == by_dc.count

    def test_unknown_constraint_raises(self, served):
        _, _, _, service = served
        with pytest.raises(KeyError):
            service.violations(DenialConstraint([]))
        with pytest.raises(IndexError):
            service.violations(99)

    def test_report_and_exceeded(self, served):
        _, _, adcs, service = served
        report = service.report()
        assert len(report) == len(adcs)
        # ADCs were mined at epsilon=0.05, so none of them exceeds it.
        assert service.exceeded() == []


class TestPairReplay:
    def test_replayed_pairs_match_the_oracle(self, served):
        relation, _, adcs, service = served
        for index, adc in enumerate(adcs):
            replayed = sorted(service.violating_pairs(index))
            assert replayed == sorted(adc.constraint.violating_pairs(relation))

    def test_replay_count_consistent_with_violations(self, served):
        _, _, adcs, service = served
        for index in range(len(adcs)):
            pairs = list(service.violating_pairs(index))
            assert len(pairs) == service.violations(index).count

    def test_conflict_graph_matches_built_graph(self, served):
        relation, _, adcs, service = served
        graph = ConflictGraph.from_pairs(relation.n_rows, service.violating_pairs(0))
        oracle = build_conflict_graph(relation, adcs[0].constraint)
        assert graph.n_tuples == oracle.n_tuples
        assert graph.edges == oracle.edges
        # The replayed graph plugs into the existing repair machinery.
        assert vertex_cover_greedy(graph) == vertex_cover_greedy(oracle)

    def test_replay_tracks_appends(self, served):
        """Queries run against the store's current state, not a snapshot."""
        relation, _, adcs, _ = served
        initial = relation.take(range(12))
        store = EvidenceStore(initial, space=build_predicate_space(relation))
        service = ViolationService(store, adcs)
        before = service.violations(0).count
        assert before == adcs[0].constraint.violation_count(initial)
        store.append(relation.take(range(12, 15)))
        assert service.violations(0).count == adcs[0].constraint.violation_count(relation)


class TestTupleScores:
    def test_scores_match_per_tuple_pair_counts(self, served):
        relation, _, adcs, service = served
        for index, adc in enumerate(adcs):
            scores = service.tuple_scores(index)
            expected = np.zeros(relation.n_rows, dtype=np.int64)
            for left, right in adc.constraint.violating_pairs(relation):
                expected[left] += 1
                expected[right] += 1
            assert np.array_equal(scores, expected)

    def test_repair_ranking_is_sorted_by_score(self, served):
        _, _, adcs, service = served
        for index in range(len(adcs)):
            scores = service.tuple_scores(index)
            ranking = service.repair_ranking(index)
            assert set(ranking) == set(np.flatnonzero(scores > 0).tolist())
            ranked_scores = [int(scores[t]) for t in ranking]
            assert ranked_scores == sorted(ranked_scores, reverse=True)


class TestBatchAdmission:
    def _oracle_rate(self, relation, constraint, row):
        """Violation rate after hypothetically appending exactly ``row``."""
        probe = relation.copy()
        probe.append_rows([row])
        count = constraint.violation_count(probe)
        total = probe.n_rows * (probe.n_rows - 1)
        return count / total

    def test_rates_match_the_single_row_oracle(self, served):
        relation, _, adcs, service = served
        batch = [relation.row(0), relation.row(7), relation.row(14)]
        admissions = service.check_batch(batch)
        assert [entry.row_index for entry in admissions] == [0, 1, 2]
        for entry, row in zip(admissions, batch):
            for dc_index, adc in enumerate(adcs):
                expected = self._oracle_rate(relation, adc.constraint, row)
                assert entry.rates[dc_index] == pytest.approx(expected)

    def test_admissible_iff_every_rate_within_epsilon(self, served):
        relation, _, _, service = served
        admissions = service.check_batch([relation.row(i) for i in range(4)])
        for entry in admissions:
            assert entry.admissible == all(
                rate <= service.epsilon for rate in entry.rates
            )
            assert entry.worst_rate == max(entry.rates)

    def test_batch_verdicts_are_order_independent(self, served):
        relation, _, _, service = served
        batch = [relation.row(3), relation.row(9)]
        forward = service.check_batch(batch)
        backward = service.check_batch(list(reversed(batch)))
        assert forward[0].rates == backward[1].rates
        assert forward[1].rates == backward[0].rates

    def test_empty_batch(self, served):
        _, _, _, service = served
        assert service.check_batch([]) == []

    def test_check_batch_leaves_the_store_untouched(self, served):
        relation, store, _, service = served
        rows_before = store.n_rows
        generation = store.generation
        service.check_batch([relation.row(0)])
        assert store.n_rows == rows_before
        assert store.generation == generation


class TestConcurrentInterleavingProperty:
    """Any concurrent append+read interleaving is exactly consistent.

    Hypothesis drives a random schedule of concurrent appends and counter
    reads through a real :class:`AppendScheduler` +
    :class:`ViolationCounters` pair (the serving layer's write and read
    paths).  Appends coalesce nondeterministically depending on event-loop
    timing, but because the relation is append-only, every counter
    snapshot claims to describe some prefix of the final relation — so
    each one must be bit-identical to a from-scratch
    :class:`ViolationService` rebuild of that prefix, and the final
    counters to a rebuild of the final relation.
    """

    @staticmethod
    def _rebuild_counts(relation, n_rows, space, adcs):
        """Serial oracle: fresh store + service on the first ``n_rows``."""
        store = EvidenceStore(relation.take(range(n_rows)), space=space)
        service = ViolationService(store, adcs)
        return [service.violations(i).count for i in range(len(adcs))]

    @settings(max_examples=12, deadline=None)
    @given(
        schedule=st.lists(
            st.one_of(
                st.just(("read",)),
                st.lists(
                    st.integers(min_value=0, max_value=14),
                    min_size=1,
                    max_size=3,
                ).map(lambda indices: ("append", tuple(indices))),
            ),
            min_size=1,
            max_size=8,
        ),
        flush_window=st.sampled_from([0.0, 0.004]),
    )
    def test_any_interleaving_matches_serial_rebuild(
        self, served, schedule, flush_window
    ):
        relation, _, adcs, _ = served
        space = build_predicate_space(relation)

        async def drive():
            store = EvidenceStore(relation.take(range(8)), space=space)
            service = ViolationService(store, adcs)
            counters = ViolationCounters(service.hitting_words, store)
            snapshots = [counters.snapshot()]
            with ThreadPoolExecutor(2) as executor:
                scheduler = AppendScheduler(
                    store, asyncio.Lock(), executor, flush_window=flush_window
                )
                tasks = []
                for op in schedule:
                    if op[0] == "append":
                        rows = [relation.row(i) for i in op[1]]
                        tasks.append(asyncio.create_task(scheduler.append(rows)))
                    else:
                        snapshots.append(counters.snapshot())
                        # Yield so pending appends can actually interleave
                        # with (and race) subsequent reads.
                        await asyncio.sleep(0)
                if tasks:
                    await asyncio.gather(*tasks)
                await scheduler.drain()
            snapshots.append(counters.snapshot())
            return store, snapshots

        store, snapshots = asyncio.run(drive())
        final = store.relation
        appended = sum(len(op[1]) for op in schedule if op[0] == "append")
        assert final.n_rows == 8 + appended
        assert snapshots[-1].n_rows == final.n_rows
        oracle_cache: dict[int, list[int]] = {}
        for snapshot in snapshots:
            if snapshot.n_rows not in oracle_cache:
                oracle_cache[snapshot.n_rows] = self._rebuild_counts(
                    final, snapshot.n_rows, space, adcs
                )
            assert list(snapshot.counts) == oracle_cache[snapshot.n_rows]


class TestRandomRelations:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_service_against_oracles_on_random_data(self, seed):
        relation = make_random_relation(n_rows=9, seed=seed)
        store = EvidenceStore(relation)
        adcs = store.remine(0.1)[:4]
        if not adcs:
            pytest.skip("no ADCs mined at this epsilon")
        service = ViolationService(store, adcs, epsilon=0.1)
        for index, adc in enumerate(adcs):
            assert service.violations(index).count == adc.constraint.violation_count(relation)
            assert sorted(service.violating_pairs(index)) == sorted(
                adc.constraint.violating_pairs(relation)
            )
