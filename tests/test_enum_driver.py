"""The compiled ADCEnum driver against the numpy oracle's.

The compiled backend runs every search as one native frame stack
(``adc_enum_run``); its node-for-node oracle is the numpy workspace's
search (``tests/numpy_backend.py``).  The two must agree on everything a
search reports: the ADC list in emission order with masks and scores,
every :class:`EnumerationStatistics` counter, the deepest stack, and the
node counts and counters at which the progress hook is called.

The compiled driver decides its pass tests by the integer bound of
:meth:`ApproximationFunction.pair_bound` when there is one (f1, and f1'
below epsilon 0.5) and otherwise calls back into ``ADCEnum._passes``
(f2, f3, f1' from 0.5 on, and a user-defined function); the oracle scores
every test through ``_passes``, so every identity test here also checks
the bound, and on the callback path the two must make the same calls with
the same uncovered ids.  The bound is also checked exhaustively against
the score it replaces, and the emission score taken from the maintained
uncovered pair count against the uncovered evidences' count.
"""

from __future__ import annotations

import dataclasses
import gc
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1, F1Adjusted, F2, F3Greedy
from repro.core.evidence_builder import build_evidence_set
from repro.core.predicate_space import build_predicate_space
from repro.native import cext, dispatch, get_backend
from tests.conftest import make_random_relation
from tests.numpy_backend import NUMPY_BACKEND
from tests.reference import WorstTupleShare
from tests.test_deep_chain import _chain_epsilon, _chain_evidence

EPSILONS = [0.0, 0.01, 0.2, 0.49, 1.0]
FUNCTIONS = [F1(), F1Adjusted(0.0), F1Adjusted(1.645), F1Adjusted(2.576)]
FUNCTION_IDS = ["f1", "f1'z0", "f1'z1.645", "f1'z2.576"]

#: Functions that are not pair-determined: the compiled driver calls back
#: for each of their pass tests, with the uncovered evidence ids.
SCORED_FUNCTIONS = [F2(), F3Greedy(), WorstTupleShare()]
SCORED_IDS = ["f2", "f3", "worst-tuple"]

#: With f1', the functions without an integer pass bound at these
#: thresholds.
CALLBACK_EPSILONS = [0.5, 0.7, 1.0]
CALLBACK_FUNCTIONS = SCORED_FUNCTIONS + [F1Adjusted(1.645)]
CALLBACK_IDS = SCORED_IDS + ["f1'z1.645"]


def _evidence(seed: int, n_rows: int = 6, domain: int = 3):
    relation = make_random_relation(n_rows=n_rows, seed=seed, domain_size=domain)
    return build_evidence_set(
        relation, build_predicate_space(relation), include_participation=True
    )


def _search(backend, evidence, function, epsilon, interval=None, **options):
    """One search under ``backend``: (ADCs, statistics, hook records, the
    pass-test callback's calls as ``(ids, pairs)``)."""
    reports = []

    def record(statistics):
        reports.append(_counters(statistics))

    calls = []
    with dispatch.use_backend(backend):
        enumerator = ADCEnum(
            evidence, function, epsilon,
            progress=record if interval is not None else None,
            progress_interval=interval or 8192,
            **options,
        )
        passes = enumerator._passes

        def spy(ids, pairs):
            calls.append((ids.tolist(), pairs))
            return passes(ids, pairs)

        enumerator._passes = spy
        adcs = [
            (adc.hitting_set_mask, adc.violation_score, adc.constraint.predicates)
            for adc in enumerator.enumerate()
        ]
    return adcs, _counters(enumerator.statistics), reports, calls


def _counters(statistics):
    """Every field but the wall time, which no two runs share."""
    fields = dataclasses.asdict(statistics)
    del fields["elapsed_seconds"]
    return fields


def _assert_same_search(evidence, function, epsilon, interval=None, **options):
    native = _search(get_backend(), evidence, function, epsilon, interval, **options)
    oracle = _search(NUMPY_BACKEND, evidence, function, epsilon, interval, **options)
    assert native[:3] == oracle[:3]
    assert oracle[3]
    bound = function.pair_bound(evidence.total_pairs, epsilon) if evidence.total_pairs else 0
    assert native[3] == (oracle[3] if bound is None else [])
    assert "max_stack_depth" in native[1]["extra"]
    return native


class TestDriverIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_rows=st.integers(min_value=2, max_value=6),
        selection=st.sampled_from(["max", "min", "random"]),
        max_dc_size=st.sampled_from([None, 1, 2, 3]),
        epsilon=st.sampled_from(EPSILONS + CALLBACK_EPSILONS),
        function=st.sampled_from(FUNCTIONS + SCORED_FUNCTIONS),
    )
    def test_random_relations(self, seed, n_rows, selection, max_dc_size, epsilon, function):
        evidence = _evidence(seed, n_rows)
        _assert_same_search(
            evidence, function, epsilon, selection=selection, max_dc_size=max_dc_size
        )

    @pytest.mark.parametrize("selection", ["max", "min", "random"])
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("function", FUNCTIONS, ids=FUNCTION_IDS)
    def test_grid(self, function, epsilon, selection):
        evidence = _evidence(7)
        adcs = _assert_same_search(evidence, function, epsilon, selection=selection,
                                   max_dc_size=3)[0]
        assert adcs or epsilon == 1.0

    @pytest.mark.parametrize("max_dc_size", [None, 1, 2, 3])
    @pytest.mark.parametrize("selection", ["max", "min", "random"])
    @pytest.mark.parametrize("epsilon", CALLBACK_EPSILONS)
    @pytest.mark.parametrize("function", CALLBACK_FUNCTIONS, ids=CALLBACK_IDS)
    def test_callback_grid(self, function, epsilon, selection, max_dc_size):
        _assert_same_search(
            _evidence(7), function, epsilon, selection=selection, max_dc_size=max_dc_size
        )

    @pytest.mark.parametrize("max_dc_size", [None, 1, 2, 3])
    def test_dc_size_caps(self, max_dc_size):
        _assert_same_search(_evidence(3, n_rows=7), F1(), 0.05, max_dc_size=max_dc_size)

    @pytest.mark.parametrize("n_rows", [0, 1])
    @pytest.mark.parametrize(
        "function", FUNCTIONS + SCORED_FUNCTIONS, ids=FUNCTION_IDS + SCORED_IDS
    )
    def test_no_pairs(self, n_rows, function):
        evidence = _evidence(0, n_rows=n_rows)
        assert evidence.total_pairs == 0
        adcs, statistics, _, _ = _assert_same_search(evidence, function, 0.01)
        assert adcs == [] and statistics["recursive_calls"] == 1

    def test_deep_skip_chain(self):
        evidence = _chain_evidence(1200)
        _, statistics, _, _ = _assert_same_search(evidence, F1(), _chain_epsilon(evidence))
        assert statistics["extra"]["max_stack_depth"] == 1200

    def test_an_unbounded_function_takes_the_callback(self):
        """f1' at epsilon >= 0.5 has no integer bound: the compiled driver
        asks the callback, with no ids (the function is pair-determined),
        for each of its tests."""
        calls = _assert_same_search(_evidence(1), F1Adjusted(1.645), 0.7, max_dc_size=2)[3]
        assert calls and all(ids == [] for ids, _ in calls)


class TestProgressHook:
    @pytest.mark.parametrize("interval", [1, 7, 8192])
    @pytest.mark.parametrize(
        "function, epsilon",
        [(F1(), 0.05), (F1Adjusted(1.645), 0.05), (F2(), 0.5), (WorstTupleShare(), 0.5)],
        ids=["f1", "f1'", "f2", "worst-tuple"],
    )
    def test_same_calls_same_counters(self, interval, function, epsilon):
        evidence = _evidence(5, n_rows=7)
        _, statistics, reports, _ = _assert_same_search(
            evidence, function, epsilon, interval=interval, max_dc_size=3
        )
        nodes = statistics["recursive_calls"]
        assert [r["recursive_calls"] for r in reports] == list(
            range(interval, nodes + 1, interval)
        )

    def test_deep_chain_reports(self):
        evidence = _chain_evidence(300)
        _, _, reports, _ = _assert_same_search(
            evidence, F1(), _chain_epsilon(evidence), interval=50
        )
        assert len(reports) == 12


class TestResume:
    """An output buffer of one row: the compiled search returns to Python
    after every output and resumes from its saved stack."""

    @pytest.fixture(autouse=True)
    def one_output_row(self, monkeypatch):
        monkeypatch.setattr(cext, "_OUTPUT_ROWS", 1)

    @pytest.mark.parametrize("selection", ["max", "min", "random"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_output_resumes(self, seed, selection):
        adcs = _assert_same_search(
            _evidence(seed, n_rows=7), F1(), 0.05, selection=selection, max_dc_size=3
        )[0]
        assert len(adcs) > 1

    @pytest.mark.parametrize(
        "function, epsilon", [(F1Adjusted(2.576), 0.2), (F2(), 0.5)], ids=["f1'", "f2"]
    )
    def test_resume_interleaves_with_progress(self, function, epsilon):
        _assert_same_search(_evidence(4, n_rows=7), function, epsilon,
                            interval=3, max_dc_size=3)

    def test_a_second_run_restarts_the_search(self):
        with dispatch.use_backend(get_backend()):
            enumerator = ADCEnum(_evidence(2, n_rows=7), F1(), 0.05, max_dc_size=3)
            first = [adc.hitting_set_mask for adc in enumerator.enumerate()]
            calls = enumerator.statistics.recursive_calls
            assert [adc.hitting_set_mask for adc in enumerator.enumerate()] == first
            assert enumerator.statistics.recursive_calls == calls


class TestSearchState:
    def _enumerator(self):
        return ADCEnum(_evidence(0), F1(), 0.05, max_dc_size=2)

    def test_state_is_freed_with_the_workspace(self):
        freed = []
        with dispatch.use_backend(get_backend()):
            enumerator = self._enumerator()
            workspace = enumerator._get_workspace()
            free = workspace._enum_free
            workspace._enum_free = lambda search: (freed.append(search), free(search))
            enumerator.enumerate()
            search = workspace._search
            assert search and not freed
            del enumerator, workspace
            gc.collect()
        assert freed == [search]

    @pytest.mark.parametrize("entry, failure", [("_enum_new", 0), ("_enum_run", -1)])
    def test_allocation_failure_raises_memory_error(self, entry, failure):
        with dispatch.use_backend(get_backend()):
            enumerator = self._enumerator()
            setattr(enumerator._get_workspace(), entry, lambda *args: failure)
            with pytest.raises(MemoryError):
                enumerator.enumerate()


class TestCallbackErrors:
    """An exception raised by the approximation function inside the
    compiled search stops it and propagates from ``enumerate()``; nothing
    reaches ctypes, which would print and drop it."""

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize("k", [1, 2, 5, 40])
    def test_the_kth_score_raises(self, error, k, capfd, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

        class Failing(WorstTupleShare):
            scores = 0

            def violation_score(self, evidence, uncovered_indices):
                self.scores += 1
                if self.scores == k:
                    raise error(f"score {k}")
                return super().violation_score(evidence, uncovered_indices)

        evidence = _evidence(7)
        function = Failing()
        enumerator = ADCEnum(evidence, function, 0.5, max_dc_size=3)
        with dispatch.use_backend(get_backend()):
            with pytest.raises(error, match=f"score {k}"):
                enumerator.enumerate()
            assert function.scores == k
            assert not unraisable
            assert "Exception ignored" not in capfd.readouterr().err
            # The same instance then enumerates correctly (the count has
            # passed k, so no score raises again).
            again = [(a.hitting_set_mask, a.violation_score) for a in enumerator.enumerate()]
            again_counters = _counters(enumerator.statistics)
        with dispatch.use_backend(NUMPY_BACKEND):
            oracle = ADCEnum(evidence, WorstTupleShare(), 0.5, max_dc_size=3)
            assert again == [(a.hitting_set_mask, a.violation_score) for a in oracle.enumerate()]
            assert again_counters == _counters(oracle.statistics)
        assert again


def _passes(function, total, epsilon, x):
    """The pass test the bound replaces."""
    return total == 0 or function.violation_score_from_pair_fraction(x / total, total) <= epsilon


class TestPairBound:
    @pytest.mark.parametrize("epsilon", EPSILONS + [0.5, 0.51, 0.7])
    @pytest.mark.parametrize("function", FUNCTIONS, ids=FUNCTION_IDS)
    @pytest.mark.parametrize("total", [0, 1, 2, 30, 42, 97, 210, 1000, 2450])
    def test_exhaustive(self, function, total, epsilon):
        bound = function.pair_bound(total, epsilon)
        if isinstance(function, F1Adjusted) and epsilon >= 0.5:
            assert bound is None
            return
        assert bound is not None
        for x in range(total + 1):
            assert _passes(function, total, epsilon, x) == (x <= bound), x

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("function", FUNCTIONS, ids=FUNCTION_IDS)
    def test_on_the_test_relations(self, seed, function):
        total = _evidence(seed, n_rows=7).total_pairs
        for epsilon in EPSILONS:
            bound = function.pair_bound(total, epsilon)
            if bound is None:
                assert isinstance(function, F1Adjusted) and epsilon >= 0.5
                continue
            assert [x <= bound for x in range(total + 1)] == [
                _passes(function, total, epsilon, x) for x in range(total + 1)
            ]

    def test_f1_always_has_a_bound(self):
        assert F1().pair_bound(10, 0.0) == 0
        assert F1().pair_bound(10, 1.0) == 10
        assert F1().pair_bound(10, float("inf")) == 10

    def test_not_pair_determined(self):
        assert F2().pair_bound(30, 0.1) is None


class TestEmissionScore:
    """Emission scores a pair-determined DC from the maintained uncovered
    pair count; it must equal the count of the DC's uncovered evidences."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("selection", ["max", "min", "random"])
    def test_maintained_count_is_the_uncovered_count(
        self, seed, epsilon, selection, monkeypatch
    ):
        """The legacy cross-check's grid, under the active backend."""
        relation = make_random_relation(n_rows=7, seed=seed, domain_size=3)
        evidence = build_evidence_set(
            relation, build_predicate_space(relation), include_participation=True
        )
        emitted = []
        emit = ADCEnum._emit

        def spy(self, s_elements, uncovered_pairs):
            emitted.append((sum(1 << e for e in s_elements), uncovered_pairs))
            emit(self, s_elements, uncovered_pairs)

        monkeypatch.setattr(ADCEnum, "_emit", spy)
        adcs = ADCEnum(evidence, F1(), epsilon, selection=selection,
                       max_dc_size=3).enumerate()
        assert emitted
        for mask, pairs in emitted:
            assert pairs == evidence.pair_count_of(evidence.uncovered_indices(mask))
        for adc in adcs:
            uncovered = evidence.uncovered_indices(adc.hitting_set_mask)
            assert adc.violation_score == F1().violation_score(evidence, uncovered)
