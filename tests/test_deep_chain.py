"""Deep skip-chain regression: the explicit-stack driver outlives recursion.

The pre-refactor enumerator papered over deep skip chains by raising
``sys.setrecursionlimit(50_000)`` as a module side effect.  The explicit
stack of the search driver removed both the mutation and the depth
ceiling; this module pins that down by

* mining an adversarial evidence set whose skip chain descends ``n``
  frames for ``n`` beyond the default interpreter recursion limit,
* forbidding ``sys.setrecursionlimit`` while the enumeration runs, and
* asserting :mod:`repro.core.adc_enum` contains no call to it at all (only
  :mod:`tests.legacy_enum`, the frozen reference implementation,
  still carries one).
"""

from __future__ import annotations

import inspect
import sys

from repro.core import adc_enum
from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1
from repro.core.evidence import EvidenceSet
from repro.core.operators import Operator
from repro.core.predicate_space import PredicateSpace
from repro.core.predicates import Predicate, PredicateForm
from tests.legacy_enum import LegacyADCEnum


def _chain_evidence(n: int) -> EvidenceSet:
    """``n`` single-predicate evidences ``{EQ_i}`` forcing an ``n``-deep chain.

    Each evidence holds exactly one equality predicate over its own column.
    ``n_rows`` is the smallest ``m`` with ``m * (m - 1) >= n`` pairs; the
    first ``n - 1`` evidences carry one pair each and the last absorbs the
    remainder, so with ``epsilon = (total - 1) / total``:

    * every skip branch kills one single-pair evidence and stays inside the
      WillCover budget, so the skip chain descends all ``n`` levels;
    * every hit branch covers its evidence, passes the base case at once
      (``uncovered <= total - 1``) and emits the minimal single-predicate
      DC ``not(t.c_i == t'.c_i)``.

    The tree is therefore linear — ``2n`` nodes, stack depth ``n`` — which
    is exactly the adversarial shape for a recursive implementation.
    """
    n_rows = 2
    while n_rows * (n_rows - 1) < n:
        n_rows += 1
    total = n_rows * (n_rows - 1)
    predicates = []
    for i in range(n):
        column = f"c{i}"
        predicates.append(
            Predicate(column, Operator.EQ, column, PredicateForm.TWO_TUPLE_SAME_COLUMN)
        )
        predicates.append(
            Predicate(column, Operator.NE, column, PredicateForm.TWO_TUPLE_SAME_COLUMN)
        )
    space = PredicateSpace(predicates)
    masks = [1 << (2 * i) for i in range(n)]
    counts = [1] * (n - 1) + [total - (n - 1)]
    return EvidenceSet(space, masks=masks, counts=counts, n_rows=n_rows)


def _chain_epsilon(evidence: EvidenceSet) -> float:
    total = evidence.total_pairs
    return (total - 1) / total


class TestNoRecursionLimitMutation:
    def test_word_native_modules_never_touch_the_limit(self):
        # Prose may mention the removed mutation; an actual call may not.
        assert "setrecursionlimit(" not in inspect.getsource(adc_enum)

    def test_enumeration_never_calls_setrecursionlimit(self, monkeypatch):
        def forbid(limit):
            raise AssertionError(f"sys.setrecursionlimit({limit}) was called")

        monkeypatch.setattr(sys, "setrecursionlimit", forbid)
        evidence = _chain_evidence(50)
        results = ADCEnum(evidence, F1(), epsilon=_chain_epsilon(evidence)).enumerate()
        assert len(results) == 50

    def test_enumeration_leaves_the_limit_alone(self):
        before = sys.getrecursionlimit()
        evidence = _chain_evidence(50)
        ADCEnum(evidence, F1(), epsilon=_chain_epsilon(evidence)).enumerate()
        assert sys.getrecursionlimit() == before


class TestDeepSkipChain:
    def test_chain_descends_beyond_the_recursion_limit(self):
        """A 1200-deep skip chain mines correctly with the default
        interpreter recursion limit (1000) untouched."""
        n = 1200
        before = sys.getrecursionlimit()
        assert n > before  # the construction must actually exceed the limit
        evidence = _chain_evidence(n)
        enum = ADCEnum(evidence, F1(), epsilon=_chain_epsilon(evidence))
        results = enum.enumerate()
        assert sys.getrecursionlimit() == before
        assert enum.statistics.extra["max_stack_depth"] > before
        assert enum.statistics.extra["max_stack_depth"] == n
        # One minimal single-predicate DC per evidence, each leaving every
        # other evidence's pairs uncovered.
        assert {adc.hitting_set_mask for adc in results} == {
            1 << (2 * i) for i in range(n)
        }
        total = evidence.total_pairs
        counts = evidence.counts
        expected = {
            1 << (2 * i): (total - int(counts[i])) / total for i in range(n)
        }
        assert all(
            adc.violation_score == expected[adc.hitting_set_mask] for adc in results
        )
        assert all(
            len(adc.constraint.predicates) == 1
            and next(iter(adc.constraint.predicates)).operator is Operator.NE
            for adc in results
        )

    def test_small_chain_matches_legacy(self):
        """The chain construction itself is cross-validated against the
        recursive reference at a depth the old implementation can reach."""
        n = 120
        evidence = _chain_evidence(n)
        epsilon = _chain_epsilon(evidence)
        new = ADCEnum(evidence, F1(), epsilon=epsilon)
        old = LegacyADCEnum(evidence, F1(), epsilon=epsilon)
        new_out = [(a.hitting_set_mask, a.violation_score) for a in new.enumerate()]
        old_out = [(a.hitting_set_mask, a.violation_score) for a in old.enumerate()]
        assert new_out == old_out
        assert len(new_out) == n
        assert new.statistics.recursive_calls == old.statistics.recursive_calls
        assert new.statistics.hit_branches == old.statistics.hit_branches
        assert new.statistics.skip_branches == old.statistics.skip_branches
        assert new.statistics.outputs == old.statistics.outputs
