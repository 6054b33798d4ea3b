"""Tests for the ADCMiner pipeline and the paper's running example."""

from __future__ import annotations

import pytest

from repro.core.dc import DenialConstraint
from repro.core.miner import ADCMiner, mine_adcs
from repro.core.operators import Operator
from repro.core.predicates import same_column_predicate
from repro.data.datasets import generate_hospital
from repro.data.relation import running_example


class TestPipeline:
    def test_running_example_discovery(self):
        result = ADCMiner(function="f1", epsilon=0.05).mine(running_example())
        assert len(result) > 0
        assert result.function_name == "f1"
        assert result.timings.total > 0
        assert len(result.constraints) == len(result.adcs)

    def test_example_1_1_rule_recovered(self):
        income_tax_rule = DenialConstraint([
            same_column_predicate("State", Operator.EQ),
            same_column_predicate("Income", Operator.GT),
            same_column_predicate("Tax", Operator.LE),
        ])
        result = ADCMiner(function="f1", epsilon=0.05).mine(running_example())
        assert any(
            constraint.predicates <= income_tax_rule.predicates
            for constraint in result.constraints
        )

    def test_function_accepts_instances_and_names(self):
        from repro.core.approximation import F2

        by_name = ADCMiner(function="f2", epsilon=0.2, max_dc_size=2).mine(running_example())
        by_instance = ADCMiner(function=F2(), epsilon=0.2, max_dc_size=2).mine(running_example())
        assert {c.predicates for c in by_name.constraints} == {
            c.predicates for c in by_instance.constraints
        }

    def test_all_three_functions_run(self):
        for name in ("f1", "f2", "f3"):
            result = ADCMiner(function=name, epsilon=0.1, max_dc_size=2).mine(running_example())
            assert result.function_name == name
            assert all(adc.violation_score <= 0.1 for adc in result.adcs)

    def test_sampling_reduces_rows(self):
        dataset = generate_hospital(n_rows=80, seed=1)
        result = ADCMiner(function="f1", epsilon=0.1, sample_fraction=0.5,
                          max_dc_size=2, seed=3).mine(dataset.relation)
        assert result.sample_plan.sample_rows == 40
        assert result.evidence.n_rows == 40

    def test_adjusted_function_used_on_samples(self):
        dataset = generate_hospital(n_rows=80, seed=1)
        result = ADCMiner(function="f1", epsilon=0.1, sample_fraction=0.5,
                          adjust_for_sample=True, max_dc_size=2, seed=3).mine(dataset.relation)
        assert result.function_name == "f1'"

    def test_pairwise_evidence_method(self):
        fast = ADCMiner(function="f1", epsilon=0.05, evidence_method="tiled").mine(running_example())
        slow = ADCMiner(function="f1", epsilon=0.05, evidence_method="pairwise").mine(running_example())
        assert {c.predicates for c in fast.constraints} == {c.predicates for c in slow.constraints}

    def test_invalid_evidence_method_rejected(self):
        with pytest.raises(ValueError):
            ADCMiner(evidence_method="bogus")

    def test_mine_adcs_wrapper(self):
        result = mine_adcs(running_example(), "f1", 0.05)
        assert len(result) > 0

    def test_describe_mentions_counts(self):
        result = ADCMiner(function="f1", epsilon=0.05).mine(running_example())
        text = result.describe(limit=3)
        assert "minimal ADCs" in text
        assert "predicate space" in text

    def test_deterministic_given_seed(self):
        dataset = generate_hospital(n_rows=60, seed=1)
        first = ADCMiner("f1", 0.1, sample_fraction=0.5, max_dc_size=2, seed=11).mine(dataset.relation)
        second = ADCMiner("f1", 0.1, sample_fraction=0.5, max_dc_size=2, seed=11).mine(dataset.relation)
        assert {c.predicates for c in first.constraints} == {c.predicates for c in second.constraints}
