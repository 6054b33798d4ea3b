"""Tests for conflict graphs, vertex covers and cardinality repairs."""

from __future__ import annotations

import pytest

from repro.core.dc import DenialConstraint
from repro.core.operators import Operator
from repro.core.predicates import same_column_predicate
from repro.core.repair import (
    build_conflict_graph,
    cardinality_repair,
    exact_f3_violation,
    minimum_vertex_cover_exact,
    vertex_cover_greedy,
)
from tests.reference import approximate_f3_violation, vertex_cover_2_approximation


@pytest.fixture(scope="module")
def income_tax_rule() -> DenialConstraint:
    return DenialConstraint([
        same_column_predicate("State", Operator.EQ),
        same_column_predicate("Income", Operator.GT),
        same_column_predicate("Tax", Operator.LE),
    ])


@pytest.fixture(scope="module")
def zip_state_rule() -> DenialConstraint:
    return DenialConstraint([
        same_column_predicate("Zip", Operator.EQ),
        same_column_predicate("State", Operator.NE),
    ])


class TestConflictGraph:
    def test_graph_of_income_tax_rule(self, example_relation, income_tax_rule):
        graph = build_conflict_graph(example_relation, income_tax_rule)
        assert graph.n_violations == 2
        assert graph.violating_tuples == {5, 6, 13, 14}
        assert graph.violation_fraction() == pytest.approx(2 / 210)

    def test_graph_of_zip_state_rule(self, example_relation, zip_state_rule):
        graph = build_conflict_graph(example_relation, zip_state_rule)
        assert graph.n_violations == 16
        assert graph.problematic_tuple_fraction() == pytest.approx(9 / 15)

    def test_undirected_view(self, example_relation, zip_state_rule):
        graph = build_conflict_graph(example_relation, zip_state_rule)
        undirected = graph.undirected()
        assert undirected.number_of_edges() == 8


class TestVertexCovers:
    def test_exact_cover_sizes_match_example_1_2(self, example_relation, income_tax_rule, zip_state_rule):
        assert exact_f3_violation(example_relation, income_tax_rule) == pytest.approx(2 / 15)
        assert exact_f3_violation(example_relation, zip_state_rule) == pytest.approx(1 / 15)

    def test_two_approximation_within_factor(self, example_relation, zip_state_rule):
        exact = exact_f3_violation(example_relation, zip_state_rule)
        approx = approximate_f3_violation(example_relation, zip_state_rule)
        assert exact <= approx <= 2 * exact + 1e-9

    def test_greedy_cover_covers_all_edges(self, example_relation, zip_state_rule):
        graph = build_conflict_graph(example_relation, zip_state_rule)
        cover = vertex_cover_greedy(graph)
        for u, v in graph.edges:
            assert u in cover or v in cover

    def test_two_approx_cover_covers_all_edges(self, example_relation, income_tax_rule):
        graph = build_conflict_graph(example_relation, income_tax_rule)
        cover = vertex_cover_2_approximation(graph)
        for u, v in graph.edges:
            assert u in cover or v in cover

    def test_exact_cover_rejects_large_inputs(self, example_relation, zip_state_rule):
        graph = build_conflict_graph(example_relation, zip_state_rule)
        with pytest.raises(ValueError):
            minimum_vertex_cover_exact(graph, max_tuples=2)


class TestCardinalityRepair:
    def test_repair_satisfies_constraint(self, example_relation, zip_state_rule):
        repaired = cardinality_repair(example_relation, zip_state_rule)
        assert zip_state_rule.is_satisfied(repaired)
        assert repaired.n_rows == example_relation.n_rows - 1

    def test_repair_of_satisfied_constraint_is_identity(self, example_relation):
        tax_key = DenialConstraint([
            same_column_predicate("Tax", Operator.EQ),
            same_column_predicate("State", Operator.NE),
        ])
        repaired = cardinality_repair(example_relation, tax_key)
        assert repaired.n_rows == example_relation.n_rows
