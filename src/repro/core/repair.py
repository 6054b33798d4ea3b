"""Conflict graphs and cardinality repairs.

The third approximation measure of the paper (f3) is the relative size of a
*cardinality repair* — the largest sub-instance satisfying the DC — which is
the complement of a minimum vertex cover of the *conflict graph* whose
vertices are tuples and whose edges are violating pairs (Section 5).

Computing it exactly is NP-hard for DCs, so the paper's miner uses the greedy
algorithm of Figure 2 (implemented as
:class:`repro.core.approximation.F3Greedy`).  This module provides the graph
machinery needed to reason about f3 outside the miner:

* building the conflict graph of a DC on a relation;
* an exact minimum vertex cover (small inputs only, for tests);
* the greedy ``O(log n)``-approximation the paper's Figure 2 is inspired by;
* the exact value of ``1 - f3``.

networkx is imported only for the explicit graph view,
:meth:`ConflictGraph.undirected` (which :func:`vertex_cover_greedy` uses),
so importing this module does not load it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.dc import DenialConstraint
from repro.data.relation import Relation

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class ConflictGraph:
    """Violations of one DC on one relation, as a graph over tuple indices."""

    n_tuples: int
    edges: frozenset[tuple[int, int]]

    @property
    def n_violations(self) -> int:
        """Number of ordered violating pairs."""
        return len(self.edges)

    @property
    def violating_tuples(self) -> set[int]:
        """Tuples involved in at least one violation."""
        involved: set[int] = set()
        for u, v in self.edges:
            involved.add(u)
            involved.add(v)
        return involved

    def undirected(self) -> nx.Graph:
        """Undirected view (vertex covers do not care about edge direction)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n_tuples))
        graph.add_edges_from({tuple(sorted(edge)) for edge in self.edges})
        return graph

    def violation_fraction(self) -> float:
        """``1 - f1``: violating pairs over all ordered distinct pairs."""
        total = self.n_tuples * (self.n_tuples - 1)
        return len(self.edges) / total if total else 0.0

    def problematic_tuple_fraction(self) -> float:
        """``1 - f2``: fraction of tuples involved in some violation."""
        return len(self.violating_tuples) / self.n_tuples if self.n_tuples else 0.0


def build_conflict_graph(relation: Relation, constraint: DenialConstraint) -> ConflictGraph:
    """Build the conflict graph of ``constraint`` on ``relation``."""
    edges = frozenset(constraint.violating_pairs(relation))
    return ConflictGraph(relation.n_rows, edges)


# ----------------------------------------------------------------------
# Vertex covers
# ----------------------------------------------------------------------
def minimum_vertex_cover_exact(graph: ConflictGraph, max_tuples: int = 24) -> set[int]:
    """Exact minimum vertex cover of the violating subgraph.

    The search is restricted to the tuples that actually appear in a
    violation, and is exponential in their number, so it refuses inputs with
    more than ``max_tuples`` such tuples.  Intended for tests and the small
    qualitative analyses.
    """
    involved = sorted(graph.violating_tuples)
    if len(involved) > max_tuples:
        raise ValueError(
            f"exact vertex cover limited to {max_tuples} conflicting tuples, "
            f"got {len(involved)}"
        )
    undirected_edges = {tuple(sorted(edge)) for edge in graph.edges}
    for size in range(len(involved) + 1):
        for subset in itertools.combinations(involved, size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in undirected_edges):
                return chosen
    return set(involved)


def vertex_cover_greedy(graph: ConflictGraph) -> set[int]:
    """Greedy log-n cover: repeatedly remove the highest-degree vertex.

    This is the explicit-graph algorithm the Figure 2 greedy is inspired by.
    """
    undirected = graph.undirected()
    undirected.remove_nodes_from([node for node in list(undirected) if undirected.degree(node) == 0])
    cover: set[int] = set()
    while undirected.number_of_edges() > 0:
        node = max(undirected.degree, key=lambda pair: pair[1])[0]
        cover.add(node)
        undirected.remove_node(node)
    return cover


def rank_tuples_by_violations(scores: "Sequence[int] | np.ndarray") -> list[int]:
    """Rank tuple indices by violation score, worst offender first.

    ``scores[t]`` is the number of violating pairs tuple ``t`` participates
    in — the ``v(t)`` vector of the paper's ``SortTuples`` (Figure 2), which
    the greedy cardinality-repair heuristics peel from the top.  Ties break
    on the lower tuple index so the ranking is deterministic; tuples with a
    zero score are omitted (they need no repair).
    """
    array = np.asarray(scores, dtype=np.int64)
    involved = np.flatnonzero(array > 0)
    order = involved[np.argsort(-array[involved], kind="stable")]
    return order.tolist()


# ----------------------------------------------------------------------
# f3 values
# ----------------------------------------------------------------------
def exact_f3_violation(relation: Relation, constraint: DenialConstraint, max_tuples: int = 24) -> float:
    """Exact ``1 - f3``: minimum fraction of tuples to delete to satisfy the DC."""
    graph = build_conflict_graph(relation, constraint)
    cover = minimum_vertex_cover_exact(graph, max_tuples=max_tuples)
    return len(cover) / relation.n_rows if relation.n_rows else 0.0


def cardinality_repair(relation: Relation, constraint: DenialConstraint, max_tuples: int = 24) -> Relation:
    """A maximum sub-instance of ``relation`` satisfying ``constraint``.

    The deleted tuples form an exact minimum vertex cover of the conflict
    graph; the result realises the ``D'`` of the f3 definition.
    """
    graph = build_conflict_graph(relation, constraint)
    cover = minimum_vertex_cover_exact(graph, max_tuples=max_tuples)
    keep = [index for index in range(relation.n_rows) if index not in cover]
    return relation.take(keep)
