from __future__ import annotations

import numpy as np
import pytest

from nmgraph.errors import SizeGuardError
from nmgraph.graph import Graph, from_edges
from nmgraph.nm import build_nm, build_nm_product
from nmgraph.oracles import (
    SubgraphCensus,
    adjacency_matrix,
    subgraph_census,
    triangle_count_trace,
)
from helpers import (
    complete_graph,
    edgeless,
    example7_graph,
    two_squares_graph,
    k4_minus_edge,
    path_graph,
    random_corpus,
)


class TestTriangleTrace:
    def test_example7(self):
        assert triangle_count_trace(example7_graph()) == 1

    def test_k4(self):
        assert triangle_count_trace(complete_graph(4)) == 4

    def test_forest(self):
        assert triangle_count_trace(path_graph(6)) == 0

    def test_matches_census(self):
        for g in random_corpus(25, 14, seed=71):
            assert triangle_count_trace(g) == subgraph_census(g).triangle_count


class TestFloat64Guard:
    def test_too_large_for_exact_products(self):
        n = 2**18  # n(n-1)^2 >= 2^53; nothing n x n is allocated
        g = Graph(labels=tuple(range(n)), adj=(frozenset(),) * n)
        with pytest.raises(SizeGuardError, match="float64"):
            triangle_count_trace(g)
        with pytest.raises(SizeGuardError, match="float64"):
            build_nm_product(g)


class TestCensus:
    def test_two_squares(self):
        c = subgraph_census(two_squares_graph())
        assert (c.c4_total, c.c4_induced, c.k4_count, c.k4_minus_edge_count) == (2, 2, 0, 0)

    def test_k4(self):
        c = subgraph_census(complete_graph(4))
        assert c.c4_total == 3 and c.k4_count == 1

    def test_k4_minus_edge(self):
        c = subgraph_census(k4_minus_edge())
        assert c.c4_total == 1 and c.k4_minus_edge_count == 1 and c.c4_induced == 0

    def test_edgeless(self):
        c = subgraph_census(edgeless(6))
        assert c == SubgraphCensus(0, 0, 0, 0, 0)

    def test_size_guard(self):
        g = edgeless(65)
        with pytest.raises(SizeGuardError):
            subgraph_census(g)
        assert subgraph_census(g, allow_large=True).c4_total == 0

    def test_internal_identity_rechecked(self):
        with pytest.raises(ValueError):
            SubgraphCensus(triangle_count=0, c4_total=5, c4_induced=1,
                           k4_count=1, k4_minus_edge_count=0)


def all_pairs_common_neighbors(g):
    """A^2: common neighbours off the diagonal, degrees on it."""
    a = adjacency_matrix(g)
    return a @ a


class TestCommonNeighborMatrix:
    def test_example7_pair(self):
        sq = all_pairs_common_neighbors(example7_graph())
        assert sq[0, 4] == 2  # labels 1 and 5 share {2, 6}

    def test_diagonal_is_degree(self):
        g = example7_graph()
        sq = all_pairs_common_neighbors(g)
        assert [int(sq[v, v]) for v in range(g.n)] == [g.degree(v) for v in range(g.n)]

    def test_cross_validates_matrix_entries(self):
        for g in random_corpus(20, 18, seed=73):
            m = build_nm(g)
            sq = all_pairs_common_neighbors(g)
            for i in range(g.n):
                for j in range(g.n):
                    if i == j:
                        continue
                    if g.has_edge(i, j):
                        assert m.entries[i, j] == g.degree(j) - sq[i, j]
                    else:
                        assert m.entries[i, j] == -sq[i, j]
