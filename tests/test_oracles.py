from __future__ import annotations

import importlib
import inspect
from math import comb

import pytest
from hypothesis import given, settings

from nmgraph import oracles
from nmgraph.errors import SizeGuardError
from nmgraph.graph import from_edges
from nmgraph.nm import build_nm
from nmgraph.oracles import (
    SubgraphCensus,
    adjacency_matrix,
    products,
    srg_parameters,
    subgraph_census,
    triangle_count_trace,
)
from helpers import (
    census_by_subsets,
    circulant,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edgeless,
    edges,
    example7_graph,
    graphs_of_any_density,
    has_edge,
    imported_modules,
    two_squares_graph,
    k4_minus_edge,
    paley,
    path_graph,
    paw,
    petersen,
    q3_cube,
    random_corpus,
    sparse_graphs,
    srg_by_pairs,
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
        g = from_edges(n, [])
        with pytest.raises(SizeGuardError, match="float64"):
            triangle_count_trace(g)
        with pytest.raises(SizeGuardError, match="float64"):
            products(g)


class TestSrgParameters:
    @pytest.mark.parametrize("g, expected", [
        (petersen(), (3, 0, 1)),
        (paley(13), (6, 2, 3)),
        (cycle_graph(5), (2, 0, 1)),
        (complete_multipartite(3, 3), (3, 0, 3)),
        (complete_multipartite(3, 3, 3), (6, 3, 6)),
        (from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), (2, 1, 0)),
        (q3_cube(), None),
        (circulant(64, range(1, 5)), None),  # 8-regular, not strongly regular
        (circulant(6, (2, 3)), None),  # the triangular prism: mu2 = 2 but mu1 is 0 or 1
        (complete_graph(1), None),
        (complete_graph(2), None),
        (edgeless(3), None),
        # 3-regular, and row 0 fits (3, 2, 0), but the Petersen edges share no neighbour
        (from_edges(14, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                    + [(u + 4, v + 4) for u, v in edges(petersen())]), None),
    ], ids=["petersen", "paley13", "C5", "K33", "K333", "2K3", "Q3",
            "circulant64", "prism", "K1", "K2", "edgeless3", "K4+petersen"])
    def test_fixtures(self, g, expected):
        assert srg_parameters(g) == srg_by_pairs(g) == expected

    @settings(max_examples=120)
    @given(graphs_of_any_density(max_n=16) | sparse_graphs(max_n=40))
    def test_matches_pair_reference(self, g):
        assert srg_parameters(g) == srg_by_pairs(g)


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
        assert c == SubgraphCensus(0, 0, 0, 0)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError, match="enumeration limit 16"):
            subgraph_census(edgeless(17))
        assert subgraph_census(edgeless(16)) == SubgraphCensus(0, 0, 0, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_fewest_vertices(self, n):
        # no 3-subset below n = 3, no 4-subset below n = 4, one at n = 4
        for g in (edgeless(n), complete_graph(n)):
            assert subgraph_census(g) == census_by_subsets(g)
        expected = SubgraphCensus(comb(n, 3), 0, comb(n, 4), 0)
        assert subgraph_census(complete_graph(n)) == expected

    @pytest.mark.parametrize("g, expected", [
        (complete_graph(4), SubgraphCensus(4, 0, 1, 0)),
        (k4_minus_edge(), SubgraphCensus(2, 0, 0, 1)),
        (cycle_graph(4), SubgraphCensus(0, 1, 0, 0)),
        (paw(), SubgraphCensus(1, 0, 0, 0)),
        (path_graph(4), SubgraphCensus(0, 0, 0, 0)),
    ], ids=["K4", "K4-e", "C4", "paw", "P4"])
    def test_four_vertex_shapes(self, g, expected):
        assert subgraph_census(g) == expected == census_by_subsets(g)

    @settings(max_examples=120)
    @given(graphs_of_any_density(max_n=16))
    def test_matches_reference_classifier(self, g):
        assert subgraph_census(g) == census_by_subsets(g)

    def test_planted_shapes_at_16(self):
        n = 16
        assert subgraph_census(complete_graph(n)) == SubgraphCensus(
            comb(n, 3), 0, comb(n, 4), 0)
        # a K4, an induced C4 and a paw on disjoint vertices, the rest isolated
        planted = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                   (5, 6), (6, 7), (7, 8), (8, 5),
                   (11, 12), (11, 13), (12, 13), (13, 15)]
        c = subgraph_census(from_edges(n, planted))
        assert c == SubgraphCensus(triangle_count=5, c4_induced=1,
                                   k4_count=1, k4_minus_edge_count=0)

    def test_cache_holds_no_entry_above_16(self):
        assert oracles.ENUMERATION_LIMIT == 16
        subgraph_census(edgeless(16))
        cached = oracles._subsets.cache_info().currsize
        with pytest.raises(SizeGuardError):
            subgraph_census(edgeless(17))
        assert oracles._subsets.cache_info().currsize == cached
        for k in (3, 4):
            subsets = oracles._subsets(16, k)
            assert subsets.shape == (k, comb(16, k)) and not subsets.flags.writeable
            with pytest.raises(ValueError):
                subsets[0, 0] = 1

    def test_reads_only_the_graph(self):
        # independent of the fast path: no import of the matrix modules
        imported = imported_modules(inspect.getsource(oracles))
        assert "nmgraph.graph" in imported
        assert not imported & {"nmgraph.nm", "nmgraph.analytics", "nmgraph.matio",
                               "nmgraph.verify"}


@pytest.mark.parametrize("module", ["graph", "nm", "analytics", "matio", "textio",
                                    "random_graphs"])
def test_no_fast_path_module_imports_the_oracles(module):
    # the other half of the oracles' independence: what they check never
    # calls them
    source = inspect.getsource(importlib.import_module(f"nmgraph.{module}"))
    assert "nmgraph.oracles" not in imported_modules(source)


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
                    if has_edge(g, i, j):
                        assert m.entries[i, j] == g.degree(j) - sq[i, j]
                    else:
                        assert m.entries[i, j] == -sq[i, j]
