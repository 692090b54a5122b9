"""networkx as a second, test-only oracle for the graph-side oracles.

Skipped when networkx is missing; no module under src/ imports it.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmgraph
from nmgraph import analytics
from nmgraph.graph import Graph, diameter, from_edges, girth
from nmgraph.nm import build_nm
from nmgraph.oracles import srg_parameters, subgraph_census, triangle_count_trace
from helpers import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    diameter_by_bfs,
    edgeless,
    edges,
    graphs,
    graphs_of_any_density,
    imported_modules,
    paley,
    petersen,
    q3_cube,
    sparse_graphs,
)

nx = pytest.importorskip("networkx")

SRC = Path(nmgraph.__file__).parent

any_graph = st.one_of(graphs_of_any_density(max_n=16), sparse_graphs(max_n=40))


def to_networkx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edges(g))
    return h


def srg_parameters_networkx(h) -> tuple[int, int, int] | None:
    """(k, mu1, mu2) from networkx degrees and common neighbours, under the
    convention of `oracles.srg_parameters`."""
    degrees = {d for _, d in h.degree()}
    if h.number_of_nodes() < 2 or len(degrees) != 1:
        return None
    mu1 = {len(list(nx.common_neighbors(h, u, v))) for u, v in h.edges()}
    mu2 = {len(list(nx.common_neighbors(h, u, v))) for u, v in nx.non_edges(h)}
    if len(mu1) != 1 or len(mu2) != 1:
        return None
    return (degrees.pop(), mu1.pop(), mu2.pop())


@settings(max_examples=80)
@given(any_graph)
def test_triangles(g: Graph):
    expected = sum(nx.triangles(to_networkx(g)).values()) // 3
    assert triangle_count_trace(g) == expected
    if g.n <= 16:
        assert subgraph_census(g).triangle_count == expected


@settings(max_examples=80)
@given(any_graph)
def test_girth(g: Graph):
    assert girth(g) == nx.girth(to_networkx(g))


@settings(max_examples=80)
@given(any_graph)
def test_diameter(g: Graph):
    h = to_networkx(g)
    expected = nx.diameter(h) if g.n >= 2 and nx.is_connected(h) else math.inf
    assert diameter(g) == expected
    assert diameter_by_bfs(g) == expected


@settings(max_examples=80)
@given(st.one_of(graphs(max_n=14), any_graph))
@example(edgeless(0))
@example(edgeless(3))
@example(from_edges(6, [(1, 2), (2, 4)]))  # vertices 0, 3 and 5 isolated
def test_component_count(g: Graph):
    expected = nx.number_connected_components(to_networkx(g))
    assert analytics.structural_report(build_nm(g)).component_count == expected


# name: (graph, (k, mu1, mu2) or None)
SRG_FIXTURES = {
    "C5": (cycle_graph(5), (2, 0, 1)),
    "petersen": (petersen(), (3, 0, 1)),
    "K3,3": (complete_multipartite(3, 3), (3, 0, 3)),
    "K2,2,2": (complete_multipartite(2, 2, 2), (4, 2, 4)),
    "paley13": (paley(13), (6, 2, 3)),
    "2K3": (from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), (2, 1, 0)),
    "K5": (complete_graph(5), None),
    "Q3": (q3_cube(), None),
}


@pytest.mark.parametrize("g, expected", SRG_FIXTURES.values(), ids=SRG_FIXTURES.keys())
def test_srg_parameters_fixtures(g: Graph, expected):
    assert srg_parameters(g) == srg_parameters_networkx(to_networkx(g)) == expected


@settings(max_examples=80)
@given(st.one_of(any_graph, st.sampled_from([g for g, _ in SRG_FIXTURES.values()])))
def test_srg_parameters(g: Graph):
    h = to_networkx(g)
    params = srg_parameters(g)
    assert params == srg_parameters_networkx(h)
    # networkx's own test covers connected graphs that are not complete
    if g.n >= 2 and nx.is_connected(h) and nx.density(h) < 1:
        assert (params is not None) == nx.is_strongly_regular(h)


def test_no_source_module_imports_networkx():
    for path in SRC.glob("*.py"):
        imported = imported_modules(path.read_text())
        assert not any(name.split(".")[0] == "networkx" for name in imported), path.name
