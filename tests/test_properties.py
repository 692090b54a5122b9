from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmgraph import analytics
from nmgraph.graph import Graph, from_edges, girth
from nmgraph.nm import (
    build_mn,
    build_nm,
    build_nm_product,
    reconstruct_adjacency,
    row_profile,
    row_sums,
)
from nmgraph.oracles import set_based_entries, triangle_count_trace
from helpers import edgeless, graphs, graphs_of_any_density, sparse_graphs


@given(graphs())
def test_dual_construction_agrees(g: Graph):
    assert build_nm(g) == build_nm_product(g)


@settings(max_examples=60)
@given(st.one_of(graphs(max_n=64), sparse_graphs(max_n=64)))
def test_row_sum_builder_matches_both_oracles(g: Graph):
    m = build_nm(g)
    assert np.array_equal(m.entries, set_based_entries(g))
    assert m == build_nm_product(g)


@given(graphs())
def test_mirrored_product_is_transpose(g: Graph):
    assert np.array_equal(build_mn(g).entries, build_nm(g).entries.T)


@given(st.one_of(graphs(), sparse_graphs()))
def test_mirrored_product_matches_set_definition(g: Graph):
    # (D - A)A: |N(i) \ N(j)| on edges, -|N(i) ∩ N(j)| on non-edges
    assert np.array_equal(build_mn(g).entries, set_based_entries(g).T)


@given(graphs())
def test_row_sums_zero(g: Graph):
    assert row_sums(build_nm(g)) == [0] * g.n


@given(graphs())
def test_reconstruction_round_trip(g: Graph):
    assert reconstruct_adjacency(build_nm(g)).adj == g.adj


@given(graphs())
def test_row_profile_balance_and_diagonal(g: Graph):
    m = build_nm(g)
    for i in range(g.n):
        p = row_profile(m, i)
        assert sum(p.out_edge_count.values()) == sum(p.level2.values())
        assert i in p.diagonal_candidates
        assert p.degree == g.degree(i)


@settings(max_examples=50)
@given(graphs(max_n=10))
def test_triangle_formula_matches_trace(g: Graph):
    assert analytics.triangle_count(build_nm(g)) == triangle_count_trace(g)


@settings(max_examples=50)
@given(graphs(max_n=10))
def test_girth_predicates(g: Graph):
    r = analytics.structural_report(build_nm(g))
    gr = girth(g)
    assert r.triangle_free == (gr != 3)
    assert r.girth_at_least_5 == (gr >= 5)


@settings(max_examples=80)
@given(st.one_of(graphs(), sparse_graphs(max_n=24), graphs_of_any_density(max_n=16)))
@example(edgeless(0))
@example(edgeless(1))
@example(edgeless(2))
@example(from_edges(2, [(0, 1)]))
@example(from_edges(4, [(0, 1), (0, 2), (1, 2)]))
def test_zero_reading_fields_match_the_oracle_matrix(g: Graph):
    # the report sees only the stored nonzeros; the oracle matrix holds every entry
    e = set_based_entries(g)
    r = analytics.structural_report(build_nm(g))
    assert r.distinct_entry_values == tuple(np.unique(e).tolist())
    assert r.diameter_at_most_2 == (e.size > 0 and bool((e != 0).all()))
    assert r.some_row_has_no_zero == bool((e != 0).all(axis=1).any())
