"""End-to-end acceptance gate.

Each test covers one exit criterion at its stated tolerance (exact
integer or exact rational everywhere; the benchmark asserts ordering
only) and prints one pass line on success.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from nmgraph import analytics
from nmgraph.graph import adjacency_matrix, connected_components, diameter, girth
from nmgraph.nm import (
    build_nm,
    column_sums,
    determinant_exact,
    is_symmetric,
    reconstruct_adjacency,
    row_profile,
    row_sums,
)
from nmgraph.oracles import products, subgraph_census, triangle_count_trace
from nmgraph.random_graphs import gnp
from helpers import (
    EXAMPLE7_ADJACENCY,
    EXAMPLE7_MATRIX,
    all_graphs_up_to,
    complete_graph,
    example7_graph,
    two_squares_graph,
    k4_minus_edge,
    path_graph,
    petersen,
    q3_cube,
    random_corpus,
)


@lru_cache(maxsize=1)
def small_corpus():
    """All 1100 labelled graphs on up to 5 vertices."""
    return tuple(all_graphs_up_to(5))


@lru_cache(maxsize=1)
def random_32_corpus():
    return tuple(random_corpus(200, 32, seed=2024))


def test_criterion_1_worked_example_golden():
    start = time.perf_counter()
    g = example7_graph()
    m = build_nm(g)
    assert np.array_equal(m.entries, EXAMPLE7_MATRIX)
    h = reconstruct_adjacency(m)
    assert np.array_equal(adjacency_matrix(h), EXAMPLE7_ADJACENCY)
    assert time.perf_counter() - start < 1.0
    print("ACCEPTANCE 1 (7-vertex worked example golden): PASS")


def test_criterion_2_dual_path_identity():
    for g in small_corpus():
        assert np.array_equal(build_nm(g).entries, products(g)[0])
    for g in random_32_corpus():
        assert np.array_equal(build_nm(g).entries, products(g)[0])
    print("ACCEPTANCE 2 (dual-path identity): PASS")


def test_criterion_3_matrix_propositions():
    for g in list(small_corpus()) + list(random_32_corpus()):
        m = build_nm(g)
        assert row_sums(m) == [0] * g.n
        column_sums(m, g)  # raises on formula mismatch
        assert np.array_equal(products(g)[1], m.entries.T)
        if 1 <= g.n <= 12:
            assert determinant_exact(m) == 0
        parts = connected_components(g)
        regular = all(
            len({g.degree(v) for v in parts.vertices_of(c)}) <= 1
            for c in range(parts.count)
        )
        assert is_symmetric(m) == regular
    print("ACCEPTANCE 3 (matrix propositions): PASS")


def test_criterion_4_triangle_counting():
    assert analytics.triangle_count(build_nm(example7_graph())) == 1
    for g in small_corpus():
        fast = analytics.triangle_count(build_nm(g))
        assert fast == triangle_count_trace(g)
        assert fast == subgraph_census(g).triangle_count
    for g in random_32_corpus():
        fast = analytics.triangle_count(build_nm(g))  # raises on 6-indivisibility
        assert fast == triangle_count_trace(g)
        if g.n <= 16:
            assert fast == subgraph_census(g).triangle_count
    print("ACCEPTANCE 4 (triangle counting): PASS")


def test_criterion_5_four_cycle_counting():
    fixtures = [complete_graph(4), k4_minus_edge(), two_squares_graph()]
    corpus = fixtures + list(small_corpus()) + [
        g for g in random_32_corpus() if g.n <= 16
    ]
    for g in corpus:
        r = analytics.structural_report(build_nm(g))
        census = subgraph_census(g)
        assert r.four_cycle_count == census.c4_total
        assert r.s1_term + r.s2_term == r.four_cycle_count
        assert r.s1_term == census.c4_induced + Fraction(census.k4_minus_edge_count, 2)
        assert r.s2_term == 3 * census.k4_count + Fraction(census.k4_minus_edge_count, 2)
    print("ACCEPTANCE 5 (4-cycle counting): PASS")


def test_criterion_6_characterization_biconditionals():
    corpus = list(small_corpus()) + [g for g in random_32_corpus() if g.n <= 20]
    for g in corpus:
        r = analytics.structural_report(build_nm(g))
        gr = girth(g)
        assert r.triangle_free == (gr != 3)
        if g.n <= 16:
            census = subgraph_census(g)
            assert r.induced_c4_free == (census.c4_induced == 0)
        assert r.girth_at_least_5 == (gr >= 5)
        diam = diameter(g)
        if g.n >= 2:
            assert r.diameter_at_most_2 == (diam <= 2)
        if r.some_row_has_no_zero:
            assert diam <= 4

    # cube fixture: one zero per row, diameter 3 (one-way bound, converse fails)
    m = build_nm(q3_cube())
    assert [int((row == 0).sum()) for row in m.entries] == [1] * 8
    assert diameter(q3_cube()) == 3
    print("ACCEPTANCE 6 (characterization biconditionals): PASS")


def test_criterion_7_strong_regularity():
    r = analytics.structural_report(build_nm(petersen()))
    assert (r.distinct_entry_values == (-3, -1, 3) and r.srg_consistent
            and r.srg_parameters == (3, 0, 1))

    r = analytics.structural_report(build_nm(two_squares_graph()))
    assert (len(r.distinct_entry_values) == 3 and not r.srg_consistent
            and r.srg_parameters is None)
    print("ACCEPTANCE 7 (strong regularity): PASS")


def test_criterion_8_row_decoding():
    m = build_nm(example7_graph())
    p = row_profile(m, 4)  # vertex label 5
    assert p.level1 == {1, 3, 5, 6}  # labels {2, 4, 6, 7}
    assert p.level2 == {0: 2, 2: 1}  # labels {1: 2, 3: 1}
    assert p.degree == 4
    assert p.diagonal_candidates == {4}

    p3 = build_nm(path_graph(3))
    tie = row_profile(p3, 0)
    assert tie.diagonal_candidates == {0, 2}  # labels {1, 3}
    print("ACCEPTANCE 8 (row decoding): PASS")


def test_criterion_9_benchmark_sanity():
    start = time.perf_counter()
    n = 1024
    g = gnp(n, 8 / (n - 1), seed=99)

    nm_times, dense_times = [], []
    nm_count = dense_count = 0
    for _ in range(5):
        t0 = time.perf_counter()
        nm_count = analytics.triangle_count(build_nm(g))
        nm_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        a = adjacency_matrix(g)
        dense_count = int(np.trace(a @ a @ a)) // 6
        dense_times.append(time.perf_counter() - t0)

    assert nm_count == dense_count
    nm_median = sorted(nm_times)[2]
    dense_median = sorted(dense_times)[2]
    assert nm_median <= dense_median
    assert time.perf_counter() - start < 120
    print(
        f"ACCEPTANCE 9 (benchmark sanity): PASS "
        f"(nm median {nm_median * 1e3:.1f} ms, dense median {dense_median * 1e3:.1f} ms)"
    )
