from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nmgraph import analytics, nm, oracles, verify
from nmgraph.graph import Graph, connected_components, from_edges, parse_edge_list
from nmgraph.nm import NeighborhoodMatrix, build_nm
from nmgraph.random_graphs import corpus, gnp
from helpers import (
    all_graphs_up_to,
    complete_graph,
    cycle_graph,
    edgeless,
    example7_graph,
    graphs,
    graphs_of_any_density,
    path_graph,
    random_corpus,
    sparse_graphs,
)

ROW_PROFILES = dict(verify.INVARIANTS)["row-profile-decoding"]
SYMMETRY = dict(verify.INVARIANTS)["symmetry-iff-regular-components"]


def test_census_built_at_most_once_per_graph(monkeypatch):
    calls: Counter[int] = Counter()
    census = oracles.subgraph_census

    def counted(g, *args, **kwargs):
        calls[id(g)] += 1
        return census(g, *args, **kwargs)

    monkeypatch.setattr(oracles, "subgraph_census", counted)
    graphs = corpus(20, 16, 7) + random_corpus(10, 24, seed=3)
    results = verify.run_suite(graphs)
    assert all(r.passed for r in results)
    assert max(calls.values()) == 1
    assert set(calls) == {id(g) for g in graphs if g.n <= oracles.ENUMERATION_LIMIT}


def test_report_built_once_per_graph(monkeypatch):
    seen = []
    report = analytics.structural_report

    def recorded(m):
        seen.append(m)
        return report(m)

    monkeypatch.setattr(analytics, "structural_report", recorded)
    graphs = corpus(20, 16, 7) + random_corpus(10, 24, seed=3)
    results = verify.run_suite(graphs)
    assert all(r.passed for r in results)
    assert seen == [build_nm(g) for g in graphs]  # one call per graph, in order


def test_set_based_matrix_built_once_per_graph(monkeypatch):
    calls = []
    set_based = oracles.set_based_entries

    def counted(g, *args, **kwargs):
        calls.append(g)
        return set_based(g, *args, **kwargs)

    # wherever a module holds the function, its calls are counted
    monkeypatch.setattr(oracles, "set_based_entries", counted)
    monkeypatch.setattr(nm, "set_based_entries", counted, raising=False)
    graphs = corpus(20, 16, 7)
    results = verify.run_suite(graphs)
    assert all(r.passed for r in results)
    assert calls == graphs


def test_transpose_built_once_per_graph(monkeypatch):
    seen = []
    transpose = nm.transpose

    def recorded(m):
        seen.append(m)
        return transpose(m)

    # wherever a module holds the function, its calls are counted
    monkeypatch.setattr(nm, "transpose", recorded)
    monkeypatch.setattr(verify, "transpose", recorded)
    graphs = corpus(20, 16, 7)
    results = verify.run_suite(graphs)
    assert all(r.passed for r in results)
    assert seen == [build_nm(g) for g in graphs]  # one call per graph, in order


def test_wrong_srg_parameters_fail_characterizations(monkeypatch):
    report = analytics.structural_report
    monkeypatch.setattr(
        analytics, "structural_report",
        lambda m: dataclasses.replace(report(m), srg_parameters=(99, 0, 0)))
    results = verify.run_suite(corpus(5, 8, 2))
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["characterization-biconditionals"]
    assert failed[0].first_failure.startswith("strong-regularity parameters (99, 0, 0)")


def test_wrong_component_count_fails_diameter_predicates(monkeypatch):
    # The corpus opens with the graph on no vertices, whose count 0 turns
    # into 1: fewer than two vertices have no finite diameter either way.
    graphs = corpus(5, 8, 2)
    assert all(r.passed for r in verify.run_suite(graphs))
    report = analytics.structural_report

    def off_by_one(m):
        r = report(m)
        return dataclasses.replace(r, component_count=r.component_count + 1)

    monkeypatch.setattr(analytics, "structural_report", off_by_one)
    results = verify.run_suite(graphs)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["diameter-predicates"]
    assert failed[0].first_failure == "component count 2 vs oracle diameter 2"


def test_set_based_disagreement_fails_dual_path(monkeypatch):
    set_based = oracles.set_based_entries

    def corrupted(g):
        entries = set_based(g)
        entries[0, 0] -= 1
        return entries

    monkeypatch.setattr(oracles, "set_based_entries", corrupted)
    results = verify.run_suite([from_edges(3, [(0, 1)])])
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["dual-path-identity"]
    assert failed[0].first_failure == "row-sum and set-based constructions disagree"


def _shifted_census(**shifts):
    """A wrong census: the real one with each named count shifted."""
    return lambda c: dataclasses.replace(c, **{k: getattr(c, k) + d for k, d in shifts.items()})


@pytest.mark.parametrize("module, name, wrong, g, check, detail", [
    (verify, "reconstruct_adjacency", lambda h: edgeless(h.n), example7_graph(),
     "reconstruction-round-trip", "reconstructed edge set differs"),
    (oracles, "triangle_count_trace", lambda t: t + 1, example7_graph(),
     "triangle-count-oracles", "matrix count 1 != trace count 2"),
    (oracles, "subgraph_census", _shifted_census(triangle_count=1), example7_graph(),
     "triangle-count-oracles", "matrix count 1 != enumeration 2"),
    (oracles, "subgraph_census", _shifted_census(k4_count=1), example7_graph(),
     "four-cycle-count-oracles", "quarter terms 1, 0 != enumeration 1, 3"),
    (verify, "girth", lambda gr: 3, cycle_graph(5),
     "characterization-biconditionals", "triangle-free predicate vs girth oracle"),
    # three more induced C4s, six fewer K4-e and one more K4 leave both
    # quarter terms as they were, so only the induced count is wrong
    (oracles, "subgraph_census",
     _shifted_census(c4_induced=3, k4_minus_edge_count=-6, k4_count=1), cycle_graph(5),
     "characterization-biconditionals", "induced-C4-free predicate vs enumeration"),
    (verify, "girth", lambda gr: 4, cycle_graph(5),
     "characterization-biconditionals", "girth>=5 predicate vs girth oracle 4"),
    (verify, "diameter", lambda d: 3, complete_graph(4),
     "diameter-predicates", "diameter<=2 predicate vs oracle diameter 3"),
    # the middle of P5 reaches every vertex in two steps; the diameter is 4
    (verify, "diameter", lambda d: 5, path_graph(5),
     "diameter-predicates", "row without zeros but diameter 5 > 4"),
], ids=["round-trip", "trace", "census-triangles", "quarter-terms", "triangle-free",
        "induced-c4-free", "girth-at-least-5", "diameter-at-most-2", "row-without-zeros"])
def test_each_check_fails_on_a_wrong_oracle(monkeypatch, module, name, wrong, g, check, detail):
    assert all(r.passed for r in verify.run_suite([g]))
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: wrong(real(*args)))
    failed = [(r.name, r.first_failure) for r in verify.run_suite([g]) if not r.passed]
    assert failed == [(check, detail)]


@pytest.mark.parametrize("corrupt", [
    lambda e: e.__setitem__((0, 0), e[0, 0] - 1),  # the diagonal
    lambda e: e.__setitem__((0, 1), e[0, 1] + 1),  # a stored entry
    lambda e: e.__setitem__((0, 3), 5),  # an entry M does not store
], ids=["diagonal", "stored", "unstored"])
def test_set_based_array_is_compared_everywhere(monkeypatch, corrupt):
    set_based = oracles.set_based_entries
    g = from_edges(4, [(0, 1), (1, 2)])  # m_03 = 0: 0 and 3 share no neighbour

    def corrupted(h):
        entries = set_based(h)
        corrupt(entries)
        return entries

    monkeypatch.setattr(oracles, "set_based_entries", corrupted)
    failed = [(r.name, r.first_failure) for r in verify.run_suite([g]) if not r.passed]
    assert failed == [("dual-path-identity", "row-sum and set-based constructions disagree")]


@pytest.mark.parametrize("half, check, detail", [
    (0, "dual-path-identity", "row-sum and product constructions disagree"),
    (1, "transpose-identity", "mirrored product is not the transpose"),
], ids=["product", "mirrored"])
@pytest.mark.parametrize("corrupt", [
    lambda e: e.__setitem__((0, 0), e[0, 0] - 1),  # the diagonal
    lambda e: e.__setitem__((0, 1), e[0, 1] + 1),  # a stored entry
    lambda e: e.__setitem__((0, 3), 5),  # an entry M does not store
], ids=["diagonal", "stored", "unstored"])
def test_each_product_is_compared_everywhere(monkeypatch, half, check, detail, corrupt):
    real = oracles.products
    g = from_edges(4, [(0, 1), (1, 2)])  # m_03 = m_30 = 0: 0 and 3 share no neighbour

    def corrupted(h):
        arrays = real(h)
        corrupt(arrays[half])
        return arrays

    monkeypatch.setattr(oracles, "products", corrupted)
    failed = [(r.name, r.first_failure) for r in verify.run_suite([g]) if not r.passed]
    assert failed == [(check, detail)]


def test_no_check_writes_to_an_oracle_array(monkeypatch):
    made = []  # (array, its copy when made) for every oracle array
    products, set_based = oracles.products, oracles.set_based_entries

    def kept(*arrays):
        made.extend((a, a.copy()) for a in arrays)
        return arrays

    monkeypatch.setattr(oracles, "products", lambda g: kept(*products(g)))
    monkeypatch.setattr(oracles, "set_based_entries", lambda g: kept(set_based(g))[0])
    graphs = corpus(20, 16, 7)
    assert all(r.passed for r in verify.run_suite(graphs))
    assert len(made) == 3 * len(graphs)  # per graph, the products once and the set-based array
    assert all(np.array_equal(a, copy) for a, copy in made)


def test_off_diagonal_magnitude_fails_entry_shape(monkeypatch):
    def corrupted(g):
        entries = build_nm(g).entries.copy()
        entries[0, g.n - 1] = -g.n  # a non-edge sharing n common neighbours
        return NeighborhoodMatrix(entries=entries, labels=g.labels)

    monkeypatch.setattr(verify, "build_nm", corrupted)
    results = {r.name: r for r in verify.run_suite([from_edges(4, [(0, 1), (1, 2)])])}
    shape = results["entry-shape"]
    assert not shape.passed
    assert shape.first_failure == "entry magnitude exceeds n - 1"
    assert shape.counterexample.splitlines()[0] == "# n=4 isolated: 3"


def test_in_row_edge_swap_fails_row_profile_decoding(monkeypatch):
    # Row 4 of the worked example is [-2, 2, -1, 2, -4, 2, 1], its
    # neighbours 1, 3, 5, 6.  Swapping the edge entry at 6 with the
    # non-edge entry at 2 keeps the row sum and the level-1/level-2 balance
    # (3 = 3); only level 1 no longer matches the neighbours.
    def corrupted(g):
        entries = build_nm(g).entries.copy()
        entries[4, [2, 6]] = entries[4, [6, 2]]
        return NeighborhoodMatrix(entries=entries, labels=g.labels)

    monkeypatch.setattr(verify, "build_nm", corrupted)
    results = {r.name: r for r in verify.run_suite([example7_graph()])}
    assert results["row-sums-zero"].passed
    decoding = results["row-profile-decoding"]
    assert not decoding.passed
    assert decoding.first_failure == "row 4: level 1 is not N(i)"


@given(st.one_of(graphs(), sparse_graphs()), st.data())
def test_row_profile_decoding_catches_every_in_row_swap(g: Graph, data):
    ctx = verify.GraphContext(g)
    assert ROW_PROFILES(ctx) is None
    # A row with a neighbour and a non-neighbour other than itself.
    mixed = [i for i in range(g.n) if 0 < g.degree(i) < g.n - 1]
    if not mixed:
        return
    i = data.draw(st.sampled_from(mixed))
    j = data.draw(st.sampled_from(sorted(g.adj[i])))
    k = data.draw(st.sampled_from(sorted(set(range(g.n)) - g.adj[i] - {i})))
    entries = ctx.m.entries.copy()
    entries[i, [j, k]] = entries[i, [k, j]]
    ctx.m = NeighborhoodMatrix(entries=entries, labels=g.labels)
    assert ROW_PROFILES(ctx) == f"row {i}: level 1 is not N(i)"


def test_verify_does_not_decode_rows_one_by_one(monkeypatch):
    def refused(m, i):
        raise AssertionError("row_profile called")

    monkeypatch.setattr(nm, "row_profile", refused)
    monkeypatch.setattr(verify, "row_profile", refused, raising=False)
    results = verify.run_suite(corpus(20, 16, 7))
    assert all(r.passed for r in results)


def test_sum_details_name_one_row_and_column(monkeypatch):
    def corrupted(g):
        entries = build_nm(g).entries.copy()
        entries[3, 3] -= 1
        return NeighborhoodMatrix(entries=entries, labels=g.labels)

    monkeypatch.setattr(verify, "build_nm", corrupted)
    g = gnp(256, 8 / 255, seed=5)
    results = {r.name: r for r in verify.run_suite([g])}
    rows, columns = results["row-sums-zero"], results["column-sum-formula"]
    assert rows.first_failure == "row 3 sums to -1"
    assert columns.first_failure.startswith("InvalidMatrixError: column sums: column 3 sums to")
    assert len(columns.first_failure) < 200


@pytest.mark.parametrize("g, header, edges", [
    (edgeless(0), "# n=0 isolated: none", 0),
    (edgeless(3), "# n=3 isolated: 0 1 2", 0),
    (from_edges(4, [(0, 1), (1, 3)], labels=(5, 6, 7, 8)), "# n=4 isolated: 7", 2),
])
def test_counterexample_keeps_vertices(monkeypatch, g, header, edges):
    monkeypatch.setattr(verify, "INVARIANTS", [("always-fails", lambda ctx: "forced")])
    (result,) = verify.run_suite([g])
    text = result.counterexample
    assert text.splitlines()[0] == header
    replayed = parse_edge_list(text)  # the '#' line is skipped
    assert replayed.edge_count == g.edge_count == edges
    assert set(replayed.labels) == {g.labels[v] for v in range(g.n) if g.adj[v]}


def components_regular(g: Graph) -> bool:
    """Reference: every component holds a single degree."""
    parts = connected_components(g)
    return len(set(zip(parts.membership, g.degrees.tolist()))) == parts.count


def assert_regularity_read_as_components(g: Graph) -> None:
    ctx = verify.GraphContext(g)
    assert SYMMETRY(ctx) is None
    # Against a symmetric matrix the check passes iff it finds every
    # component regular, so this pins its regularity test alone.
    ctx.m = NeighborhoodMatrix(entries=np.zeros((g.n, g.n), dtype=np.int64), labels=g.labels)
    assert (SYMMETRY(ctx) is None) == components_regular(g)


def test_regularity_by_edge_degrees_on_all_graphs_up_to_5():
    for g in all_graphs_up_to(5):
        assert_regularity_read_as_components(g)


@given(st.one_of(graphs(), sparse_graphs(), graphs_of_any_density()))
def test_regularity_by_edge_degrees_matches_components(g: Graph):
    assert_regularity_read_as_components(g)


def test_a_view_built_matrix_is_verified_without_densifying(monkeypatch):
    # a few disjoint edges and a short path on 40 vertices: the 2-path
    # kernel builds M, and the determinant check skips n > DETERMINANT_LIMIT
    g = from_edges(40, [(0, 1), (2, 3), (4, 5), (6, 7), (7, 8), (8, 9)])
    assert g.n > verify.DETERMINANT_LIMIT
    assert nm.SPARSE_WORK_RATIO * int(g.degrees[g.indices].sum()) < g.n ** 3

    def refused(self):
        raise AssertionError("NeighborhoodMatrix.entries read")

    monkeypatch.setattr(NeighborhoodMatrix, "entries", property(refused))
    results = verify.run_suite([g])
    assert [r.name for r in results if not r.passed] == []
    assert all(r.checked == 1 for r in results)
