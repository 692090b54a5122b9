from __future__ import annotations

import ast
import inspect
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nmgraph
from nmgraph import analytics
from nmgraph.errors import InvalidMatrixError
from nmgraph.graph import diameter, from_edges, girth
from nmgraph.nm import NeighborhoodMatrix, build_nm
from nmgraph.oracles import srg_parameters, subgraph_census
from helpers import (
    all_graphs_up_to,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edgeless,
    example7_graph,
    two_squares_graph,
    k4_minus_edge,
    paley,
    path_graph,
    petersen,
    q3_cube,
    random_corpus,
    random_regular,
)


class TestTriangleCount:
    def test_example7(self):
        assert analytics.triangle_count(build_nm(example7_graph())) == 1

    def test_two_squares_triangle_free(self):
        assert analytics.triangle_count(build_nm(two_squares_graph())) == 0

    def test_k4(self):
        assert analytics.triangle_count(build_nm(complete_graph(4))) == 4

    def test_divisibility_guard(self):
        bad = NeighborhoodMatrix(entries=np.array([[-1, 1], [2, -1]]), labels=(0, 1))
        with pytest.raises(InvalidMatrixError):
            analytics.triangle_count(bad)


def _report(g) -> analytics.StructuralReport:
    return analytics.structural_report(build_nm(g))


class TestFourCycleCount:
    def test_example7(self):
        r = _report(example7_graph())
        assert (r.four_cycle_count, r.s1_term, r.s2_term) == (1, Fraction(1), Fraction(0))

    def test_two_squares(self):
        r = _report(two_squares_graph())
        assert (r.four_cycle_count, r.s1_term, r.s2_term) == (2, Fraction(2), Fraction(0))

    def test_k4(self):
        r = _report(complete_graph(4))
        assert (r.four_cycle_count, r.s1_term, r.s2_term) == (3, Fraction(0), Fraction(3))

    def test_entry_out_of_range_rejected(self):
        # |entry| <= n - 1 in every neighbourhood matrix
        bad = NeighborhoodMatrix(entries=np.array([[-1, 2], [1, -1]]), labels=(0, 1))
        with pytest.raises(InvalidMatrixError):
            analytics.structural_report(bad)

    def test_k4_minus_edge_half_integers(self):
        r = _report(k4_minus_edge())
        assert (r.four_cycle_count, r.s1_term, r.s2_term) == (1, Fraction(1, 2), Fraction(1, 2))


class TestPredicates:
    def test_triangle_free(self):
        assert _report(two_squares_graph()).triangle_free
        assert not _report(example7_graph()).triangle_free
        assert _report(edgeless(4)).triangle_free

    def test_induced_c4_free(self):
        assert not _report(example7_graph()).induced_c4_free
        assert _report(petersen()).induced_c4_free
        assert not _report(two_squares_graph()).induced_c4_free

    def test_induced_c4_free_chorded_cycles(self):
        # every 4-cycle in these graphs is chorded
        assert _report(k4_minus_edge()).induced_c4_free
        assert _report(complete_graph(4)).induced_c4_free

    def test_girth_at_least_5(self):
        assert _report(petersen()).girth_at_least_5
        assert not _report(example7_graph()).girth_at_least_5
        assert _report(path_graph(4)).girth_at_least_5
        assert _report(edgeless(3)).girth_at_least_5

    def test_diameter_at_most_2(self):
        assert _report(cycle_graph(5)).diameter_at_most_2
        assert not _report(example7_graph()).diameter_at_most_2
        assert _report(from_edges(2, [(0, 1)])).diameter_at_most_2
        # no finite diameter below two vertices
        assert not _report(edgeless(0)).diameter_at_most_2
        assert not _report(edgeless(1)).diameter_at_most_2

    def test_some_row_has_no_zero(self):
        # row 5 of the 7-vertex example is (-2, 2, -1, 2, -4, 2, 1): no zeros
        assert _report(example7_graph()).some_row_has_no_zero
        assert _report(cycle_graph(5)).some_row_has_no_zero
        assert not _report(q3_cube()).some_row_has_no_zero
        # edgeless(1) catches a view that ignores the diagonal; K3 plus an isolated
        # vertex, one that counts the diagonal among a row's n - 1 stored entries
        assert not _report(edgeless(1)).some_row_has_no_zero
        k3_and_isolated = from_edges(4, [(0, 1), (0, 2), (1, 2)])
        assert not _report(k3_and_isolated).some_row_has_no_zero

    def test_q3_one_zero_per_row_but_diameter_3(self):
        m = build_nm(q3_cube())
        assert [int((row == 0).sum()) for row in m.entries] == [1] * 8
        assert diameter(q3_cube()) == 3  # converse of the diameter-4 bound fails

    def test_predicates_match_oracles(self):
        for g in random_corpus(30, 14, seed=83):
            r = _report(g)
            gr = girth(g)
            census = subgraph_census(g)
            assert r.triangle_free == (gr != 3)
            assert r.induced_c4_free == (census.c4_induced == 0)
            assert r.girth_at_least_5 == (gr >= 5)
            if g.n >= 2:
                assert r.diameter_at_most_2 == (diameter(g) <= 2)
            if r.some_row_has_no_zero:
                assert diameter(g) <= 4


class TestStrongRegularity:
    def test_petersen(self):
        r = _report(petersen())
        assert r.distinct_entry_values == (-3, -1, 3)
        assert r.srg_consistent and r.srg_parameters == (3, 0, 1)

    def test_two_squares_three_values_not_srg(self):
        r = _report(two_squares_graph())
        assert r.distinct_entry_values == (-2, 0, 2)
        assert not r.srg_consistent and r.srg_parameters is None

    def test_k3_two_values(self):
        assert _report(complete_graph(3)).distinct_entry_values == (-2, 1)

    def test_c5_is_srg(self):
        r = _report(cycle_graph(5))
        assert r.srg_consistent and r.srg_parameters == (2, 0, 1)
        assert r.distinct_entry_values == (-2, -1, 2)

    def test_k33_degree_equals_mu2(self):
        # -k = -mu2 = -3: the diagonal shares its value with every non-edge entry
        g = complete_multipartite(3, 3)
        r = _report(g)
        assert r.distinct_entry_values == (-3, 3)
        assert r.srg_consistent and r.srg_parameters == (3, 0, 3) == srg_parameters(g)

    def test_matches_oracle_on_all_graphs_up_to_5(self):
        for g in all_graphs_up_to(5):
            r = _report(g)
            assert r.srg_parameters == srg_parameters(g)
            assert r.srg_consistent == (r.srg_parameters is not None)

    def test_matches_oracle_on_fixtures(self):
        fixtures = [petersen(), q3_cube(), cycle_graph(5), paley(13),
                    complete_multipartite(3, 3, 3), complete_multipartite(3, 3)]
        fixtures += [random_regular(n, 4, seed=n * 100 + s)
                     for n in (9, 10, 12, 16, 20) for s in range(6)]
        expected = [(3, 0, 1), None, (2, 0, 1), (6, 2, 3), (6, 3, 6), (3, 0, 3)]
        for i, g in enumerate(fixtures):
            params = _report(g).srg_parameters
            assert params == srg_parameters(g)
            if i < len(expected):
                assert params == expected[i]

    def test_srg_implies_few_values(self):
        for g in random_corpus(30, 10, seed=89):
            r = _report(g)
            if r.srg_consistent:
                assert len(r.distinct_entry_values) in (2, 3)


class TestReport:
    def test_example7_report(self):
        g = example7_graph()
        r = analytics.structural_report(build_nm(g))
        assert r.triangle_count == 1
        assert r.four_cycle_count == 1
        assert not r.triangle_free and not r.diameter_at_most_2
        assert r.distinct_entry_values == (-4, -3, -2, -1, 0, 1, 2, 3, 4)

    def test_inconsistent_report_raises_under_optimize(self):
        # an edge entry above its column's degree gives a negative codegree;
        # the check is a raise, not an assert, which -O strips.  The
        # codegrees sum to 0 and the 4-cycle total is 1, so no other check
        # trips first.
        code = (
            "import numpy as np\n"
            "from nmgraph.analytics import structural_report\n"
            "from nmgraph.errors import InvalidMatrixError\n"
            "from nmgraph.nm import NeighborhoodMatrix\n"
            "m = NeighborhoodMatrix(np.array([[-1, 2, -3, 0], [0, -1, 0, 0],\n"
            "                                 [0, 0, -1, 1], [0, 0, 0, -2]]), (0, 1, 2, 3))\n"
            "try:\n"
            "    structural_report(m)\n"
            "except InvalidMatrixError:\n"
            "    print('raised')\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60, env={"PYTHONPATH": str(src)})
        assert done.stdout.strip() == "raised", done.stderr

    def test_two_squares_report(self):
        g = two_squares_graph()
        r = analytics.structural_report(build_nm(g))
        assert r.triangle_free and not r.srg_consistent
        assert r.four_cycle_count == 2
        assert r.s1_term + r.s2_term == 2


@pytest.mark.parametrize("source", [
    path for path in sorted(Path(nmgraph.__file__).parent.glob("*.py"))
    if path.stem not in ("nm", "matio")
], ids=lambda path: path.stem)
def test_reads_m_only_through_the_nonzero_view(source):
    # how M is stored is known to nm and matio alone: no other module
    # touches m.entries
    tree = ast.parse(source.read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert reads == []


@pytest.mark.parametrize("source", sorted(Path(nmgraph.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_checks_are_raises_not_asserts(source):
    # an assert vanishes under python -O; a correctness check must not
    tree = ast.parse(source.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def _called_names(path: Path) -> set[str]:
    """Names of the functions a source file calls, bare or as attributes."""
    calls = (node.func for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call))
    return {getattr(func, "id", None) or getattr(func, "attr", None) for func in calls}


def test_every_exported_function_has_a_caller():
    # a function that only its own tests call is not API: it belongs in
    # tests/helpers.py as a reference
    root = Path(__file__).resolve().parent.parent
    in_src = {path: _called_names(path) for path in Path(nmgraph.__file__).parent.glob("*.py")}
    outside = set().union(*map(_called_names, [*(root / "perfbench").glob("*.py"),
                                               root / "tests" / "test_acceptance.py"]))
    uncalled = []
    for name in nmgraph.__all__:
        fn = getattr(nmgraph, name)
        if inspect.isfunction(fn) and name not in outside and not any(
                name in calls for path, calls in in_src.items() if path != Path(inspect.getfile(fn))):
            uncalled.append(name)
    assert uncalled == []


def test_every_analytics_function_has_a_command_caller():
    # the structural report is the analytics API: a public function that no
    # command calls would re-run part of it under a second name
    package = Path(nmgraph.__file__).parent
    calls = _called_names(package / "cli.py") | _called_names(package / "verify.py")
    public = [name for name, fn in inspect.getmembers(analytics, inspect.isfunction)
              if fn.__module__ == analytics.__name__ and not name.startswith("_")]
    assert [name for name in public if name not in calls] == []
