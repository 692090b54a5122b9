from __future__ import annotations

import ast
import math
import subprocess
import sys
import time
import warnings
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmgraph
from nmgraph import analytics, graph
from nmgraph.cli import main
from nmgraph.errors import ParseError
from nmgraph.graph import (
    Graph,
    connected_components,
    diameter,
    format_edge_list,
    from_edges,
    girth,
    parse_edge_list,
)
from nmgraph.nm import build_nm
from helpers import (
    EXAMPLE7_EDGE_LINES,
    as_text,
    bfs_levels,
    common_neighbors,
    complete_graph,
    diameter_by_bfs,
    edge_list_texts,
    edgeless,
    edges,
    example7_graph,
    graphs,
    graphs_of_any_density,
    two_squares_graph,
    path_graph,
    q3_cube,
    random_bipartite,
    random_corpus,
    read_file,
    reference_girth,
    sparse_graphs,
)


class TestParseEdgeList:
    def test_example7(self):
        g = parse_edge_list("\n".join(EXAMPLE7_EDGE_LINES).encode())
        assert g.n == 7
        assert g.edge_count == 8
        # N(5) = {2, 4, 6, 7} in external labels
        idx5 = g.labels.index(5)
        assert {g.labels[v] for v in g.adj[idx5]} == {2, 4, 6, 7}

    def test_empty_input(self):
        g = parse_edge_list(b"")
        assert g.n == 0
        assert g.edge_count == 0

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list(b"1 2\n3 3\n")
        assert exc.value.line_number == 2

    def test_non_integer_token_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list(b"1 2\n\na b\n")
        assert exc.value.line_number == 3

    def test_comments_blanks_and_duplicates(self):
        g = parse_edge_list(b"# header\n\n1 2\n2 1\n1 2\n")
        assert g.n == 2
        assert g.edge_count == 1

    def test_first_appearance_label_order(self):
        g = parse_edge_list(b"5 9\n9 2\n")
        assert g.labels == (5, 9, 2)

    def test_degree_sum_is_twice_edges(self):
        for g in random_corpus(20, 16, seed=11):
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count

    def test_format_round_trip(self):
        g = example7_graph()
        h = parse_edge_list(bytes(format_edge_list(g)))
        # same edge set in external labels (internal order may differ)
        as_labels = lambda gg: {
            frozenset((gg.labels[u], gg.labels[v])) for u, v in edges(gg)
        }
        assert as_labels(h) == as_labels(g)


# -- the whole-array parse and format against per-line references -------------

def reference_parse(text: str) -> tuple[tuple[int, ...], tuple[frozenset[int], ...]]:
    """Labels in first-appearance order and adjacency, one line at a time."""
    index: dict[int, int] = {}
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            a, b = (index.setdefault(int(tok), len(index)) for tok in line.split())
            edges.append((a, b))
    adj: list[set[int]] = [set() for _ in index]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return tuple(index), tuple(frozenset(s) for s in adj)


def reference_format(g) -> str:
    pairs = sorted((min(g.labels[u], g.labels[v]), max(g.labels[u], g.labels[v]))
                   for u, v in edges(g))
    return "".join(f"{a} {b}\n" for a, b in pairs)


class TestWholeArrayEdgeList:
    @settings(max_examples=200)
    @given(edge_list_texts())
    def test_parse_and_format_match_references(self, text):
        g = parse_edge_list(text.encode())
        assert (g.labels, g.adj) == reference_parse(text)
        assert as_text(format_edge_list(g)) == reference_format(g)

    def test_int64_extremes(self):
        g = parse_edge_list(b"9223372036854775807 0\n+5 9223372036854775807\n")
        assert g.labels == (2**63 - 1, 0, 5)
        assert as_text(format_edge_list(g)) == "0 9223372036854775807\n5 9223372036854775807\n"

    @pytest.mark.parametrize("top, by_unique", [
        (graph.RELABEL_TABLE_SLACK * 8 + 1024 - 1, False),  # 8 labels read
        (graph.RELABEL_TABLE_SLACK * 8 + 1024, True),
    ])
    def test_relabel_table_bound(self, top, by_unique, monkeypatch):
        text = f"7 3\n3 0\n0 {top}\n{top} 7\n"
        unique, calls = np.unique, []
        monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
        g = parse_edge_list(text.encode())
        assert (g.labels, g.adj) == reference_parse(text)
        assert len(calls) == by_unique

    def test_remap_spans_blocks(self):
        rng = np.random.default_rng(4)
        lines = graph.INPLACE_BLOCK + 7  # 2 * INPLACE_BLOCK + 14 labels: three blocks
        tails = rng.integers(0, 5000, lines)
        heads = (tails + rng.integers(1, 5000, lines)) % 5000  # no self-loop
        text = "".join(f"{a} {b}\n" for a, b in zip(tails.tolist(), heads.tolist()))
        g = parse_edge_list(text.encode())
        assert (g.labels, g.adj) == reference_parse(text)

    @pytest.mark.parametrize("text", ["0 9223372036854775807\n", "9223372036854775807 0\n"])
    def test_labels_zero_and_int64_max(self, text):
        g = parse_edge_list(text.encode())
        assert (g.labels, g.adj) == reference_parse(text)

    @pytest.mark.parametrize("text, line, message", [
        ("1 2\n1 2 3\n", 2, "expected 2 entries, got 3"),
        ("# c\n\n7\n", 3, "expected 2 entries, got 1"),
        ("1 2\n1 x\n", 2, "not an int64 integer"),
        ("1 2\n1_0 2\n", 2, "not an int64 integer"),
        ("1 \uff12\n", 1, "not an int64 integer"),           # full-width digit two
        ("1 2\n\n1 9223372036854775808\n", 3, "not an int64 integer"),
        ("1 2\n3 -4\n", 2, "negative label"),
        ("1 2\n  3 3  \n", 2, "self-loop 3-3"),
        ("1 2\n-1 -1\n", 2, "negative label"),             # reported before the self-loop
        ("3 3\n1 2\n3 3\n", 1, "self-loop"),               # the first of identical lines
        ("1 2\n1 2 # x\n", 2, "not an int64 integer"),   # a marker after an edge
        ("1\v2\n", 1, "expected 2 entries, got 1"),       # \v breaks the line
        ("1 2\n3\x1c4\n", 2, "expected 2 entries, got 1"),
        ("1 2\n3\u20284\n", 2, "expected 2 entries, got 1"),
        ("# caf\u00e9\n1 2\n4 4\n", 3, "self-loop 4-4"),  # a non-ASCII comment
        ("1 2\r\n\r\n3 3\r\n", 3, "self-loop 3-3"),       # CRLF line endings
    ])
    def test_malformed_line_is_named(self, text, line, message, tmp_path):
        for path in (None, tmp_path / "g.txt"):  # the text alone, then the file too
            with pytest.raises(ParseError, match=message) as excinfo:
                read_file(parse_edge_list, text, path)
            assert excinfo.value.line_number == line

    @pytest.mark.parametrize("text", [
        "1 2\f3 4\n",            # \f, \x1c and U+2028 break lines, as \n does
        "1 2\x1c3 4",
        "1 2\u20283 4\n",
        "1 2\t\x1f\n3 4\n",     # \x1f is whitespace, not a line break
        "# caf\u00e9\n1 2\n3 4\n",
        "1 2\r\n3 4\r\n",
        "# 1 # 2\n  # 3\n\n1 2\n# 4\n3 4\n",
    ])
    def test_line_grammar_decides(self, text, tmp_path):
        for path in (None, tmp_path / "g.txt"):
            g = read_file(parse_edge_list, text, path)
            assert (g.labels, g.adj) == reference_parse(text)
            assert g.edge_count == 2

    @pytest.mark.parametrize("text", ["", "\n \t\n", "# only\n# comments", "\n# c\u00e9\n"])
    def test_no_edges_and_no_warning(self, text, tmp_path):
        for path in (None, tmp_path / "g.txt"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = read_file(parse_edge_list, text, path)
            assert (g.n, g.edge_count) == (0, 0)


class TestFromEdges:
    @pytest.mark.parametrize("n", [46_340, 46_341])  # the last n whose n * n fits int32, and the first
    def test_either_side_of_int32_keys(self, n):
        assert 46_340 ** 2 <= np.iinfo(np.int32).max < 46_341 ** 2
        pairs = [(n - 1, n - 2), (0, n - 1), (n - 2, n - 1), (5, 0), (n - 1, 1)]
        g = from_edges(n, pairs)
        adj = [set() for _ in range(n)]
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        assert g.adj == tuple(map(frozenset, adj))
        assert g.indptr.dtype == g.indices.dtype == np.intp

    def test_input_array_left_unchanged(self):
        pairs = np.array([[0, 1], [1, 2]], dtype=np.intp)
        from_edges(3, pairs)
        assert pairs.tolist() == [[0, 1], [1, 2]]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
            from_edges(3, [(0, 1), (1, 1)])

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 0)])
    def test_index_out_of_range_rejected(self, edge):
        with pytest.raises(ValueError, match=rf"^edge \({edge[0]},{edge[1]}\) out of bounds for n=3$"):
            from_edges(3, [edge])

    def test_first_bad_pair_is_reported(self):
        with pytest.raises(ValueError, match=r"^edge \(0,5\) out of bounds for n=3$"):
            from_edges(3, np.array([[0, 1], [0, 5], [1, 1]]))
        with pytest.raises(ValueError, match=r"^self-loop at vertex 3$"):  # loop before bounds
            from_edges(3, [(0, 1), (3, 3)])

    def test_array_input_matches_pairs(self):
        pairs = [(0, 1), (2, 3), (1, 2)]
        g = from_edges(4, np.array(pairs))
        assert g == from_edges(4, pairs)
        assert g.adj == (frozenset({1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({2}))

    def test_duplicates_in_both_orientations_collapse(self):
        g = from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 1), (1, 2)])
        assert g.adj == (frozenset({1}), frozenset({0, 2}), frozenset({1}))
        assert g.edge_count == 2

    @pytest.mark.parametrize("n", [6, 46_341], ids=["int32-keys", "int64-keys"])
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 7, 64])
    def test_repeats_compact_across_blocks(self, monkeypatch, n, block):
        # the sorted arc keys hold runs of one key on both sides of a block
        # boundary, blocks that are all repeats and blocks with none
        monkeypatch.setattr(graph, "INPLACE_BLOCK", block)
        pairs = [(0, 1)] * 5 + [(2, 1), (1, 2)] * 3 + [(0, 5), (3, 4), (5, 0), (4, 3), (1, 5)]
        g = from_edges(n, pairs)
        adj = [set() for _ in range(n)]
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        assert g.adj == tuple(map(frozenset, adj))
        assert g.indices.tolist() == [1, 5, 0, 2, 5, 1, 4, 3, 0, 1]
        assert g.indptr[:7].tolist() == [0, 2, 5, 6, 7, 8, 10]

    @pytest.mark.parametrize("pairs", [[(0, 1), (1, 0), (2, 3)], [(0, 1), (2, 3)]],
                             ids=["repeats", "none"])
    def test_int64_indices_hold_no_longer_buffer(self, pairs):
        # n^2 >= 2^31, so the arc keys are int64 and compacted in place
        g = from_edges(46_341, pairs)
        base = g.indices
        while isinstance(base.base, np.ndarray):
            base = base.base
        assert base.nbytes == g.indices.nbytes == 4 * g.indices.itemsize

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2), dtype=np.int64)], ids=["list", "array"])
    def test_no_edges(self, edges):
        g = from_edges(3, edges)
        assert g.adj == (frozenset(),) * 3
        assert g.labels == (0, 1, 2)

    def test_no_vertices(self):
        g = from_edges(0, [])
        assert g.n == 0 and g.labels == () and g.adj == ()

    @pytest.mark.parametrize("labels", [(7,), (5, 5, 6), (0, -1, 2), (0, 1, 2, 3), (0, 1, 2**63),
                                        (0, 1.5, 2), (0, True, 2)],
                             ids=["short", "repeated", "negative", "long", "past-int64", "float",
                                  "bool"])
    def test_bad_labels_rejected(self, labels):
        # each would build a graph that format_edge_list cannot write, or
        # writes as text that parse_edge_list rejects or reads differently
        with pytest.raises(ValueError, match=r"^labels must be 3 distinct integers from 0 to 2\^63 - 1$"):
            from_edges(3, [(0, 1), (1, 2)], labels=labels)

    def test_only_given_labels_are_checked(self, monkeypatch):
        checked = []
        monkeypatch.setattr(graph, "check_labels", lambda *args: checked.append(args))
        from_edges(3, [(0, 1)])
        assert checked == []
        from_edges(3, [(0, 1)], labels=(4, 5, 6))
        assert checked == [((4, 5, 6), 3)]

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match=r"^labels must be -1 distinct integers"):
            from_edges(-1, [])

    @settings(max_examples=200)
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                       st.integers(0, max(n - 1, 0))), max_size=30))))
    def test_from_edges_and_parse_match_reference(self, case):
        # duplicates in both orientations, vertices no pair names, and n = 0
        n, pairs = case
        pairs = [(u, v) for u, v in pairs if u != v]
        text = "".join(f"{u} {v}\n" for u, v in pairs)
        labels, adj = reference_parse(text)
        g = parse_edge_list(text.encode())
        assert (g.labels, g.adj) == (labels, adj)
        by_label = {label: {labels[w] for w in nbrs} for label, nbrs in zip(labels, adj)}
        h = from_edges(n, pairs)
        assert h.labels == tuple(range(n))
        assert h.adj == tuple(frozenset(by_label.get(v, ())) for v in range(n))
        assert h == from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        # the stored runs: sorted, in vertex order, read-only
        assert h.indptr.tolist() == [0, *accumulate(len(nbrs) for nbrs in h.adj)]
        assert h.indices.tolist() == [w for nbrs in h.adj for w in sorted(nbrs)]
        assert not h.indptr.flags.writeable and not h.indices.flags.writeable


class TestNeighborSets:
    def test_common_neighbors_example7(self):
        g = example7_graph()
        assert {g.labels[v] for v in common_neighbors(g, 0, 4)} == {2, 6}

    def test_common_neighbors_self(self):
        g = example7_graph()
        assert common_neighbors(g, 2, 2) == g.adj[2]

    def test_common_neighbors_empty(self):
        g = example7_graph()
        assert common_neighbors(g, 2, 5) == frozenset()

    def test_out_of_range(self):
        g = example7_graph()
        with pytest.raises(IndexError):
            common_neighbors(g, 0, 7)
        with pytest.raises(IndexError):
            common_neighbors(g, -1, 0)


class TestBfsLevels:
    def test_example7_from_5(self):
        g = example7_graph()
        levels = bfs_levels(g, g.labels.index(5))
        assert {g.labels[v] for v in levels.vertices_at(1)} == {2, 4, 6, 7}
        assert {g.labels[v] for v in levels.vertices_at(2)} == {1, 3}

    def test_single_vertex(self):
        levels = bfs_levels(edgeless(1), 0)
        assert levels.level == (0,)

    def test_q3_antipodal(self):
        g = q3_cube()
        for root in range(8):
            levels = bfs_levels(g, root)
            assert len(levels.vertices_at(3)) == 1

    def test_unreachable_marked(self):
        g = from_edges(3, [(0, 1)])
        levels = bfs_levels(g, 0)
        assert levels.level == (0, 1, -1)
        assert levels.eccentricity() == math.inf

    def test_matches_all_pairs_distances(self):
        for g in random_corpus(15, 12, seed=3):
            for root in range(g.n):
                levels = bfs_levels(g, root)
                for v in range(g.n):
                    assert levels.level[v] == _distance(g, root, v)


def _distance(g, src, dst):
    # independent reference: repeated frontier expansion with sets
    frontier = {src}
    seen = {src}
    d = 0
    while frontier:
        if dst in frontier:
            return d
        frontier = {y for x in frontier for y in g.adj[x]} - seen
        seen |= frontier
        d += 1
    return -1


class TestComponents:
    def test_two_squares_two_components(self):
        g = two_squares_graph()
        parts = connected_components(g)
        assert parts.count == 2
        assert {g.labels[v] for v in parts.vertices_of(0)} == {1, 2, 5, 6}
        assert {g.labels[v] for v in parts.vertices_of(1)} == {3, 4, 7, 8}

    def test_example7_connected(self):
        assert connected_components(example7_graph()).count == 1

    def test_edgeless(self):
        parts = connected_components(edgeless(3))
        assert parts.count == 3
        assert parts.membership == (0, 1, 2)

    @settings(max_examples=150)
    @given(st.one_of(graphs(max_n=14), sparse_graphs(max_n=60)))
    def test_matches_reference_bfs(self, g):
        parts = connected_components(g)
        assert (parts.count, parts.membership) == reference_components(g)

    @settings(max_examples=150)
    @given(st.one_of(graphs(max_n=14), sparse_graphs(max_n=60), graphs_of_any_density()))
    @example(edgeless(0))
    @example(edgeless(4))
    @example(from_edges(7, [(1, 2), (2, 4), (5, 6)]))  # vertices 0 and 3 isolated
    def test_count_off_m_matches_reference(self, g):
        # the positive entries of M are the arcs, so M alone gives the count
        report = analytics.structural_report(build_nm(g))
        assert report.component_count == reference_components(g)[0]

    def test_one_way_arcs_merge(self):
        # A matrix with a one-way positive entry reaches the kernel through
        # the report; run apart, a kernel that loops fails on the timeout.
        code = (
            "import numpy as np\n"
            "from nmgraph.analytics import structural_report\n"
            "from nmgraph.graph import component_ids\n"
            "from nmgraph.nm import NeighborhoodMatrix\n"
            "print(component_ids(3, [0], [1])[0])\n"
            "m = NeighborhoodMatrix(np.array([[-1, 1, 0], [0, -1, 0], [0, 0, 0]]), (0, 1, 2))\n"
            "print(structural_report(m).component_count)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10, env={"PYTHONPATH": str(src)})
        assert done.stdout.split() == ["2", "2"], done.stderr

    def test_shuffled_path_takes_logarithmic_rounds(self, monkeypatch):
        # without pointer jumping, min-label propagation needs tens of thousands of rounds here
        n = 10**5
        order = np.random.default_rng(7).permutation(n)
        g = from_edges(n, np.column_stack((order[:-1], order[1:])))
        rounds = []
        hook = graph._hook
        monkeypatch.setattr(graph, "_hook", lambda *args: (rounds.append(1), hook(*args)))
        start = time.perf_counter()
        parts = connected_components(g)
        elapsed = time.perf_counter() - start
        assert parts.count == 1 and set(parts.membership) == {0}
        assert len(rounds) <= 2 * math.ceil(math.log2(n))
        assert elapsed < 1.0

    def test_count_matches_bfs_exhaustion(self):
        for g in random_corpus(15, 14, seed=5):
            roots = 0
            seen: set[int] = set()
            for v in range(g.n):
                if v not in seen:
                    roots += 1
                    levels = bfs_levels(g, v)
                    seen |= {u for u, d in enumerate(levels.level) if d >= 0}
            assert connected_components(g).count == roots


def reference_components(g) -> tuple[int, tuple[int, ...]]:
    """Component ids in first-seen order, by one stack search per new root."""
    membership = [-1] * g.n
    count = 0
    for root in range(g.n):
        if membership[root] < 0:
            membership[root] = count
            stack = [root]
            while stack:
                for v in g.adj[stack.pop()]:
                    if membership[v] < 0:
                        membership[v] = count
                        stack.append(v)
            count += 1
    return count, tuple(membership)


class TestDiameterGirth:
    def test_q3_diameter(self):
        assert diameter(q3_cube()) == 3

    def test_k4_diameter(self):
        assert diameter(complete_graph(4)) == 1

    def test_example7_diameter(self):
        # vertex 3 reaches vertex 1 only via 4-5-{2,6}-1: four hops
        assert diameter(example7_graph()) == 4

    def test_disconnected_and_trivial_diameter(self):
        assert diameter(two_squares_graph()) == math.inf
        assert diameter(edgeless(1)) == math.inf
        assert diameter(edgeless(0)) == math.inf
        assert diameter(edgeless(2)) == math.inf
        assert diameter(from_edges(2, [(0, 1)])) == 1

    @settings(max_examples=80)
    @given(st.one_of(graphs(max_n=20), sparse_graphs(max_n=40)))
    def test_matches_bfs_per_root(self, g):
        assert diameter(g) == diameter_by_bfs(g)

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_root_blocks(self, monkeypatch, block):
        # the farthest pair of a path is its two ends, in different blocks
        monkeypatch.setattr(graph, "BFS_ROOT_BLOCK", block)
        assert diameter(path_graph(11)) == 10
        assert diameter(from_edges(11, [(i, i + 1) for i in range(9)])) == math.inf
        for g in random_corpus(20, 14, seed=29):
            assert diameter(g) == diameter_by_bfs(g)

    def test_example7_girth(self):
        assert girth(example7_graph()) == 3

    def test_two_squares_girth(self):
        assert girth(two_squares_graph()) == 4

    def test_tree_girth_infinite(self):
        assert girth(path_graph(5)) == math.inf
        assert girth(edgeless(3)) == math.inf

    def test_petersen_girth(self):
        from helpers import petersen

        assert girth(petersen()) == 5

    @settings(max_examples=150)
    @given(st.one_of(graphs(max_n=14), sparse_graphs(max_n=40), graphs_of_any_density()))
    def test_girth_matches_per_edge_search(self, g):
        assert girth(g) == reference_girth(g)

    def test_triangle_free_bipartite_girth_is_fast(self):
        # one search per edge took seconds here: 4096 edges, no early stop at 3
        nx = pytest.importorskip("networkx")
        g = random_bipartite(512, 8, seed=1)
        start = time.perf_counter()
        assert girth(g) == 4
        assert time.perf_counter() - start < 1.0
        h = nx.Graph(edges(g))
        assert nx.girth(h) == 4


# -- the neighbour sets are built only for the set-based oracles ---------------

SET_BASED_READERS = {"graph.girth", "oracles.set_based_entries"}


def test_only_set_based_functions_read_adj():
    readers = set()
    for path in sorted(Path(nmgraph.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "adj"
                    for node in ast.walk(fn)):
                readers.add(f"{path.stem}.{fn.name}")
    assert readers == SET_BASED_READERS


def test_compute_reconstruct_and_analyze_never_build_adj(monkeypatch, tmp_path, capsys):
    def refuse(g):
        raise AssertionError("Graph.adj built")

    monkeypatch.setattr(Graph, "adj", property(refuse))
    edges = tmp_path / "g.edges"
    edges.write_bytes(format_edge_list(two_squares_graph()))
    for fmt in ("dense", "mm"):
        matrix = tmp_path / f"m.{fmt}"
        assert main(["compute", str(edges), "--format", fmt, "-o", str(matrix)]) == 0
        assert main(["reconstruct", str(matrix), "-o", str(tmp_path / "r.edges")]) == 0
        assert (tmp_path / "r.edges").read_text() == edges.read_text()
    assert main(["analyze", str(edges)]) == 0
    assert '"componentCount": 2' in capsys.readouterr().out
