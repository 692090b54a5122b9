from __future__ import annotations

import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nmgraph import matio, nm
from nmgraph.errors import InvalidMatrixError, SizeGuardError
from nmgraph.graph import Graph, connected_components, from_edges
from nmgraph.matio import read_matrix_market
from nmgraph.nm import (
    NeighborhoodMatrix,
    build_nm,
    column_sums,
    determinant_exact,
    is_symmetric,
    reconstruct_adjacency,
    row_profile,
    row_sums,
    transpose,
)
from nmgraph.oracles import products, set_based_entries
from nmgraph.random_graphs import gnp
from helpers import (
    EXAMPLE7_ADJACENCY,
    EXAMPLE7_MATRIX,
    TWO_SQUARES_MATRIX,
    TwoLevelSubgraph,
    all_graphs_up_to,
    bfs_levels,
    column_sums_dense,
    complete_graph,
    cycle_graph,
    edgeless,
    edges as graph_edges,  # test_matches_bfs_levels has a local named edges
    example7_graph,
    graphs,
    graphs_of_any_density,
    has_edge,
    is_symmetric_dense,
    two_squares_graph,
    path_graph,
    q3_cube,
    random_corpus,
    row_profile_dense,
    row_sums_dense,
    transpose_dense,
    two_level_subgraph,
)


class TestBuild:
    def test_example7_golden(self):
        m = build_nm(example7_graph())
        assert np.array_equal(m.entries, EXAMPLE7_MATRIX)
        assert np.array_equal(m.entries[4], [-2, 2, -1, 2, -4, 2, 1])

    def test_edgeless_zero_matrix(self):
        m = build_nm(edgeless(4))
        assert not m.entries.any()

    def test_k2(self):
        m = build_nm(from_edges(2, [(0, 1)]))
        assert m.entries.tolist() == [[-1, 1], [1, -1]]

    @pytest.mark.parametrize("entries, shape", [
        (np.zeros((2, 3), dtype=np.int64), "(2, 3)"),
        (np.zeros(4, dtype=np.int64), "(4,)"),
    ])
    def test_public_constructor_rejects_a_non_square_array(self, entries, shape):
        expected = re.escape(f"expected a square matrix, got shape {shape}")
        with pytest.raises(ValueError, match=expected):
            NeighborhoodMatrix(entries, (0, 1))

    def test_two_squares_golden(self):
        assert np.array_equal(build_nm(two_squares_graph()).entries, TWO_SQUARES_MATRIX)

    def test_product_path_matches_example7(self):
        g = example7_graph()
        assert np.array_equal(products(g)[0], build_nm(g).entries)

    def test_product_path_matches_random(self):
        for g in random_corpus(50, 32, seed=101):
            assert np.array_equal(products(g)[0], build_nm(g).entries)

    def test_entry_invariants(self):
        for g in random_corpus(25, 20, seed=7):
            m = build_nm(g)
            for i in range(g.n):
                assert int(m.entries[i, i]) == -g.degree(i)
            if g.n:
                assert int(np.abs(m.entries).max(initial=0)) <= max(g.n - 1, 0)
            pos = m.entries > 0
            for u, v in zip(*np.nonzero(pos)):
                assert has_edge(g, int(u), int(v))

    @pytest.mark.parametrize("g", [
        edgeless(0),
        edgeless(1),
        edgeless(5),
        complete_graph(1),
        complete_graph(2),
        complete_graph(7),
        from_edges(6, [(1, 2), (2, 4)]),  # vertices 0, 3 and 5 isolated
    ], ids=["n0", "n1", "edgeless5", "k1", "k2", "k7", "isolated"])
    def test_builders_agree_on_edge_cases(self, g):
        m = build_nm(g)
        assert m.entries.shape == (g.n, g.n)
        assert np.array_equal(m.entries, products(g)[0])
        assert np.array_equal(m.entries, set_based_entries(g))

    def test_entries_immutable(self):
        m = build_nm(example7_graph())
        assert not m.entries.flags.writeable
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5

    def test_caller_array_is_copied(self):
        mine = EXAMPLE7_MATRIX.copy()
        m = NeighborhoodMatrix(entries=mine, labels=tuple(range(1, 8)))
        mine[0, 0] = 99
        assert np.array_equal(m.entries, EXAMPLE7_MATRIX)
        assert mine.flags.writeable

    def test_read_only_view_of_caller_array_is_copied(self):
        mine = EXAMPLE7_MATRIX.copy()
        view = mine.view()
        view.setflags(write=False)
        m = NeighborhoodMatrix(entries=view, labels=tuple(range(1, 8)))
        mine[0, 0] = 99
        assert np.array_equal(m.entries, EXAMPLE7_MATRIX)

    @pytest.mark.parametrize("labels", [(3, 3), (0,), (0, 1, 2), (-1, 0)],
                             ids=["repeated", "short", "long", "negative"])
    def test_bad_labels_rejected(self, labels):
        # write_dense would write (3, 3) to a file that read_dense rejects
        with pytest.raises(ValueError, match=r"^labels must be 2 distinct integers from 0 to 2\^63 - 1$"):
            NeighborhoodMatrix(entries=np.zeros((2, 2), dtype=np.int64), labels=labels)


class TestNonzeroView:
    def test_row_major_order_with_the_diagonal(self):
        expected_rows, expected_cols = np.nonzero(EXAMPLE7_MATRIX)
        column_major = np.asfortranarray(EXAMPLE7_MATRIX)
        column_major.setflags(write=False)  # scanned in row-major order all the same
        for entries in (EXAMPLE7_MATRIX, column_major):
            m = NeighborhoodMatrix(entries=entries, labels=tuple(range(1, 8)))
            rows, cols, vals = m.nonzeros()
            assert np.array_equal(m.diagonal, np.diagonal(EXAMPLE7_MATRIX))
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(cols, expected_cols)
            assert np.array_equal(vals, EXAMPLE7_MATRIX[expected_rows, expected_cols])

    def test_empty_at_n_0(self):
        m = build_nm(edgeless(0))
        assert [a.size for a in (*m.nonzeros(), m.diagonal)] == [0, 0, 0, 0]

    def test_built_once_and_read_only(self):
        m = build_nm(example7_graph())
        view = m.nonzeros()
        assert m.nonzeros() is view
        assert "diagonal" not in vars(m) and m.diagonal is m.diagonal  # derived once
        for a in (*view, m.diagonal):
            with pytest.raises(ValueError, match="read-only"):
                a[:1] = 0

    def test_view_built_entries_are_a_fresh_read_only_int64_array(self):
        m = build_nm(cycle_graph(100))  # the 2-path kernel: M starts as its view
        assert "entries" not in vars(m)
        entries = m.entries
        assert entries.dtype == np.int64 and entries.base is None
        assert not entries.flags.writeable
        assert m.entries is entries
        assert np.array_equal(entries, set_based_entries(cycle_graph(100)))

    @pytest.mark.parametrize("build", [
        build_nm,  # the BLAS kernel, for K7
        lambda g: NeighborhoodMatrix(products(g)[0], g.labels),
        lambda g: NeighborhoodMatrix(set_based_entries(g), g.labels),
    ], ids=["blas-kernel", "product", "public-constructor"])
    def test_dense_built_matrices_hold_no_dense_array(self, build):
        g = complete_graph(7)
        m = build(g)
        held = [a for v in vars(m).values() if isinstance(v, tuple)
                for a in v if isinstance(a, np.ndarray)]
        assert len(held) == 3 and all(a.ndim == 1 and a.base is None for a in held)
        assert np.array_equal(m.entries, set_based_entries(g))
        assert vars(m)["entries"] is m.entries  # densified once, on first read

    @pytest.mark.parametrize("g", [cycle_graph(100), edgeless(3)])
    def test_a_view_compares_with_a_dense_matrix_by_views(self, g):
        view_built = build_nm(g)
        dense = NeighborhoodMatrix(set_based_entries(g), g.labels)
        assert view_built == dense and dense == view_built
        assert "entries" not in vars(view_built)
        off = dense.entries.copy()
        off[0, 0] -= 1
        assert view_built != NeighborhoodMatrix(off, g.labels)

    def test_immutable(self):
        m = build_nm(cycle_graph(5))
        with pytest.raises(AttributeError, match="immutable"):
            m.labels = (0, 1, 2, 3, 4)


KERNELS = {
    "paths": "_nonzeros_by_paths",
    "blas": "_nonzeros_by_blas",
}


def kernel_matrix(g: Graph, kernel: str) -> np.ndarray:
    """M from one kernel's nonzero view, densified."""
    view = getattr(nm, KERNELS[kernel])(g)
    assert all(a.dtype == np.int64 for a in view)
    entries = NeighborhoodMatrix.from_nonzeros(*view, labels=g.labels).entries
    assert entries.shape == (g.n, g.n)
    return entries


class TestSquareKernels:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @given(n=st.integers(0, 64), p=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_matches_set_based(self, kernel, n, p, seed):
        g = gnp(n, p, seed)
        assert np.array_equal(kernel_matrix(g, kernel), set_based_entries(g))

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("g", [
        edgeless(0),
        edgeless(1),
        edgeless(6),
        complete_graph(2),
        complete_graph(9),
        from_edges(7, [(1, 2), (2, 4), (4, 1)]),  # vertices 0, 3, 5 and 6 isolated
    ], ids=["n0", "n1", "edgeless6", "k2", "k9", "isolated"])
    def test_edge_cases(self, kernel, g):
        assert np.array_equal(kernel_matrix(g, kernel), set_based_entries(g))

    @pytest.mark.parametrize("g, kernel", [
        (cycle_graph(100), "paths"),  # 1000 * 400 2-paths < 100^3
        (edgeless(50), "paths"),
        (complete_graph(7), "blas"),  # 1000 * 252 2-paths >= 7^3
        (edgeless(0), "blas"),
    ])
    def test_rule_picks_kernel_by_work(self, monkeypatch, g, kernel):
        picked = []
        for name, function in KERNELS.items():
            real = getattr(nm, function)
            monkeypatch.setattr(nm, function,
                                lambda *args, real=real, name=name: picked.append(name) or real(*args))
        assert np.array_equal(build_nm(g).entries, set_based_entries(g))
        assert picked == [kernel]

    @pytest.mark.parametrize("g", [cycle_graph(100), complete_graph(7), edgeless(0)])
    def test_build_keeps_the_kernel_buffer(self, g):
        entries = build_nm(g).entries
        assert entries.dtype == np.int64
        assert entries.base is None  # densified into a fresh array, not a view

    def test_float32_guard_raises_before_allocating(self):
        # a stub with nothing but n: the guard reads no other field
        with pytest.raises(SizeGuardError, match="float32"):
            nm._nonzeros_by_blas(SimpleNamespace(n=nm.FLOAT32_EXACT))


# build_nm's SPARSE_WORK_RATIO that forces each kernel: the BLAS one for
# every graph, or the 2-path one for every graph with a vertex.
BUILDS = {"blas": float("inf"), "paths": 0}


def _build(g: Graph, build: str, block: int | None = None) -> NeighborhoodMatrix:
    with mock.patch.multiple(nm, SPARSE_WORK_RATIO=BUILDS[build],
                             PATH_BLOCK=block or nm.PATH_BLOCK):
        return build_nm(g)


def _view(g: Graph, build: str, block: int | None = None) -> tuple[np.ndarray, ...]:
    return _build(g, build, block).nonzeros()


def _views_equal(got: tuple[np.ndarray, ...], expected: NeighborhoodMatrix) -> None:
    for a, b in zip(got, expected.nonzeros(), strict=True):
        assert a.dtype == np.int64
        assert np.array_equal(a, b)


def _dense_lines(m: NeighborhoodMatrix) -> bytes:
    """m's dense text with a comment line first, which only the line path reads."""
    return b"# c\n" + bytes(matio.write_dense(m))


def _matrix_market(m: NeighborhoodMatrix, order: slice) -> bytes:
    """m's nonzero entries, the diagonal's among them, as a Matrix Market
    text in row-major order or reversed, with an explicit zero at (1, 3)."""
    n = len(m.entries)
    listed = m.entries != 0
    listed[0, 2] = True  # zero in both graphs below
    coordinates = np.argwhere(listed)[order]
    return "".join([f"%%MatrixMarket matrix coordinate integer general\n{n} {n} "
                    f"{len(coordinates)}\n",
                    *(f"{r + 1} {c + 1} {m.entries[r, c]}\n" for r, c in coordinates.tolist())]
                   ).encode()


PRODUCERS = {
    **{f"{kernel}-block-{block or 'default'}":
       lambda g, kernel=kernel, block=block: _build(g, kernel, block)
       for kernel in ("paths", "blas") for block in (1, None)},
    "public-constructor": lambda g: NeighborhoodMatrix(set_based_entries(g), g.labels),
    "dense-bytes": lambda g: matio.read_dense(bytes(matio.write_dense(build_nm(g)))),
    "dense-lines": lambda g: matio.read_dense(_dense_lines(build_nm(g))),
    "mm-row-major": lambda g: read_matrix_market(_matrix_market(build_nm(g), slice(None))),
    "mm-reversed": lambda g: read_matrix_market(_matrix_market(build_nm(g), slice(None, None, -1))),
}


@pytest.mark.parametrize("producer", PRODUCERS)
@pytest.mark.parametrize("g", [example7_graph(), from_edges(7, [(1, 2), (2, 4), (4, 1)])],
                         ids=["example7", "isolated"])
def test_every_producer_lists_every_nonzero_entry_in_row_major_order(producer, g, monkeypatch):
    if producer == "dense-bytes":  # the byte path, not the line path
        monkeypatch.setattr(matio, "_read_lines", None)
    m = PRODUCERS[producer](g)
    assert np.array_equal(m.entries, set_based_entries(g))
    r, c = np.nonzero(m.entries)
    view = m.nonzeros()
    assert len(view) == 3 and all(a.dtype == np.int64 for a in view)
    for got, expected in zip(view, (r, c, m.entries[r, c])):
        assert np.array_equal(got, expected)
    assert np.array_equal(m.diagonal, np.diagonal(m.entries))


class TestViewFromEitherKernel:
    @pytest.mark.parametrize("build", sorted(BUILDS))
    @given(g=graphs_of_any_density(max_n=40), block=st.integers(1, 200))
    def test_matches_the_scan_of_the_set_based_matrix(self, build, g, block):
        # a small block splits most graphs into several row blocks
        _views_equal(_view(g, build, block), NeighborhoodMatrix(set_based_entries(g), g.labels))

    @pytest.mark.parametrize("build", sorted(BUILDS))
    @pytest.mark.parametrize("g", [
        edgeless(0),
        edgeless(1),
        edgeless(6),  # no edge, so no block of keys at all
        complete_graph(2),
        complete_graph(9),
        from_edges(7, [(1, 2), (2, 4), (4, 1)]),  # vertices 0, 3, 5 and 6 isolated
        from_edges(9, [(0, 8), (8, 4)]),  # vertices 1, 2, 3, 5, 6 and 7 isolated
    ], ids=["n0", "n1", "edgeless6", "k2", "k9", "isolated", "isolated-between"])
    @pytest.mark.parametrize("block", [1, 5, None], ids=["block1", "block5", "default"])
    def test_edge_cases(self, build, g, block):
        _views_equal(_view(g, build, block), NeighborhoodMatrix(set_based_entries(g), g.labels))

    def test_rows_span_several_blocks_at_the_default_size(self):
        g = gnp(300, 0.1, seed=3)  # about 270K 2-paths
        assert int(g.degrees[g.indices].sum()) > 3 * nm.PATH_BLOCK
        _views_equal(_view(g, "paths"), NeighborhoodMatrix(products(g)[0], g.labels))

    @pytest.mark.parametrize("g", [
        gnp(300, 0.1, seed=3),  # a row's paths cover its row
        gnp(1024, 8 / 1023, seed=1),  # few paths meet
    ], ids=["dense-rows", "sparse"])
    def test_view_buffer_is_at_most_5_percent_larger(self, g):
        # the kernel writes the view into a buffer sized by a bound on the
        # entries: the deg(i) paths that end at i count once in it
        for a in _view(g, "paths"):
            assert a.base.shape[1] <= 1.05 * a.size


class TestMirroredProduct:
    def test_example7_transpose(self):
        g = example7_graph()
        assert np.array_equal(products(g)[1], EXAMPLE7_MATRIX.T)
        assert np.array_equal(products(g)[1], transpose(build_nm(g)).entries)

    def test_regular_graph_coincides(self):
        g = cycle_graph(5)
        assert np.array_equal(products(g)[1], build_nm(g).entries)

    def test_edgeless(self):
        assert not products(edgeless(3))[1].any()

    def test_transpose_identity_random(self):
        for g in random_corpus(30, 24, seed=13):
            assert np.array_equal(products(g)[1], build_nm(g).entries.T)
            assert np.array_equal(products(g)[1], transpose(build_nm(g)).entries)

    def test_transpose_is_an_involution_keeping_labels(self):
        g = from_edges(4, [(0, 1), (1, 2), (1, 3)], labels=(9, 4, 7, 2))
        m = build_nm(g)
        t = transpose(m)
        assert t.labels == m.labels == (9, 4, 7, 2)
        assert t != m  # a star is not regular, so M is not symmetric
        assert transpose(t) == m


class TestReconstruction:
    def test_example7_adjacency(self):
        g = reconstruct_adjacency(build_nm(example7_graph()))
        adj = np.zeros((7, 7), dtype=np.int64)
        for u, v in graph_edges(g):
            adj[u, v] = adj[v, u] = 1
        assert np.array_equal(adj, EXAMPLE7_ADJACENCY)

    def test_zero_matrix(self):
        m = NeighborhoodMatrix(entries=np.zeros((3, 3), dtype=np.int64), labels=(0, 1, 2))
        assert reconstruct_adjacency(m).edge_count == 0

    def test_round_trip_random(self):
        for g in random_corpus(50, 32, seed=23):
            m = build_nm(g)
            h = reconstruct_adjacency(m)
            assert h.adj == g.adj
            assert build_nm(h) == m

    def test_asymmetric_positivity_rejected(self):
        entries = EXAMPLE7_MATRIX.copy()
        entries[0, 2] = 1  # eta_02 > 0 but eta_20 = 0
        with pytest.raises(InvalidMatrixError):
            reconstruct_adjacency(NeighborhoodMatrix(entries=entries, labels=tuple(range(1, 8))))

    def test_perturbed_entry_rejected(self):
        entries = EXAMPLE7_MATRIX.copy()
        entries[0, 4] -= 1  # breaks the row sum
        with pytest.raises(InvalidMatrixError):
            reconstruct_adjacency(NeighborhoodMatrix(entries=entries, labels=tuple(range(1, 8))))

    @pytest.mark.parametrize("i, j, value, message", [
        # upper-only positive: the new edge (1, 3) first changes deg(1)
        (0, 2, 1, "entry (1,1) is -2, the recovered graph's is -3"),
        # lower-only positive: no edge, so the rebuild is not positive there
        (2, 0, 1, "entry (3,1) is 1, the recovered graph's is 0"),
        (3, 3, 2, "entry (4,4) is 2, the recovered graph's is -2"),  # positive diagonal
        (0, 4, -3, "entry (1,5) is -3, the recovered graph's is -2"),  # one perturbed entry
    ])
    def test_error_names_first_differing_entry(self, i, j, value, message):
        entries = EXAMPLE7_MATRIX.copy()
        entries[i, j] = value
        m = NeighborhoodMatrix(entries=entries, labels=tuple(range(1, 8)))
        with pytest.raises(InvalidMatrixError) as exc:
            reconstruct_adjacency(m)
        assert str(exc.value) == f"not a valid NM: {message}"

    @given(graphs(max_n=8), st.data())
    def test_every_single_entry_change_rejected(self, g, data):
        if g.n == 0:
            return
        entries = build_nm(g).entries.copy()
        i, j = data.draw(st.tuples(*[st.integers(0, g.n - 1)] * 2))
        entries[i, j] += data.draw(st.integers(-3, 3).filter(bool))
        m = NeighborhoodMatrix(entries=entries, labels=g.labels)
        with pytest.raises(InvalidMatrixError) as exc:
            reconstruct_adjacency(m)
        found = re.fullmatch(r"not a valid NM: entry \((\d+),(\d+)\) is (-?\d+), "
                             r"the recovered graph's is (-?\d+)", str(exc.value))
        row, col, given_value, rebuilt_value = map(int, found.groups())
        assert given_value == entries[row - 1, col - 1] != rebuilt_value


    @given(graphs(max_n=8), st.data())
    def test_view_and_dense_inputs_name_the_same_entry(self, g, data):
        # the first differing entry, found by merging views, is the one a
        # row-major scan of the two dense matrices finds first
        if g.n == 0:
            return
        entries = build_nm(g).entries.copy()
        i, j = data.draw(st.tuples(*[st.integers(0, g.n - 1)] * 2))
        entries[i, j] += data.draw(st.integers(-3, 3).filter(bool))
        dense = NeighborhoodMatrix(entries=entries, labels=g.labels)
        view = NeighborhoodMatrix.from_nonzeros(*(a.copy() for a in dense.nonzeros()),
                                                labels=g.labels)
        upper = np.argwhere(np.triu(entries > 0, 1))
        rebuilt = set_based_entries(from_edges(g.n, upper.tolist(), labels=g.labels))
        r, c = np.argwhere(rebuilt != entries)[0].tolist()
        expected = (f"not a valid NM: entry ({r + 1},{c + 1}) is {entries[r, c]},"
                    f" the recovered graph's is {rebuilt[r, c]}")
        for m in (dense, view):
            with pytest.raises(InvalidMatrixError) as exc:
                reconstruct_adjacency(m)
            assert str(exc.value) == expected


class TestSums:
    def test_example7_row_sums(self):
        assert row_sums(build_nm(example7_graph())) == [0] * 7

    def test_zero_matrix_row_sums(self):
        assert row_sums(build_nm(edgeless(5))) == [0] * 5

    def test_random_row_sums(self):
        for g in random_corpus(40, 28, seed=31):
            assert row_sums(build_nm(g)) == [0] * g.n

    def test_example7_column_5(self):
        g = example7_graph()
        totals, formula = column_sums(build_nm(g), g)
        assert totals[4] == 7 == (4 - 2) + (4 - 2) + (4 - 3) + (4 - 2)
        assert totals == formula

    def test_regular_graph_columns_zero(self):
        g = cycle_graph(5)
        totals, _ = column_sums(build_nm(g), g)
        assert totals == [0] * 5

    def test_edgeless_columns(self):
        g = edgeless(4)
        assert column_sums(build_nm(g), g) == ([0] * 4, [0] * 4)

    def test_random_column_formula(self):
        for g in random_corpus(40, 28, seed=37):
            column_sums(build_nm(g), g)  # raises on mismatch

    def test_formula_matches_neighbour_loop(self):
        for g in random_corpus(40, 28, seed=41):
            _, formula = column_sums(build_nm(g), g)
            assert formula == [sum(len(g.adj[i]) - len(g.adj[j]) for j in g.adj[i])
                               for i in range(g.n)]


class TestSymmetry:
    def test_two_squares_symmetric(self):
        assert is_symmetric(build_nm(two_squares_graph()))

    def test_example7_not_symmetric(self):
        assert not is_symmetric(build_nm(example7_graph()))

    def test_one_by_one(self):
        assert is_symmetric(build_nm(edgeless(1)))

    def test_symmetric_iff_regular_components(self):
        for g in random_corpus(40, 16, seed=41):
            parts = connected_components(g)
            regular = all(
                len({g.degree(v) for v in parts.vertices_of(c)}) <= 1
                for c in range(parts.count)
            )
            assert is_symmetric(build_nm(g)) == regular


class TestDeterminant:
    def test_example7_singular(self):
        assert determinant_exact(build_nm(example7_graph())) == 0

    def test_zero_matrix(self):
        assert determinant_exact(build_nm(edgeless(4))) == 0

    def test_random_singular(self):
        for g in random_corpus(20, 12, seed=43):
            if g.n >= 1:
                assert determinant_exact(build_nm(g)) == 0

    def test_nonsingular_reference(self):
        # sanity: the eliminator is not rigged to return zero
        m = NeighborhoodMatrix(entries=np.array([[2, 1], [1, 2]]), labels=(0, 1))
        assert determinant_exact(m) == 3
        perm = NeighborhoodMatrix(
            entries=np.array([[0, 1, 0], [0, 0, 2], [3, 0, 0]]), labels=(0, 1, 2)
        )
        assert determinant_exact(perm) == 6

    def test_empty_matrix_is_the_empty_product(self):
        assert determinant_exact(build_nm(from_edges(0, []))) == 1

    def test_matches_float_determinant(self):
        rng = np.random.default_rng(44)
        for n in range(1, 7):
            entries = rng.integers(-3, 4, size=(n, n))
            m = NeighborhoodMatrix(entries=entries, labels=tuple(range(n)))
            assert determinant_exact(m) == round(np.linalg.det(entries))


class TestRowProfile:
    def test_example7_row_5(self):
        m = build_nm(example7_graph())
        p = row_profile(m, 4)
        assert p.level1 == {1, 3, 5, 6}  # labels 2, 4, 6, 7
        assert p.level2 == {0: 2, 2: 1}  # labels 1 (two paths), 3 (one)
        assert p.degree == 4
        assert p.diagonal_candidates == {4}
        assert p.out_edge_count == {1: 1, 3: 1, 5: 1, 6: 0}

    def test_zero_row_isolated_vertex(self):
        p = row_profile(build_nm(edgeless(3)), 1)
        assert p.level1 == frozenset()
        assert p.level2 == {}
        assert p.degree == 0

    def test_p3_diagonal_tie(self):
        m = build_nm(path_graph(3))
        p = row_profile(m, 0)
        assert p.diagonal_candidates == {0, 2}

    @pytest.mark.parametrize("i", [-1, 7])
    def test_index_out_of_range(self, i):
        with pytest.raises(IndexError, match=rf"row index {i} out of range for n=7"):
            row_profile(build_nm(example7_graph()), i)

    def test_malformed_row_rejected(self):
        m = NeighborhoodMatrix(entries=np.array([[0, 1], [1, 0]]), labels=(0, 1))
        with pytest.raises(InvalidMatrixError):
            row_profile(m, 0)

    def test_balance_invariant(self):
        for g in random_corpus(30, 20, seed=47):
            m = build_nm(g)
            for i in range(g.n):
                p = row_profile(m, i)
                assert sum(p.out_edge_count.values()) == sum(p.level2.values())
                assert i in p.diagonal_candidates


def _outcome(function, *args):
    """What a call returns, or the text of the InvalidMatrixError it raises."""
    try:
        return function(*args)
    except InvalidMatrixError as exc:
        return f"raised: {exc}"


def _handed_over(entries: np.ndarray, labels: tuple[int, ...]) -> list[NeighborhoodMatrix]:
    """One dense array as each constructor and reader takes it in: the
    public constructor, a view found by np.nonzero, and a Matrix Market
    text listing every nonzero entry backwards."""
    n = len(entries)
    rows, cols = np.nonzero(entries)
    view = NeighborhoodMatrix.from_nonzeros(rows, cols, entries[rows, cols], labels)
    coordinates = np.argwhere(entries)[::-1]
    text = "".join([f"%%MatrixMarket matrix coordinate integer general\n"
                    f"% labels: {' '.join(map(str, labels))}\n{n} {n} {len(coordinates)}\n",
                    *(f"{r + 1} {c + 1} {entries[r, c]}\n" for r, c in coordinates.tolist())])
    return [NeighborhoodMatrix(entries, labels), view, read_matrix_market(text.encode())]


class TestViewFunctionsMatchDenseReferences:
    """Each function that reads M's view gives what the dense reference
    gives, on valid M from either kernel and on corrupted M however it is
    handed over: edited entries up to 2^62 in magnitude, all-zero rows."""

    @staticmethod
    def _agree(m: NeighborhoodMatrix, g: Graph) -> None:
        assert row_sums(m) == row_sums_dense(m)
        assert _outcome(column_sums, m, g) == _outcome(column_sums_dense, m, g)
        t = transpose(m)
        assert t == transpose_dense(m)
        assert np.array_equal(t.entries, m.entries.T)
        assert is_symmetric(m) == is_symmetric_dense(m)
        for i in range(m.n):
            assert _outcome(row_profile, m, i) == _outcome(row_profile_dense, m, i)

    @pytest.mark.parametrize("build", sorted(BUILDS))
    @given(g=graphs_of_any_density(max_n=12), data=st.data())
    def test_valid_and_corrupted(self, build, g, data):
        with mock.patch.object(nm, "SPARSE_WORK_RATIO", BUILDS[build]):
            m = build_nm(g)
        self._agree(m, g)
        if g.n == 0:
            return
        entries = m.entries.copy()
        index = st.integers(0, g.n - 1)
        value = st.integers(-3, 3) | st.integers(-2 ** 62, 2 ** 62)
        for i, j, v in data.draw(st.lists(st.tuples(index, index, value), max_size=6)):
            entries[i, j] = v
        for i in data.draw(st.lists(index, max_size=2)):
            entries[i] = 0
        for corrupted in _handed_over(entries, g.labels):
            assert np.array_equal(corrupted.entries, entries)
            self._agree(corrupted, g)

    @pytest.mark.parametrize("g", [edgeless(0), edgeless(3), from_edges(5, [(1, 3)]),
                                   example7_graph()], ids=["n0", "edgeless3", "isolated", "example7"])
    def test_every_handover_of_a_valid_matrix(self, g):
        for m in _handed_over(build_nm(g).entries, g.labels):
            assert m == build_nm(g)
            self._agree(m, g)


class TestTwoLevelSubgraph:
    def test_example7_root_5(self):
        g = example7_graph()
        sub = two_level_subgraph(g, 4)
        assert sub.level1 == {1, 3, 5, 6}
        assert sub.level2 == {0, 2}
        # edges 5-2, 5-4, 5-6, 5-7, 2-1, 4-3, 6-1 in labels
        expected = {(4, 1), (4, 3), (4, 5), (4, 6), (1, 0), (3, 2), (5, 0)}
        assert sub.edges == expected

    def test_isolated_root(self):
        sub = two_level_subgraph(edgeless(3), 0)
        assert sub.level1 == frozenset() and sub.level2 == frozenset()
        assert sub.edges == frozenset()

    def test_q3(self):
        g = q3_cube()
        sub = two_level_subgraph(g, 0)
        assert len(sub.level1) == 3 and len(sub.level2) == 3
        crossing = {e for e in sub.edges if e[0] in sub.level1}
        assert len(crossing) == 6

    def test_matches_bfs_levels(self):
        for g in random_corpus(30, 20, seed=59):
            for root in range(g.n):
                levels = bfs_levels(g, root)
                level1, level2 = levels.vertices_at(1), levels.vertices_at(2)
                edges = {(root, j) for j in level1}
                edges |= {(j, k) for j, k in graph_edges(g) if j in level1 and k in level2}
                edges |= {(k, j) for j, k in graph_edges(g) if k in level1 and j in level2}
                assert two_level_subgraph(g, root) == TwoLevelSubgraph(
                    root, level1, level2, frozenset(edges))

    @pytest.mark.parametrize("root", [-1, 3])
    def test_root_out_of_range(self, root):
        with pytest.raises(IndexError, match=rf"vertex index {root} out of range for n=3"):
            two_level_subgraph(path_graph(3), root)

    def test_consistency_with_row_entries(self):
        for g in random_corpus(20, 16, seed=53):
            m = build_nm(g)
            for root in range(g.n):
                sub = two_level_subgraph(g, root)
                for j in sub.level1:
                    down = sum(1 for a, b in sub.edges if a == j and b in sub.level2)
                    assert down == int(m.entries[root, j]) - 1
                for k in sub.level2:
                    up = sum(1 for a, b in sub.edges if b == k)
                    assert up == -int(m.entries[root, k])
