"""Construction of the neighbourhood matrix, its dual product form, and
row-level decoding back into BFS structure.

Entry conventions for the matrix M = [m_ij]:

  m_ii = -deg(i)
  m_ij = |N(j) \\ N(i)|        when (i, j) is an edge   (always > 0)
  m_ij = -|N(i) ∩ N(j)|        when i != j, non-edge    (always <= 0)

which coincides with the product A(D - A) of the adjacency matrix with
the Laplacian: -A^2 plus deg(j) at each edge (i, j).  A^2 comes from one
of two whole-array kernels, chosen by the work each would do: counting
the 2-paths i-j-k, or a float32 BLAS product when the graph is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from nmgraph.errors import InvalidMatrixError, SizeGuardError
from nmgraph.graph import Graph, arcs, check_labels, from_edges
from nmgraph.oracles import blas_adjacency

_ENTRY_DTYPE = np.int64
# The 2-path kernel runs when SPARSE_WORK_RATIO * P < n^3.  On a 2-core
# x86-64 VM (OpenBLAS, 2 threads) the two kernels break even at n^3 / P
# between about 1000 and 1700 for n = 1024 and 2048, and near 500 for
# n = 256 and 512.
SPARSE_WORK_RATIO = 1000
FLOAT32_EXACT = 2 ** 24


@dataclass(frozen=True)
class NeighborhoodMatrix:
    """Dense n x n signed integer matrix plus the external vertex labels."""

    entries: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=_ENTRY_DTYPE)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        check_labels(self.labels, arr.shape[0])
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()  # the caller can still write to the array it passed
            arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def adopt(cls, entries: np.ndarray, labels: tuple[int, ...]) -> NeighborhoodMatrix:
        """Wrap a freshly built int64 array without copying it.

        The array is frozen in place, so the caller must hold no other
        reference that it still means to write through.
        """
        entries.setflags(write=False)
        return cls(entries=entries, labels=labels)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, NeighborhoodMatrix):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.labels, self.entries.tobytes()))

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(diagonal, rows, cols, vals): the n diagonal entries, then every
        nonzero off-diagonal entry, m[rows[k], cols[k]] = vals[k], in
        row-major order.

        The one read of M that analytics and reconstruction make, so they
        need not know how M is stored.  Every structural count is a sum
        over these entries; an off-diagonal entry not listed is zero.
        Built once per matrix; the arrays are read-only.
        """
        return self._nonzeros

    @cached_property
    def _nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = self.n
        mask = self.entries != 0
        np.fill_diagonal(mask, False)
        flat = np.flatnonzero(mask)  # a flat scan is several times faster than 2-D np.nonzero
        rows = flat // n  # this and a subtraction: several times faster than np.divmod
        view = (self.entries.diagonal(), rows, flat - rows * n, self.entries.ravel()[flat])
        for a in view:
            a.setflags(write=False)
        return view


def build_nm(g: Graph) -> NeighborhoodMatrix:
    """M = A(D - A) as -A^2 plus deg(j) at each edge (i, j).

    -A^2 comes from `_negated_square_by_paths` when the P 2-paths are few
    against the n^3 steps of a dense product (SPARSE_WORK_RATIO * P < n^3),
    else from `_negated_square_by_blas`.  Either kernel returns the one
    int64 buffer the result keeps, so `adopt` copies nothing.
    """
    n = g.n
    tails, heads = arcs(g)
    degrees = g.degrees
    paths = int(degrees[heads].sum())
    if SPARSE_WORK_RATIO * paths < n ** 3:
        entries = _negated_square_by_paths(n, degrees, tails, heads)
    else:
        entries = _negated_square_by_blas(n, tails, heads)
    entries[tails, heads] += degrees[heads]
    return NeighborhoodMatrix.adopt(entries, g.labels)


def _negated_square_by_paths(n: int, degrees: np.ndarray, tails: np.ndarray,
                             heads: np.ndarray) -> np.ndarray:
    """-A^2 by counting 2-paths (Latapy 2008): A^2[i, k] is the number of
    paths i-j-k.  heads holds each vertex's neighbours in one run, the runs
    in vertex order, and tails the vertex of each run.  Every directed edge
    (i, j) expands into deg(j) paths, whose ends k are read from j's run.
    """
    fan = degrees[heads]  # paths through each directed edge
    run_start = np.cumsum(degrees) - degrees
    path_start = np.cumsum(fan) - fan
    keys = np.repeat(run_start[heads] - path_start, fan)
    keys += np.arange(len(keys))  # where each path's end k sits in heads
    keys = heads[keys]
    keys += np.repeat(tails * n, fan)  # i * n + k
    entries = np.bincount(keys, minlength=n * n)
    entries.shape = (n, n)  # in place: reshape() would give adopt a view to copy
    return np.negative(entries, out=entries)


def _negated_square_by_blas(n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """-A^2 by a float32 product, exact because every partial sum is an
    integer at most n - 1 < 2^24."""
    if n >= FLOAT32_EXACT:
        raise SizeGuardError(f"n={n} too large for an exact float32 product (limit {FLOAT32_EXACT})")
    a = np.zeros((n, n), dtype=np.float32)
    a[tails, heads] = 1
    entries = np.empty((n, n), dtype=_ENTRY_DTYPE)
    return np.negative(a @ a, out=entries, casting="unsafe")


def build_nm_product(g: Graph) -> NeighborhoodMatrix:
    """Oracle constructor: literally A @ (D - A), by a float64 BLAS product
    that is exact (see `oracles.blas_adjacency`)."""
    a = blas_adjacency(g)
    d = np.diag(a.sum(axis=1))
    return NeighborhoodMatrix.adopt((a @ (d - a)).astype(_ENTRY_DTYPE), g.labels)


def build_mn(g: Graph) -> NeighborhoodMatrix:
    """Oracle constructor for the mirrored product: literally (D - A) @ A,
    the twin of `build_nm_product`.  Equals the transpose of build_nm(g)
    for undirected graphs.
    """
    a = blas_adjacency(g)
    d = np.diag(a.sum(axis=1))
    return NeighborhoodMatrix.adopt(((d - a) @ a).astype(_ENTRY_DTYPE), g.labels)


def reconstruct_adjacency(m: NeighborhoodMatrix) -> Graph:
    """Recover the graph: (i, j) is an edge iff m_ij > 0.

    The graph is read off the positive entries above the diagonal, and M
    is valid iff it is that graph's neighbourhood matrix.  The rebuild
    alone decides this: it rejects any positive diagonal entry, and any
    asymmetric positivity pattern, since an edge is positive both ways in
    the rebuilt matrix and a non-edge is positive neither way.  Anything
    else raises InvalidMatrixError naming the first differing entry in
    row-major order, 1-based as both file formats number it.
    """
    _, rows, cols, vals = m.nonzeros()
    upper = (vals > 0) & (rows < cols)
    g = from_edges(m.n, np.column_stack((rows[upper], cols[upper])), labels=m.labels)
    rebuilt = build_nm(g)
    if rebuilt != m:
        i, j = np.argwhere(rebuilt.entries != m.entries)[0].tolist()
        raise InvalidMatrixError(f"not a valid NM: entry ({i + 1},{j + 1}) is {m.entries[i, j]},"
                                 f" the recovered graph's is {rebuilt.entries[i, j]}")
    return g


def row_sums(m: NeighborhoodMatrix) -> list[int]:
    return [int(s) for s in m.entries.sum(axis=1)]


def column_sums(m: NeighborhoodMatrix, g: Graph) -> tuple[list[int], list[int]]:
    """Per-column totals alongside the closed form
    sum over j in N(i) of (deg(i) - deg(j)) = deg(i)^2 - sum over j in N(i)
    of deg(j); raises InvalidMatrixError naming the first column where they
    differ.
    """
    totals = [int(s) for s in m.entries.sum(axis=0)]
    prefix = np.concatenate(([0], np.cumsum(g.degrees[g.indices])))
    formula = (g.degrees * g.degrees - np.diff(prefix[g.indptr])).tolist()
    for j, (total, closed) in enumerate(zip(totals, formula, strict=True)):
        if total != closed:
            raise InvalidMatrixError(f"column sums: column {j} sums to {total}, formula {closed}")
    return totals, formula


def transpose(m: NeighborhoodMatrix) -> NeighborhoodMatrix:
    """M^T under the same labels: for a graph, the mirrored product (D - A)A."""
    return NeighborhoodMatrix.adopt(m.entries.T.copy(), m.labels)


def is_symmetric(m: NeighborhoodMatrix) -> bool:
    return np.array_equal(m.entries, m.entries.T)


def determinant_exact(m: NeighborhoodMatrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination,
    one whole-array update per pivot; 1 for the empty matrix.

    Arbitrary-precision Python ints throughout; no floats, no rationals.
    """
    n = m.n
    a = m.entries.astype(object)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k, k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r, k] != 0), None)
            if pivot is None:
                return 0
            a[[k, pivot]] = a[[pivot, k]]
            sign = -sign
        a[k + 1:, k + 1:] = (a[k + 1:, k + 1:] * a[k, k]
                             - np.outer(a[k + 1:, k], a[k, k + 1:])) // prev
        prev = a[k, k]
    return sign * a[n - 1, n - 1] if n else 1


@dataclass(frozen=True)
class RowProfile:
    """What a single row reveals about its vertex's two-level neighbourhood.

    Positions are internal 0-based indices into the matrix.  level2 maps
    each distance-2 vertex to its number of level-1 attachments;
    out_edge_count maps each neighbour j to its edges leading out of
    level 1 (entry value minus one).
    """

    row_index: int
    level1: frozenset[int]
    level2: dict[int, int]
    out_edge_count: dict[int, int]
    diagonal_candidates: frozenset[int]
    degree: int


def row_profile(m: NeighborhoodMatrix, i: int) -> RowProfile:
    if not 0 <= i < m.n:
        raise IndexError(f"row index {i} out of range for n={m.n}")
    row = m.entries[i]
    if row.min(initial=0) >= 0 and row.any():
        raise InvalidMatrixError(f"row {i} has no negative entry: not an NM row")

    level1 = frozenset(int(j) for j in np.nonzero(row > 0)[0])
    level2 = {
        int(j): int(-row[j])
        for j in np.nonzero(row < 0)[0]
        if int(j) != i
    }
    out_edge_count = {j: int(row[j]) - 1 for j in level1}
    row_min = int(row.min())
    candidates = frozenset(int(j) for j in np.nonzero(row == row_min)[0])
    return RowProfile(
        row_index=i,
        level1=level1,
        level2=level2,
        out_edge_count=out_edge_count,
        diagonal_candidates=candidates,
        degree=-int(row[i]),
    )
