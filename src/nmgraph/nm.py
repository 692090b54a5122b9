"""Construction of the neighbourhood matrix, its dual product form, and
row-level decoding back into BFS structure.

Entry conventions for the matrix M = [m_ij]:

  m_ii = -deg(i)
  m_ij = |N(j) \\ N(i)|        when (i, j) is an edge   (always > 0)
  m_ij = -|N(i) ∩ N(j)|        when i != j, non-edge    (always <= 0)

which coincides with the product A(D - A) of the adjacency matrix with
the Laplacian.  Rows are built independently, so entries for row i touch
only vertices within distance 2 of i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nmgraph.errors import InvalidMatrixError
from nmgraph.graph import Graph, bfs_levels, from_edges
from nmgraph.oracles import adjacency_matrix, set_based_entries

_ENTRY_DTYPE = np.int64


@dataclass(frozen=True)
class NeighborhoodMatrix:
    """Dense n x n signed integer matrix plus the external vertex labels."""

    entries: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=_ENTRY_DTYPE)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if len(self.labels) != arr.shape[0]:
            raise ValueError("label count does not match matrix dimension")
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

    def row(self, i: int) -> np.ndarray:
        return self.entries[i]


def build_nm(g: Graph) -> NeighborhoodMatrix:
    """M = A(D - A) built from adjacency row sums.

    Row i of A^2 is the sum of A[j] over j in N(i); M is -A^2 plus deg(j)
    at each edge (i, j).  A is a uint8 adjacency matrix, and every step
    writes into the one int64 buffer the result keeps, so no second
    n x n int64 array is made.
    """
    n = g.n
    degrees = np.fromiter((len(nbrs) for nbrs in g.adj), dtype=np.intp, count=n)
    tails = np.repeat(np.arange(n), degrees)
    heads = np.fromiter((j for nbrs in g.adj for j in nbrs), dtype=np.intp, count=len(tails))
    a = np.zeros((n, n), dtype=np.uint8)
    a[tails, heads] = 1

    entries = np.zeros((n, n), dtype=_ENTRY_DTYPE)
    start = 0
    for i, deg in enumerate(degrees.tolist()):
        if deg:
            a[heads[start:start + deg]].sum(axis=0, dtype=_ENTRY_DTYPE, out=entries[i])
            start += deg
    np.negative(entries, out=entries)
    entries[tails, heads] += degrees[heads]
    return NeighborhoodMatrix.adopt(entries, g.labels)


def build_nm_product(g: Graph) -> NeighborhoodMatrix:
    """Oracle constructor: literally A @ (D - A) in exact integer arithmetic."""
    a = adjacency_matrix(g)
    d = np.diag([g.degree(v) for v in range(g.n)]).astype(_ENTRY_DTYPE)
    return NeighborhoodMatrix.adopt(a @ (d - a), g.labels)


def build_mn(g: Graph) -> NeighborhoodMatrix:
    """The mirrored product (D - A) @ A, built from its own set definition:
    diagonal -deg(i), |N(i) \\ N(j)| on edges, -|N(i) ∩ N(j)| on non-edges.
    Equals the transpose of build_nm(g) for undirected graphs.
    """
    return NeighborhoodMatrix.adopt(set_based_entries(g, mirrored=True), g.labels)


def reconstruct_adjacency(m: NeighborhoodMatrix) -> Graph:
    """Recover the graph: (i, j) is an edge iff m_ij > 0.

    Validates that the matrix really is the neighbourhood matrix of the
    recovered graph (positivity pattern symmetric in edge-ness, and the
    rebuilt matrix matches entrywise); anything else raises
    InvalidMatrixError.
    """
    pos = m.entries > 0
    if not np.array_equal(pos, pos.T):
        raise InvalidMatrixError("not a valid NM: asymmetric positivity pattern")
    # Edges from the strict upper triangle: a positive diagonal entry is
    # left for the rebuild comparison to reject.
    g = from_edges(m.n, np.argwhere(np.triu(pos, 1)).tolist(), labels=m.labels)
    if not np.array_equal(build_nm(g).entries, m.entries):
        raise InvalidMatrixError("not a valid NM: entries inconsistent with the recovered graph")
    return g


def row_sums(m: NeighborhoodMatrix) -> list[int]:
    return [int(s) for s in m.entries.sum(axis=1)]


def column_sums(m: NeighborhoodMatrix, g: Graph) -> tuple[list[int], list[int]]:
    """Per-column totals alongside the closed form
    sum over j in N(i) of (deg(i) - deg(j)); asserts they agree.
    """
    totals = [int(s) for s in m.entries.sum(axis=0)]
    formula = [
        sum(g.degree(i) - g.degree(j) for j in g.adj[i])
        for i in range(g.n)
    ]
    if totals != formula:
        raise InvalidMatrixError(
            f"column sums {totals} disagree with degree formula {formula}"
        )
    return totals, formula


def is_symmetric(m: NeighborhoodMatrix) -> bool:
    return bool(np.array_equal(m.entries, m.entries.T))


def determinant_exact(m: NeighborhoodMatrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination.

    Arbitrary-precision Python ints throughout; no floats, no rationals.
    """
    n = m.n
    a = [[int(x) for x in row] for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                a[r][c] = (a[r][c] * a[k][k] - a[r][k] * a[k][c]) // prev
            a[r][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    row_min = int(row.min()) if m.n else 0
    candidates = frozenset(int(j) for j in np.nonzero(row == row_min)[0])
    return RowProfile(
        row_index=i,
        level1=level1,
        level2=level2,
        out_edge_count=out_edge_count,
        diagonal_candidates=candidates,
        degree=-int(row[i]),
    )


@dataclass(frozen=True)
class TwoLevelSubgraph:
    """BFS levels 0-2 from a root with only the level-crossing edges."""

    root: int
    level1: frozenset[int]
    level2: frozenset[int]
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)


def two_level_subgraph(g: Graph, root: int) -> TwoLevelSubgraph:
    """Subgraph on levels {0, 1, 2} keeping only root-level1 and
    level1-level2 edges (intra-level edges dropped).
    """
    levels = bfs_levels(g, root)
    level1 = levels.vertices_at(1)
    level2 = levels.vertices_at(2)
    edges = {(root, j) for j in level1}
    edges |= {
        (j, k)
        for j in level1
        for k in g.adj[j]
        if k in level2
    }
    return TwoLevelSubgraph(root=root, level1=level1, level2=level2, edges=frozenset(edges))
