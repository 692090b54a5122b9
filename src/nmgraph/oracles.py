"""Brute-force ground truth, kept independent of the fast matrix paths.

Everything here works from the Graph alone, with set operations, dense
float64 BLAS products, or lookups in the uint8 adjacency matrix at every
3- and 4-subset (whole-array passes over one cached subset index array
per (n, k), for n up to ENUMERATION_LIMIT).  It imports nothing from
the matrix modules, and they import nothing from it, so agreement with
the matrix formulas is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations

import numpy as np

from nmgraph.errors import SizeGuardError
from nmgraph.graph import Graph, adjacency_matrix

ENUMERATION_LIMIT = 16
FLOAT64_EXACT = 2 ** 53


@dataclass(frozen=True)
class SubgraphCensus:
    """Counts of small subgraphs; c4_total includes non-induced 4-cycles."""

    triangle_count: int
    c4_induced: int
    k4_count: int
    k4_minus_edge_count: int

    @property
    def c4_total(self) -> int:
        return self.c4_induced + self.k4_minus_edge_count + 3 * self.k4_count


def set_based_entries(g: Graph) -> np.ndarray:
    """The neighbourhood matrix entry by entry from its set definitions,
    one row per vertex: diagonal -deg(i), -|N(i) ∩ N(k)| on non-edges,
    and on edges |N(j) \\ N(i)| = deg(j) - |N(i) ∩ N(j)|.  Its transpose
    is (D - A)A, the second of `products`.

    Only vertices within distance 2 of the row vertex produce nonzeros,
    so each row costs O(sum of neighbour degrees), not O(n).
    """
    n, adj = g.n, g.adj
    entries = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        row = entries[i]
        common: dict[int, int] = {}
        for j in adj[i]:
            for k in adj[j]:
                if k != i:
                    common[k] = common.get(k, 0) + 1
        for j in adj[i]:
            row[j] = len(adj[j]) - common.get(j, 0)
        for k, c in common.items():
            if k not in adj[i]:
                row[k] = -c
        row[i] = -len(adj[i])
    return entries


def _blas_adjacency(g: Graph) -> np.ndarray:
    """The adjacency matrix as float64, for BLAS products that stay exact:
    every entry and partial sum of A^3, and of its trace, is an integer at
    most n(n-1)^2 < 2^53."""
    if g.n * (g.n - 1) ** 2 >= FLOAT64_EXACT:
        raise SizeGuardError(f"n={g.n} too large for exact float64 products of A")
    return adjacency_matrix(g, np.float64)


def products(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """A(D - A) and (D - A)A as int64 n x n arrays, literally the two
    products of the adjacency matrix and the Laplacian, by float64 BLAS
    that is exact (see `_blas_adjacency`): the identity NM(G) = A(D - A)
    and its mirror, M^T = (D - A)A, that `verify` checks M against."""
    a = _blas_adjacency(g)
    laplacian = np.diag(a.sum(axis=1)) - a
    return (a @ laplacian).astype(np.int64), (laplacian @ a).astype(np.int64)


def triangle_count_trace(g: Graph) -> int:
    """trace(A^3) / 6 by float64 BLAS: for symmetric A the trace is the
    sum of the entries of A^2 ∘ A."""
    a = _blas_adjacency(g)
    trace = int(np.vdot(a @ a, a))
    if trace % 6 != 0:
        raise ValueError(f"trace(A^3) = {trace} is not divisible by 6")
    return trace // 6


def srg_parameters(g: Graph) -> tuple[int, int, int] | None:
    """(k, mu1, mu2) when g is strongly regular, else None.

    Follows the usual convention that a strongly regular graph is
    k-regular with at least one adjacent and one non-adjacent pair, every
    adjacent pair sharing exactly mu1 neighbours and every non-adjacent
    pair exactly mu2.  Read off one product, A^2 = kI + mu1 A +
    mu2 (J - I - A) (Godsil & Royle, Algebraic Graph Theory, 10.1):
    A^2 must take one value on the edges and one on the non-edges.
    """
    if g.n < 2 or g.degrees.min() != g.degrees.max():
        return None
    a = _blas_adjacency(g)
    square = a @ a
    adjacent = square[a == 1]
    apart = square[(a == 0) & ~np.eye(g.n, dtype=bool)]
    if not (adjacent.size and apart.size):
        return None
    if adjacent.min() != adjacent.max() or apart.min() != apart.max():
        return None
    return (int(g.degrees[0]), int(adjacent[0]), int(apart[0]))


def subgraph_census(g: Graph) -> SubgraphCensus:
    """Classify every 3- and 4-vertex induced subgraph by whole-array
    lookups in the uint8 adjacency matrix.

    A 3-subset is a triangle when all three of its pairs are edges.  The
    six pair lookups of a 4-subset give each of its vertices' degree
    inside it, and half their sum is its edge count: 6 edges make a K4
    (three 4-cycles), 5 a K4 minus an edge (one), and every inside degree
    2 (so 4 edges) an induced C4 (one).  Guarded at n = ENUMERATION_LIMIT,
    the largest graph `verify` enumerates.
    """
    if g.n > ENUMERATION_LIMIT:
        raise SizeGuardError(f"n={g.n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    a = adjacency_matrix(g, np.uint8)

    u, v, w = _subsets(g.n, 3)
    triangles = int(np.count_nonzero(a[u, v] & a[u, w] & a[v, w]))

    u, v, w, x = _subsets(g.n, 4)
    uv, uw, ux, vw, vx, wx = a[u, v], a[u, w], a[u, x], a[v, w], a[v, x], a[w, x]
    inside = np.stack((uv + uw + ux, uv + vw + vx, uw + vw + wx, ux + vx + wx))
    edge_count = inside.sum(axis=0) // 2
    k4 = int(np.count_nonzero(edge_count == 6))
    k4_minus_edge = int(np.count_nonzero(edge_count == 5))
    induced_c4 = int(np.count_nonzero((inside == 2).all(axis=0)))  # 2-regular: a C4

    return SubgraphCensus(
        triangle_count=triangles,
        c4_induced=induced_c4,
        k4_count=k4,
        k4_minus_edge_count=k4_minus_edge,
    )


@cache
def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) in lexicographic order as one read-only
    (k, C(n, k)) index array, row i holding every subset's i-th smallest
    vertex: a function of (n, k) alone, about 250 KB for all n <= 16."""
    flat = np.fromiter(chain.from_iterable(combinations(range(n), k)), dtype=np.intp)
    subsets = np.ascontiguousarray(flat.reshape(-1, k).T)
    subsets.flags.writeable = False
    return subsets
