"""Brute-force ground truth, kept independent of the fast matrix paths.

Everything here works from the Graph alone, with set operations, dense
float64 BLAS products, or lookups in the uint8 adjacency matrix at every
3- and 4-subset (whole-array passes over subset index arrays), and
imports nothing from the matrix modules, so agreement with the matrix
formulas is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import Iterator

import numpy as np

from nmgraph.errors import SizeGuardError
from nmgraph.graph import Graph, arcs

ENUMERATION_LIMIT = 64
FLOAT64_EXACT = 2 ** 53


@dataclass(frozen=True)
class SubgraphCensus:
    """Counts of small subgraphs; c4_total includes non-induced 4-cycles."""

    triangle_count: int
    c4_total: int
    c4_induced: int
    k4_count: int
    k4_minus_edge_count: int

    def __post_init__(self):
        expected = self.c4_induced + self.k4_minus_edge_count + 3 * self.k4_count
        if self.c4_total != expected:
            raise ValueError(
                f"inconsistent census: c4_total={self.c4_total}, decomposition={expected}"
            )


def adjacency_matrix(g: Graph, dtype: type = np.int64) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=dtype)
    a[arcs(g)] = 1
    return a


def set_based_entries(g: Graph, mirrored: bool = False) -> np.ndarray:
    """The neighbourhood matrix entry by entry from its set definitions,
    one row per vertex: diagonal -deg(i), -|N(i) ∩ N(k)| on non-edges,
    and on edges |N(j) \\ N(i)| = deg(j) - |N(i) ∩ N(j)|.  mirrored=True
    puts deg(i) in place of deg(j), giving |N(i) \\ N(j)|: the entries of
    (D - A)A, the transpose.

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
            row[j] = len(adj[i if mirrored else j]) - common.get(j, 0)
        for k, c in common.items():
            if k not in adj[i]:
                row[k] = -c
        row[i] = -len(adj[i])
    return entries


def blas_adjacency(g: Graph) -> np.ndarray:
    """The adjacency matrix as float64, for BLAS products that stay exact:
    every entry and partial sum of A^3, and of its trace, is an integer at
    most n(n-1)^2 < 2^53."""
    if g.n * (g.n - 1) ** 2 >= FLOAT64_EXACT:
        raise SizeGuardError(f"n={g.n} too large for exact float64 products of A")
    return adjacency_matrix(g, np.float64)


def triangle_count_trace(g: Graph) -> int:
    """trace(A^3) / 6 by float64 BLAS: for symmetric A the trace is the
    sum of the entries of A^2 ∘ A."""
    a = blas_adjacency(g)
    trace = int(np.vdot(a @ a, a))
    if trace % 6 != 0:
        raise ValueError(f"trace(A^3) = {trace} is not divisible by 6")
    return trace // 6


def srg_parameters(g: Graph) -> tuple[int, int, int] | None:
    """(k, mu1, mu2) when g is strongly regular, else None.

    Follows the usual convention that a strongly regular graph is
    k-regular with at least one adjacent and one non-adjacent pair, every
    adjacent pair sharing exactly mu1 neighbours and every non-adjacent
    pair exactly mu2.
    """
    if g.n < 2:
        return None
    degrees = {len(nbrs) for nbrs in g.adj}
    if len(degrees) != 1:
        return None
    k = degrees.pop()

    mu1: int | None = None
    mu2: int | None = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            shared = len(g.adj[u] & g.adj[v])
            if v in g.adj[u]:
                if mu1 is None:
                    mu1 = shared
                elif mu1 != shared:
                    return None
            else:
                if mu2 is None:
                    mu2 = shared
                elif mu2 != shared:
                    return None
    if mu1 is None or mu2 is None:
        return None
    return (k, mu1, mu2)


def subgraph_census(g: Graph, allow_large: bool = False) -> SubgraphCensus:
    """Classify every 3- and 4-vertex induced subgraph by whole-array
    lookups in the uint8 adjacency matrix.

    A 3-subset is a triangle when all three of its pairs are edges.  The
    six pair lookups of a 4-subset give each of its vertices' degree
    inside it, and half their sum is its edge count: 6 edges make a K4
    (three 4-cycles), 5 a K4 minus an edge (one), and every inside degree
    2 (so 4 edges) an induced C4 (one).  Guarded at n = 64 because C(n, 4)
    enumeration beyond that is pointless for an oracle.
    """
    if g.n > ENUMERATION_LIMIT and not allow_large:
        raise SizeGuardError(
            f"n={g.n} exceeds enumeration limit {ENUMERATION_LIMIT}; "
            "pass allow_large=True to override"
        )
    a = adjacency_matrix(g, np.uint8)

    triangles = 0
    for u, v, w in _subset_blocks(g.n, 3):
        triangles += int(np.count_nonzero(a[u, v] & a[u, w] & a[v, w]))

    induced_c4 = 0
    k4 = 0
    k4_minus_edge = 0
    for u, v, w, x in _subset_blocks(g.n, 4):
        uv, uw, ux, vw, vx, wx = a[u, v], a[u, w], a[u, x], a[v, w], a[v, x], a[w, x]
        inside = np.stack((uv + uw + ux, uv + vw + vx, uw + vw + wx, ux + vx + wx))
        edge_count = inside.sum(axis=0) // 2
        k4 += int(np.count_nonzero(edge_count == 6))
        k4_minus_edge += int(np.count_nonzero(edge_count == 5))
        induced_c4 += int(np.count_nonzero((inside == 2).all(axis=0)))  # 2-regular: a C4

    return SubgraphCensus(
        triangle_count=triangles,
        c4_total=induced_c4 + k4_minus_edge + 3 * k4,
        c4_induced=induced_c4,
        k4_count=k4,
        k4_minus_edge_count=k4_minus_edge,
    )


# Subset index arrays are kept for n <= SUBSET_CACHE_LIMIT, the verify
# census limit: read-only, a function of (n, k) alone, about 250 KB for
# all such n together.  Larger n get their subsets built per call,
# SUBSET_BLOCK at a time, and never cached, so memory stays bounded.
SUBSET_CACHE_LIMIT = 16
SUBSET_BLOCK = 1 << 16
_SUBSETS: dict[tuple[int, int], np.ndarray] = {}


def _subset_blocks(n: int, k: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(n) in lexicographic order, as (k, rows)
    index arrays, row i holding every subset's i-th smallest vertex: one
    cached array when n <= SUBSET_CACHE_LIMIT, else blocks of at most
    SUBSET_BLOCK subsets."""
    if n <= SUBSET_CACHE_LIMIT:
        if (n, k) not in _SUBSETS:
            subsets = _take(combinations(range(n), k), k, comb(n, k))
            subsets.flags.writeable = False
            _SUBSETS[n, k] = subsets
        yield _SUBSETS[n, k]
        return
    subsets = combinations(range(n), k)
    while (block := _take(subsets, k, SUBSET_BLOCK)).size:
        yield block


def _take(subsets: Iterator[tuple[int, ...]], k: int, rows: int) -> np.ndarray:
    """The next `rows` k-subsets (fewer at the end) as a (k, rows) array."""
    flat = np.fromiter(chain.from_iterable(islice(subsets, rows)), dtype=np.intp)
    return np.ascontiguousarray(flat.reshape(-1, k).T)
