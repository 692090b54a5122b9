"""Structural characterizations and counts read directly off the matrix.

The API is `structural_report`, which reads every count and predicate
in one pass and returns them as a `StructuralReport`, and
`triangle_count`, the one count that is also timed on its own.  Every
analytic here recovers adjacency from the matrix itself (entry
positive iff edge), demonstrating that the matrix alone carries the
structure: this module imports nothing from the brute-force oracles.
It sees M only through `NeighborhoodMatrix.nonzeros`, the row-major
nonzero entries (rows, cols, vals) with the diagonal ones among them,
and the `diagonal` derived from them.  Every count is a sum over those
entries: codegrees over the positive ones, and one histogram of all
values, whose zeros are the n^2 - nnz entries the view does not list;
less the diagonal's, it is the histogram of the off-diagonal values.
Components are hooked together across the positive entries, unless a
row with no zero shows the graph connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nmgraph.errors import InvalidMatrixError
from nmgraph.graph import component_ids
from nmgraph.nm import NeighborhoodMatrix

# Values _histogram counts at a time: it shifts each slice by n into a
# temporary, so no temporary as large as the view is made.
HISTOGRAM_SLICE = 2 ** 20


def _adjacency(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
               diagonal: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tails, heads, c) over the positive entries (i, j) of the view: the
    ordered adjacent pairs in row-major order, and c = |m_jj| - m_ij, the
    number of common neighbours of each, which no valid NM makes negative."""
    positive = np.flatnonzero(vals > 0)  # indices: taking by them beats a boolean mask
    heads = cols[positive]
    c = np.abs(diagonal)[heads] - vals[positive]
    if c.size and c.min() < 0:
        raise InvalidMatrixError("an edge entry exceeds its column's degree: not a valid NM")
    return rows[positive], heads, c


def _pairs(c: np.ndarray) -> int:
    """Sum of C(c, 2) over an int64 array."""
    return int((c * (c - 1)).sum()) // 2


def _histogram(n: int, vals: np.ndarray) -> np.ndarray:
    """counts[v + n] = number of entries of M equal to v, given its
    nonzero values.

    Every entry of a valid neighbourhood matrix lies in [-(n-1), n-1];
    anything outside raises InvalidMatrixError.
    """
    bound = max(n - 1, 0)
    if vals.size and (int(vals.min()) < -bound or int(vals.max()) > bound):
        raise InvalidMatrixError(f"entry magnitude exceeds n - 1 = {n - 1}: not a valid NM")
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for start in range(0, len(vals), HISTOGRAM_SLICE):
        counts += np.bincount(vals[start:start + HISTOGRAM_SLICE] + n, minlength=2 * n + 1)
    counts[n] = n * n - len(vals)
    return counts


def _triangles(c: np.ndarray) -> int:
    total = int(c.sum())
    if total % 6 != 0:
        raise InvalidMatrixError(f"triangle sum {total} not divisible by 6: not a valid NM")
    return total // 6


def _four_cycles(n: int, c: np.ndarray, counts: np.ndarray) -> tuple[int, int]:
    """(4 s1, 4 s2): the integer numerators of the two quarter terms.

    The 4-cycle subgraphs, induced or not, number s1 + s2, where s1 sums
    C(|m_ij|, 2) over non-adjacent pairs and s2 sums C(|m_jj| - m_ij, 2)
    over adjacent pairs, each divided by 4.  These are the codegree sums
    of Chiba and Nishizeki, "Arboricity and subgraph listing algorithms",
    SIAM J. Comput. 14 (1985): s1 is read off the histogram of the
    negative off-diagonal entries, s2 off the codegrees of the positive
    entries.  A 4-cycle is counted from each of its two diagonals in both
    orders, four times in all, hence the quarters.  When exactly one
    diagonal is an edge, as in a K4 minus an edge, two of those counts
    fall in each term, which adds 1/2 to each: the terms alone are exact
    quarters, half-integers whenever such chorded cycles are odd in
    number, while their sum is always an integer.
    """
    magnitudes = np.arange(n, 0, -1, dtype=np.int64)  # |v| for v = -n, ..., -1
    q1 = int((counts[:n] * magnitudes * (magnitudes - 1)).sum()) // 2
    q2 = _pairs(c)
    if (q1 + q2) % 4:
        raise InvalidMatrixError(
            f"4-cycle total {Fraction(q1 + q2, 4)} is not an integer: not a valid NM")
    return q1, q2


def _induced_c4_free(n: int, tails: np.ndarray, heads: np.ndarray,
                     rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> bool:
    """True iff the graph has no induced 4-cycle, decided from M alone.

    An induced C4 is a non-adjacent pair (i, j) plus two of their common
    neighbours that are themselves non-adjacent.  Entry signs give all of
    it: adjacency is positivity, and a non-edge entry of -c marks c
    common neighbours.  So only the pairs (i, j) above the diagonal with
    entry <= -2 are visited, each checked for two non-adjacent common
    neighbours.  N(i) is row i's range of the positive entries (tails,
    heads); adjacency is looked up in their sorted keys i * n + j.
    Candidate pairs are visited lazily, so the scan stops at the first
    induced C4."""
    keys = tails * n  # sorted: the view is row-major
    keys += heads
    starts = tails.searchsorted(np.arange(n + 1))

    def adjacent(pairs: np.ndarray) -> np.ndarray:
        return keys[keys.searchsorted(pairs).clip(max=len(keys) - 1)] == pairs

    for k in np.flatnonzero((vals <= -2) & (rows < cols)):
        i, j = rows[k], cols[k]
        neighbours = heads[starts[i]:starts[i + 1]]
        shared = neighbours[adjacent(j * n + neighbours)]  # N(i) ∩ N(j)
        inside = adjacent((shared[:, None] * n + shared).ravel())
        if np.count_nonzero(inside) < len(shared) * (len(shared) - 1):
            return False
    return True


def triangle_count(m: NeighborhoodMatrix) -> int:
    """(1/6) sum over i, j in N(i) of (|m_jj| - m_ij).

    Each adjacent pair contributes its common-neighbour count, so the
    double sum counts every triangle six times.
    """
    return _triangles(_adjacency(*m.nonzeros(), m.diagonal)[2])


def _srg_parameters(
    n: int, diagonal: np.ndarray, counts: np.ndarray
) -> tuple[int, int, int] | None:
    """(k, mu1, mu2) read off the diagonal and the off-diagonal histogram.

    The graph is strongly regular (k-regular, with at least one adjacent
    and one non-adjacent pair, every adjacent pair sharing mu1 neighbours
    and every non-adjacent pair mu2) iff the diagonal is constant -k, the
    only positive off-diagonal value is k - mu1, and the only non-positive
    one is -mu2.  The entry values of an SRG are therefore
    {-k, k - mu1, -mu2}, two values only when k = mu2.
    """
    if n < 2 or (diagonal != diagonal[0]).any():
        return None
    positive = np.flatnonzero(counts[n + 1:])
    non_positive = np.flatnonzero(counts[:n + 1])
    if len(positive) != 1 or len(non_positive) != 1:
        return None
    k = -int(diagonal[0])
    return k, k - (int(positive[0]) + 1), n - int(non_positive[0])


@dataclass(frozen=True)
class StructuralReport:
    """Everything the analytics layer can say about one matrix.

    Only independent facts are stored; the 4-cycle terms are kept as their
    integer numerators over 4, and each fact that follows from the stored
    ones is a property."""

    component_count: int
    triangle_count: int
    s1_quarters: int  # 4 s1 and 4 s2, see _four_cycles: s1 and s2 may be
    s2_quarters: int  # half-integers, their sum never is
    induced_c4_free: bool  # see _induced_c4_free
    # No off-diagonal entry is zero, and there are at least two vertices:
    # the graph of no vertices, like that of one, has no finite diameter.
    diameter_at_most_2: bool
    # Some row is entirely nonzero: it stores n entries.  Implies diameter
    # <= 4, one way only: the 3-cube has one zero per row and diameter 3.
    some_row_has_no_zero: bool
    distinct_entry_values: tuple[int, ...]  # over all entries, zeros included
    srg_parameters: tuple[int, int, int] | None  # (k, mu1, mu2), see _srg_parameters

    @property
    def s1_term(self) -> Fraction:
        return Fraction(self.s1_quarters, 4)

    @property
    def s2_term(self) -> Fraction:
        return Fraction(self.s2_quarters, 4)

    @property
    def four_cycle_count(self) -> int:
        return (self.s1_quarters + self.s2_quarters) // 4

    @property
    def triangle_free(self) -> bool:
        """True iff every positive entry equals the magnitude of its column's
        diagonal: edge endpoints then share no neighbour."""
        return self.triangle_count == 0

    @property
    def girth_at_least_5(self) -> bool:
        return self.triangle_free and self.induced_c4_free

    @property
    def srg_consistent(self) -> bool:
        return self.srg_parameters is not None


def structural_report(m: NeighborhoodMatrix) -> StructuralReport:
    """Every count and predicate of m, read off its nonzero view.

    Components are hooked together across the positive entries, except
    when some row has no zero: m_ij is nonzero iff i and j are adjacent or
    share a neighbour, so that row's vertex reaches every other in at most
    two steps and the graph is connected without a search.
    """
    n = m.n
    rows, cols, vals = m.nonzeros()
    counts = _histogram(n, vals)
    distinct = tuple((np.flatnonzero(counts) - n).tolist())
    diagonal = m.diagonal
    counts -= np.bincount(diagonal + n, minlength=2 * n + 1)  # now off the diagonal only
    tails, heads, c = _adjacency(rows, cols, vals, diagonal)
    q1, q2 = _four_cycles(n, c, counts)
    no_zero_row = bool((np.diff(rows.searchsorted(np.arange(n + 1))) == n).any())
    return StructuralReport(
        component_count=1 if no_zero_row else component_ids(n, tails, heads)[0],
        triangle_count=_triangles(c),
        s1_quarters=q1,
        s2_quarters=q2,
        induced_c4_free=_induced_c4_free(n, tails, heads, rows, cols, vals),
        diameter_at_most_2=n >= 2 and not counts[n],
        some_row_has_no_zero=no_zero_row,
        distinct_entry_values=distinct,
        srg_parameters=_srg_parameters(n, diagonal, counts),
    )
