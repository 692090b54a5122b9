"""Structural characterizations and counts read directly off the matrix.

Every analytic here recovers adjacency from the matrix itself (entry
positive iff edge), demonstrating that the matrix alone carries the
structure: this module imports nothing from the brute-force oracles.
Counts come from whole-array passes over the entries: one over the
positive entries for codegrees, and one value histogram.  No pass makes
an n x n int64 temporary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nmgraph.errors import InvalidMatrixError
from nmgraph.nm import NeighborhoodMatrix

# Entries per block of the histogram pass: its int64 temporaries stay near 1 MiB.
_HISTOGRAM_BLOCK_ENTRIES = 1 << 17


def _neighbor_mask(m: NeighborhoodMatrix) -> np.ndarray:
    """Adjacency recovered from the matrix: entry > 0 iff edge."""
    return m.entries > 0


def _positions(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the true entries of a square mask.  A flat
    scan is several times faster than the 2-D np.nonzero."""
    return np.divmod(np.flatnonzero(mask), mask.shape[0])


def _codegrees(m: NeighborhoodMatrix) -> np.ndarray:
    """c = |m_jj| - m_ij over the positive entries (i, j): the number of
    common neighbours of each ordered adjacent pair."""
    rows, cols = _positions(_neighbor_mask(m))
    return np.abs(np.diagonal(m.entries))[cols] - m.entries[rows, cols]


def _pairs(c: np.ndarray) -> int:
    """Sum of C(c, 2) over an int64 array."""
    return int((c * (c - 1)).sum()) // 2


def _value_histogram(m: NeighborhoodMatrix) -> np.ndarray:
    """counts[v + n - 1] = number of entries equal to v.

    Every entry of a valid neighbourhood matrix lies in [-(n-1), n-1];
    anything outside raises InvalidMatrixError.
    """
    n = m.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    e = m.entries
    if int(e.min()) < -(n - 1) or int(e.max()) > n - 1:
        raise InvalidMatrixError(f"entry magnitude exceeds n - 1 = {n - 1}: not a valid NM")
    counts = np.zeros(2 * n - 1, dtype=np.int64)
    step = max(1, _HISTOGRAM_BLOCK_ENTRIES // n)
    for start in range(0, n, step):
        block = e[start:start + step] + (n - 1)
        counts += np.bincount(block.ravel(), minlength=2 * n - 1)
    return counts


def _triangles(c: np.ndarray) -> int:
    total = int(c.sum())
    if total % 6 != 0:
        raise InvalidMatrixError(f"triangle sum {total} not divisible by 6: not a valid NM")
    return total // 6


def _four_cycles(
    m: NeighborhoodMatrix, c: np.ndarray, counts: np.ndarray
) -> tuple[int, Fraction, Fraction]:
    n = m.n
    magnitudes = np.arange(n - 1, 0, -1, dtype=np.int64)  # |v| for v = -(n-1), ..., -1
    negative_pairs = int((counts[:n - 1] * magnitudes * (magnitudes - 1)).sum()) // 2
    degrees = -np.minimum(np.diagonal(m.entries), 0)
    s1 = Fraction(negative_pairs - _pairs(degrees), 4)
    s2 = Fraction(_pairs(c), 4)
    total = s1 + s2
    if total.denominator != 1:
        raise InvalidMatrixError(f"4-cycle total {total} is not an integer: not a valid NM")
    return int(total), s1, s2


def triangle_count(m: NeighborhoodMatrix) -> int:
    """(1/6) sum over i, j in N(i) of (|m_jj| - m_ij).

    Each adjacent pair contributes its common-neighbour count, so the
    double sum counts every triangle six times.
    """
    return _triangles(_codegrees(m))


def four_cycle_count(m: NeighborhoodMatrix) -> tuple[int, Fraction, Fraction]:
    """Number of 4-cycle subgraphs, induced or not.

    Returns (total, s1, s2) where s1 sums C(|m_ij|, 2) over non-adjacent
    pairs and s2 sums C(|m_jj| - m_ij, 2) over adjacent pairs, each
    divided by 4.  The two terms are exact quarters (half-integers occur
    whenever the graph contains a K4 minus an edge); their sum is always
    an integer.  These are the codegree sums of Chiba and Nishizeki,
    "Arboricity and subgraph listing algorithms", SIAM J. Comput. 14
    (1985): s1 is read off the value histogram (every negative entry,
    less the diagonal), s2 off the codegrees of the positive entries.
    """
    return _four_cycles(m, _codegrees(m), _value_histogram(m))


def is_triangle_free(m: NeighborhoodMatrix) -> bool:
    """True iff every positive entry equals the magnitude of its column's
    diagonal (edge endpoints then share no neighbour)."""
    return not _codegrees(m).any()


def is_induced_c4_free(m: NeighborhoodMatrix) -> bool:
    """True iff the graph has no induced 4-cycle, decided from the matrix
    alone.

    An induced C4 is a non-adjacent pair (i, j) plus two of their common
    neighbours that are themselves non-adjacent.  Entry signs give all of
    it: adjacency is positivity, and a non-edge entry of -c marks c
    common neighbours.  Only the pairs above the diagonal with entry <= -2
    are visited.
    """
    pos = _neighbor_mask(m)
    rows, cols = _positions(m.entries <= -2)
    above = rows < cols
    for i, j in zip(rows[above].tolist(), cols[above].tolist()):
        shared = np.nonzero(pos[i] & pos[j])[0]
        s = len(shared)
        if np.count_nonzero(pos[np.ix_(shared, shared)]) < s * (s - 1):
            return False
    return True


def girth_at_least_5(m: NeighborhoodMatrix) -> bool:
    return is_triangle_free(m) and is_induced_c4_free(m)


def diameter_at_most_2(m: NeighborhoodMatrix) -> bool:
    """True iff the matrix is non-empty and no entry is zero (the graph
    of no vertices, like that of one, has no finite diameter)."""
    return m.n > 0 and bool((m.entries != 0).all())


def some_row_has_no_zero(m: NeighborhoodMatrix) -> bool:
    """True iff some row is entirely nonzero; implies diameter <= 4
    (one-directional: the converse fails, e.g. the 3-cube)."""
    if m.n == 0:
        return False
    return bool((m.entries != 0).all(axis=1).any())


def _distinct_values(counts: np.ndarray) -> tuple[int, ...]:
    offset = (len(counts) - 1) // 2  # counts[v + n - 1] holds v
    return tuple(int(v) - offset for v in np.nonzero(counts)[0])


def _srg_parameters(
    m: NeighborhoodMatrix, counts: np.ndarray
) -> tuple[int, int, int] | None:
    """(k, mu1, mu2) read off the diagonal and the value histogram.

    The graph is strongly regular (k-regular, with at least one adjacent
    and one non-adjacent pair, every adjacent pair sharing mu1 neighbours
    and every non-adjacent pair mu2) iff the diagonal is constant -k, the
    only positive entry value is k - mu1, and the only non-positive
    off-diagonal value is -mu2.  The n diagonal entries are taken out of
    the histogram first, because -k can equal -mu2 (K3,3).
    """
    n = m.n
    diagonal = np.diagonal(m.entries)
    if n < 2 or (diagonal != diagonal[0]).any():
        return None
    off_diagonal = counts.copy()
    off_diagonal[int(diagonal[0]) + n - 1] -= n
    positive = np.nonzero(off_diagonal[n:])[0]
    non_positive = np.nonzero(off_diagonal[:n])[0]
    if len(positive) != 1 or len(non_positive) != 1:
        return None
    k = -int(diagonal[0])
    return k, k - (int(positive[0]) + 1), n - 1 - int(non_positive[0])


def strong_regularity_profile(
    m: NeighborhoodMatrix,
) -> tuple[tuple[int, ...], bool, tuple[int, int, int] | None]:
    """Distinct entry values plus the strong-regularity verdict and
    parameters, all from one value histogram.

    When the graph is strongly regular the value set is
    {-k, k - mu1, -mu2} (two values only when k = mu2).
    """
    counts = _value_histogram(m)
    params = _srg_parameters(m, counts)
    return _distinct_values(counts), params is not None, params


@dataclass(frozen=True)
class StructuralReport:
    """Everything the analytics layer can say about one matrix."""

    triangle_count: int
    four_cycle_count: int
    s1_term: Fraction
    s2_term: Fraction
    triangle_free: bool
    induced_c4_free: bool
    girth_at_least_5: bool
    diameter_at_most_2: bool
    diameter_upper_bound_4: bool
    distinct_entry_values: tuple[int, ...]
    srg_consistent: bool
    srg_parameters: tuple[int, int, int] | None

    def __post_init__(self):
        if self.triangle_free != (self.triangle_count == 0):
            raise ValueError(
                f"inconsistent report: triangle_free={self.triangle_free} "
                f"with triangle_count={self.triangle_count}"
            )
        if self.girth_at_least_5 != (self.triangle_free and self.induced_c4_free):
            raise ValueError(
                f"inconsistent report: girth_at_least_5={self.girth_at_least_5} with "
                f"triangle_free={self.triangle_free}, induced_c4_free={self.induced_c4_free}"
            )
        if self.s1_term + self.s2_term != self.four_cycle_count:
            raise ValueError(
                f"inconsistent report: s1 + s2 = {self.s1_term + self.s2_term} "
                f"!= four_cycle_count={self.four_cycle_count}"
            )


def structural_report(m: NeighborhoodMatrix) -> StructuralReport:
    c = _codegrees(m)
    counts = _value_histogram(m)
    total, s1, s2 = _four_cycles(m, c, counts)
    params = _srg_parameters(m, counts)
    triangle_free = not c.any()
    induced_c4_free = is_induced_c4_free(m)
    return StructuralReport(
        triangle_count=_triangles(c),
        four_cycle_count=total,
        s1_term=s1,
        s2_term=s2,
        triangle_free=triangle_free,
        induced_c4_free=induced_c4_free,
        girth_at_least_5=triangle_free and induced_c4_free,
        diameter_at_most_2=diameter_at_most_2(m),
        diameter_upper_bound_4=some_row_has_no_zero(m),
        distinct_entry_values=_distinct_values(counts),
        srg_consistent=params is not None,
        srg_parameters=params,
    )
