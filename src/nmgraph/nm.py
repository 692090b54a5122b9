"""Construction of the neighbourhood matrix and row-level decoding back
into BFS structure.

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
from nmgraph.graph import Graph, _from_pairs, adjacency_matrix, check_labels

_ENTRY_DTYPE = np.int64
# The 2-path kernel runs when SPARSE_WORK_RATIO * P < n^3.  Timed as build
# plus nonzero view on a 2-core x86-64 VM (OpenBLAS, 2 threads), the two
# kernels break even at n^3 / P between about 1000 and 1900 for n = 512 to
# 2048, higher for larger n, and above 2000 for n = 256, where both take
# under 1 ms.  Within that band they differ by less than the timing noise,
# and the 2-path kernel needs no n x n array, so the ratio sits at its low end.
SPARSE_WORK_RATIO = 1000
# Paths and edges the 2-path kernel takes at a time, and at most a quarter
# of them all.  Small blocks keep its scratch in cache and below the size of
# the view it writes, so that the allocator reuses that scratch from one
# block, and one build, to the next instead of returning it to the system.
PATH_BLOCK = 2 ** 15
FLOAT32_EXACT = 2 ** 24


class NeighborhoodMatrix:
    """M plus the external vertex labels, stored as its nonzero view (see
    `nonzeros`), however it was built.  The view is read-only, nothing
    about M can be reassigned, and the dense `entries` and the
    `diagonal` are derived from the view once, on first use."""

    def __init__(self, entries: np.ndarray, labels: tuple[int, ...]):
        arr = np.asarray(entries, dtype=_ENTRY_DTYPE)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        check_labels(labels, arr.shape[0])
        self._hold(scan(arr), labels)

    def _hold(self, view: tuple[np.ndarray, ...], labels: tuple[int, ...]) -> None:
        for a in view:
            a.setflags(write=False)
        self.__dict__.update(_view=view, labels=labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"NeighborhoodMatrix is immutable: cannot set {name!r}")

    @classmethod
    def from_nonzeros(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                      labels: tuple[int, ...]) -> NeighborhoodMatrix:
        """Wrap a freshly built nonzero view without copying it.

        The caller vouches for its form (see `nonzeros`): int64 arrays, the
        entries nonzero, distinct and in row-major order, and
        n labels already checked, as a `Graph`'s are and as the readers
        check theirs.  The arrays are frozen in place, so the caller must
        hold no other reference that it still means to write through.
        """
        m = cls.__new__(cls)
        m._hold((rows, cols, vals), labels)
        return m

    @property
    def n(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NeighborhoodMatrix):
            return NotImplemented
        # count_nonzero, not np.array_equal or .all(): their fixed costs show
        # on verify's many small matrices
        return self.labels == other.labels and all(
            a.shape == b.shape and not np.count_nonzero(a != b)
            for a, b in zip(self._view, other._view))

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense n x n int64 M, read-only, filled from the view on first
        use: n^2 memory, which only the determinant and the tests ask for."""
        rows, cols, vals = self._view
        entries = np.zeros((self.n, self.n), dtype=_ENTRY_DTYPE)
        entries[rows, cols] = vals
        entries.setflags(write=False)
        return entries

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals): every nonzero entry, diagonal ones included,
        m[rows[k], cols[k]] = vals[k], in row-major order; the list a
        Matrix Market file holds.

        M's one stored form, and the one read of it that analytics,
        reconstruction and the sums, transpose and row decoding make.
        Every structural count is a sum over these entries; an entry not
        listed is zero.  The arrays are read-only.
        """
        return self._view

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The n diagonal entries, zeros included, read-only, taken from the
        view on first use."""
        rows, cols, vals = self._view
        diagonal = np.zeros(self.n, dtype=_ENTRY_DTYPE)
        on = np.flatnonzero(rows == cols)  # indices: at most n, so faster than the mask
        diagonal[rows[on]] = vals[on]
        diagonal.setflags(write=False)
        return diagonal


def scan(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero view of a square int64 array, sharing no memory with it:
    what `NeighborhoodMatrix.from_nonzeros` takes."""
    # a flat scan of a mask: several times faster than 2-D np.nonzero, and
    # than np.flatnonzero of the int64 array itself when M has zeros
    n = len(entries)
    flat = np.flatnonzero(entries != 0)
    rows = flat // n  # this and a subtraction: several times faster than np.divmod
    return rows, flat - rows * n, entries.ravel()[flat]


def build_nm(g: Graph) -> NeighborhoodMatrix:
    """M = A(D - A) as -A^2 plus deg(j) at each edge (i, j).

    Both kernels take the Graph and give M's nonzero view.  When the P
    2-paths are few against the n^3 steps of a dense product
    (SPARSE_WORK_RATIO * P < n^3), `_nonzeros_by_paths` runs, with no
    n x n array; else `_nonzeros_by_blas`.
    """
    paths = int(g.degrees[g.indices].sum())
    kernel = _nonzeros_by_paths if SPARSE_WORK_RATIO * paths < g.n ** 3 else _nonzeros_by_blas
    return NeighborhoodMatrix.from_nonzeros(*kernel(g), labels=g.labels)


def _nonzeros_by_paths(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M's nonzero view by sorting 2-paths (Latapy 2008) row block by row
    block, as in Gustavson's row-wise sparse product (1978).

    A^2[i, k] is the number of paths i-j-k.  The arcs (tails, indices)
    hold each vertex's neighbours in one run, the runs in vertex order;
    every directed edge (i, j) expands into deg(j) paths, whose ends k are
    read from j's run.  Rows go in blocks of about PATH_BLOCK paths and
    edges, at most a quarter of them all, which bounds the scratch memory.
    A run with i = k is deg(i) paths and no edge, so it gives M's
    diagonal entry -deg(i) like any other entry.
    """
    n, indptr, tails, heads, degrees = g.n, g.indptr, g.tails, g.indices, g.degrees
    fan = degrees[heads]  # paths through each directed edge
    path_start = np.cumsum(fan) - fan
    work = np.concatenate(([0], np.cumsum(fan + 1)))[indptr]  # paths and edges before each row
    block = min(PATH_BLOCK, max(int(work[-1]) // 4, 1))  # see PATH_BLOCK
    cuts = np.flatnonzero(np.diff(work[:-1] // block)) + 1
    bounds = np.concatenate(([0], cuts, [n])).tolist()
    # Each block writes its entries straight into one buffer, sized by a
    # bound: a row i holds at most n entries, and at most one more than its
    # paths, deg(i) of which end at i in one entry while its deg(i) edges
    # come in.  The buffer is not shrunk to the entries: freed tails go
    # back to the system and the next build faults them in again.
    bound = int(np.minimum(np.diff(work) - degrees + (degrees > 0), n).sum())
    out = np.empty((3, bound), dtype=np.int64)
    filled = 0
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        a0, a1 = indptr[r0], indptr[r1]
        if a0 == a1:
            continue  # no edges, so no paths
        # Keys stay below 2 (r1 - r0) n; int32 where they fit sorts faster
        key = np.int32 if 2 * (r1 - r0) * n <= np.iinfo(np.int32).max else np.int64
        h, f = heads[a0:a1], fan[a0:a1]
        row_keys = ((tails[a0:a1] - r0) * n).astype(key)  # (i - r0) n
        ends = np.repeat(indptr[h] - (path_start[a0:a1] - path_start[a0]), f)
        ends += np.arange(len(ends))  # where each path's end k sits in heads
        p = len(ends)
        keys = np.empty(p + len(h), dtype=key)  # the paths, then the edges
        np.take(heads, ends, out=keys[:p])
        keys[:p] += np.repeat(row_keys, f)  # (i - r0) n + k
        np.add(row_keys, h, out=keys[p:], casting="unsafe")  # (i - r0) n + j
        filled = _block_by_sorting(n, r0, keys, p, degrees, out, filled)
    return tuple(out[:, :filled])


# A function of its own, so that one block's temporaries are freed before the next's.
def _block_by_sorting(n: int, r0: int, keys: np.ndarray, p: int, degrees: np.ndarray,
                      out: np.ndarray, filled: int) -> int:
    """Rows r0 onwards of the view from one sort of the block's keys, p
    paths then the edges.  Written into out[:, filled:]; returns where
    they end.

    A path gives the key 2 x and an edge 2 x + 1, x being its entry's key,
    so the sort puts the entries in row-major order with each entry's paths
    before its edge.  A run of equal key >> 1 is one entry: minus its
    paths, plus deg(j) if it ends in an edge (i, j).
    """
    keys <<= 1
    keys[p:] |= 1
    keys.sort()
    entry = keys >> 1
    last = np.flatnonzero(np.append(entry[1:] != entry[:-1], True))  # each run's last key
    edge = keys[last]
    edge &= 1
    entry = entry[last]
    count = np.diff(last, prepend=-1)  # keys in each run
    r, c, v = out[:, filled:filled + len(last)]
    np.floor_divide(entry, n, out=r)
    c[:] = entry
    c -= r * n
    r += r0
    v[:] = count
    w = degrees[c]
    w += 1
    w *= edge
    v -= w
    np.negative(v, out=v)
    return filled + len(last)


def _nonzeros_by_blas(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M's nonzero view, scanned off -A^2 plus deg(j) at each edge (i, j).
    -A^2 is a float32 product, exact because every partial sum is an
    integer at most n - 1 < 2^24."""
    n = g.n
    if n >= FLOAT32_EXACT:
        raise SizeGuardError(f"n={n} too large for an exact float32 product (limit {FLOAT32_EXACT})")
    a = adjacency_matrix(g, np.float32)
    entries = np.empty((n, n), dtype=_ENTRY_DTYPE)
    np.negative(a @ a, out=entries, casting="unsafe")
    del a  # freed before the scan, which sets the kernel's peak
    entries[g.tails, g.indices] += g.degrees[g.indices]
    return scan(entries)


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
    rows, cols, vals = m.nonzeros()
    upper = (vals > 0) & (rows < cols)
    # the view's pairs lie in range and these are off the diagonal, and
    # every constructor of M has checked its labels: what _from_pairs takes
    g = _from_pairs(m.n, np.column_stack((rows[upper], cols[upper])), m.labels)
    rebuilt = build_nm(g)
    if rebuilt != m:
        key, given, recovered = _first_difference(m, rebuilt)
        i, j = divmod(key, m.n)
        raise InvalidMatrixError(f"not a valid NM: entry ({i + 1},{j + 1}) is {given},"
                                 f" the recovered graph's is {recovered}")
    return g


def _first_difference(a: NeighborhoodMatrix, b: NeighborhoodMatrix) -> tuple[int, int, int]:
    """(i n + j, a_ij, b_ij) for the first entry in row-major order where
    two unequal matrices of one size differ, found by merging the sorted
    keys of their nonzero views."""
    keyed = [(rows * a.n + cols, vals) for rows, cols, vals in (a.nonzeros(), b.nonzeros())]
    union = np.union1d(keyed[0][0], keyed[1][0])
    values = []
    for keys, vals in keyed:
        full = np.zeros(len(union), dtype=_ENTRY_DTYPE)
        full[union.searchsorted(keys)] = vals
        values.append(full)
    k = int(np.argmax(values[0] != values[1]))
    return int(union[k]), int(values[0][k]), int(values[1][k])


def _totals(n: int, index: np.ndarray, vals: np.ndarray) -> list[int]:
    """The view's values summed by row or column index, in int64 as a
    dense sum is: no float weights, which would round the values near
    2^63 that an M read from a file can hold."""
    totals = np.zeros(n, dtype=_ENTRY_DTYPE)
    np.add.at(totals, index, vals)
    return totals.tolist()


def row_sums(m: NeighborhoodMatrix) -> list[int]:
    rows, _, vals = m.nonzeros()
    return _totals(m.n, rows, vals)


def column_sums(m: NeighborhoodMatrix, g: Graph) -> tuple[list[int], list[int]]:
    """Per-column totals alongside the closed form
    sum over j in N(i) of (deg(i) - deg(j)) = deg(i)^2 - sum over j in N(i)
    of deg(j); raises InvalidMatrixError naming the first column where they
    differ.
    """
    _, cols, vals = m.nonzeros()
    totals = _totals(m.n, cols, vals)
    prefix = np.concatenate(([0], np.cumsum(g.degrees[g.indices])))
    formula = (g.degrees * g.degrees - np.diff(prefix[g.indptr])).tolist()
    for j, (total, closed) in enumerate(zip(totals, formula, strict=True)):
        if total != closed:
            raise InvalidMatrixError(f"column sums: column {j} sums to {total}, formula {closed}")
    return totals, formula


def transpose(m: NeighborhoodMatrix) -> NeighborhoodMatrix:
    """M^T under the same labels: for a graph, the mirrored product (D - A)A.
    One stable sort by column puts the swapped view in row-major order."""
    rows, cols, vals = m.nonzeros()
    order = np.argsort(cols, kind="stable")
    return NeighborhoodMatrix.from_nonzeros(cols[order], rows[order], vals[order], m.labels)


def is_symmetric(m: NeighborhoodMatrix) -> bool:
    return transpose(m) == m


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
    """Row i decoded from its slice of the view.  An unstored entry is 0,
    so a row with no negative entry is all zero, or raises; then every
    position ties for the minimum."""
    if not 0 <= i < m.n:
        raise IndexError(f"row index {i} out of range for n={m.n}")
    rows, cols, vals = m.nonzeros()
    lo, hi = rows.searchsorted((i, i + 1))
    row = dict(zip(cols[lo:hi].tolist(), vals[lo:hi].tolist()))
    row_min = min([0, *row.values()])
    if row_min == 0 and any(row.values()):
        raise InvalidMatrixError(f"row {i} has no negative entry: not an NM row")

    level1 = frozenset(j for j, v in row.items() if v > 0)
    level2 = {j: -v for j, v in row.items() if v < 0 and j != i}
    out_edge_count = {j: row[j] - 1 for j in level1}
    candidates = frozenset(range(m.n)) if row_min == 0 else frozenset(
        j for j, v in row.items() if v == row_min)
    return RowProfile(
        row_index=i,
        level1=level1,
        level2=level2,
        out_edge_count=out_edge_count,
        diagonal_candidates=candidates,
        degree=-row.get(i, 0),
    )
