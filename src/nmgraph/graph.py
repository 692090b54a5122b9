"""Immutable undirected simple graph, its edge-list text form, and the
graph-side answers the matrix is checked against: components, girth and
diameter.

Vertices are dense 0-based internal indices; the original external labels
(edge lists are typically 1-based) are kept alongside and used for all
user-facing output.  Edge-list text is read and written through
`textio`, the same integer-text kernel the matrix formats use.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from nmgraph import textio

BFS_ROOT_BLOCK = 256  # roots per whole-array BFS in diameter; temporaries O(block * n)
# parse_edge_list indexes its remap table by the labels themselves while the
# largest is below this many times the labels read, plus 1024: the table then
# holds at most about that many entries per label read.
RELABEL_TABLE_SLACK = 4
# Labels remapped, or arc keys compacted, per step: bounds the scratch memory
# of both in-place passes.
INPLACE_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph stored as compressed neighbour runs (CSR).

    labels[i] is the external label of internal vertex i.  The sorted
    neighbours of vertex i are indices[indptr[i]:indptr[i + 1]]; the runs
    are in vertex order and both arrays are read-only.  No self-loops,
    symmetric.
    """

    labels: tuple[int, ...]
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        """degrees[i] is the length of vertex i's run; read-only."""
        degrees = np.diff(self.indptr)
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def tails(self) -> np.ndarray:
        """tails[k] is the vertex whose run holds indices[k], so (tails,
        indices) is every edge in both orientations; read-only, built on
        first use and kept."""
        tails = np.repeat(np.arange(self.n), self.degrees)
        tails.setflags(write=False)
        return tails

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """adj[i] is the frozenset of i's neighbours: the view the
        set-based oracles work on, built on first use."""
        nbrs, ends = self.indices.tolist(), self.indptr.tolist()
        return tuple(frozenset(nbrs[s:e]) for s, e in zip(ends, ends[1:]))

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.labels == other.labels and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))


def from_edges(n: int, edges: np.ndarray | Iterable[tuple[int, int]],
               labels: tuple[int, ...] | None = None) -> Graph:
    """Build a Graph from 0-based index pairs, an int array of shape (k, 2)
    or any iterable of pairs; duplicates collapse.

    The first bad pair is reported: a self-loop before an index out of
    range.  Given labels go through `check_labels`; the default labels
    0..n-1 need no check.  The graph itself is built by `_from_pairs`.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)  # a copy: _from_pairs overwrites it
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n or (pairs[:, 0] == pairs[:, 1]).any()):
        bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= n)).any(axis=1)
        u, v = pairs[int(np.argmax(bad))].tolist()
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"edge ({u},{v}) out of bounds for n={n}")
    if labels is None and n >= 0:
        labels = tuple(range(n))  # valid as built
    else:  # a negative n fails here too
        check_labels(labels or (), n)
    return _from_pairs(n, pairs, labels)


def _from_pairs(n: int, pairs: np.ndarray, labels: tuple[int, ...]) -> Graph:
    """The Graph of pairs, an intp array of shape (k, 2) whose entries are
    already known to lie in [0, n) with no self-loop, with labels already
    known to pass `check_labels`.  pairs is overwritten.

    The runs come from one sort of the arc keys u * n + v, each pair in
    both orientations, with repeated keys dropped: vertex u's run starts
    where the sorted keys reach u * n, and each key's head is the key mod
    n.  The keys are built in pairs' own memory, and sorted as int32 when
    n * n fits, which is faster.  Repeats are dropped in place, one block
    of INPLACE_BLOCK keys at a time, so that no copy of all the keys is made.
    """
    u, v = pairs.T
    forward = u * n
    forward += v
    v *= n
    v += u
    u[...] = forward
    del forward
    keys = pairs.ravel()
    if n * n < 2**31:  # every key fits int32
        keys = keys.astype(np.int32)
    keys.sort()
    starts = _run_starts(keys)
    repeats = not starts.all()
    if repeats:  # keep each key's first copy, in place
        kept = 0
        for start in range(0, len(keys), INPLACE_BLOCK):
            block = keys[start:start + INPLACE_BLOCK][starts[start:start + INPLACE_BLOCK]]
            keys[kept:kept + len(block)] = block  # never past this block's end
            kept += len(block)
        keys = keys[:kept]
    del starts
    indptr = keys.searchsorted(np.arange(n + 1, dtype=keys.dtype) * n)
    keys %= n
    # int32 keys are copied anyway; int64 ones are copied once repeats were
    # dropped, so that the buffer's dropped tail is freed with it
    indices = keys.astype(np.intp, copy=repeats)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return Graph(labels=labels, indptr=indptr, indices=indices)


def check_labels(labels: tuple[int, ...], n: int) -> None:
    """Raise ValueError unless labels are n distinct ints in [0, 2^63),
    the labels every file format can write and read back."""
    if (len(labels) != n or len(set(labels)) != n or set(map(type, labels)) - {int}
            or not 0 <= min(labels, default=0) <= max(labels, default=0) < 2 ** 63):
        raise ValueError(f"labels must be {n} distinct integers from 0 to 2^63 - 1")


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    starts = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components: contiguous ids assigned in first-seen order."""

    membership: tuple[int, ...]

    @property
    def count(self) -> int:
        return max(self.membership, default=-1) + 1

    def vertices_of(self, cid: int) -> frozenset[int]:
        return frozenset(v for v, c in enumerate(self.membership) if c == cid)


def parse_edge_list(data: bytes, path: str | None = None) -> Graph:
    """Parse the "u v" lines of a file's bytes into a Graph; `path`, when
    given, names the file they were read from, so that numpy's C reader
    can read it.  Bytes that are not UTF-8 raise UnicodeDecodeError.

    Labels are non-negative integers in the one integer grammar of
    `textio` (ASCII int64); they are remapped to dense internal indices in
    first-appearance order (reading each line left to right).  '#' lines
    and blank lines are ignored; duplicate edges collapse.  A line with
    other than two integers, a negative label or a self-loop is rejected
    with its line number.

    The remap goes through a table indexed by label id: the label itself
    when the largest is below RELABEL_TABLE_SLACK * k + 1024 for k labels
    read, otherwise its rank among the distinct labels.  Each id's first
    position orders the distinct ids, so only they are sorted.  The pairs
    then hold no self-loop and ranks below n, and the labels are distinct
    ints in [0, 2^63), so the graph is built without checking them again.
    """
    rows = textio.Rows(data, "#", path=path)
    pairs = rows.table(2)
    if pairs.size and (pairs.min() < 0 or (pairs[:, 0] == pairs[:, 1]).any()):
        bad = (pairs < 0).any(axis=1) | (pairs[:, 0] == pairs[:, 1])
        k = int(np.argmax(bad))
        a, b = pairs[k].tolist()
        if min(a, b) < 0:
            raise rows.error(k, f"negative label in {rows.line(k)!r}")
        raise rows.error(k, f"self-loop {a}-{b} not allowed")
    del rows, data  # only the table is needed now, and its memory becomes the edges
    ids = pairs.ravel()
    k = len(ids)
    if k and ids.max() >= RELABEL_TABLE_SLACK * k + 1024:
        distinct, ids = np.unique(ids, return_inverse=True)
        size = len(distinct)
    else:
        distinct, size = None, int(ids.max(initial=-1)) + 1
    del pairs
    table = np.full(size, k)  # each id's first position, then its rank
    np.minimum.at(table, ids, np.arange(k))
    seen = np.flatnonzero(table < k)
    order = seen[np.argsort(table[seen])]  # the ids by first appearance
    labels = tuple((order if distinct is None else distinct[order]).tolist())
    table[order] = np.arange(len(order))
    del distinct, seen
    for start in range(0, k, INPLACE_BLOCK):  # in place, block by block
        ids[start:start + INPLACE_BLOCK] = table[ids[start:start + INPLACE_BLOCK]]
    return _from_pairs(len(order), ids.reshape(-1, 2), labels)


def format_edge_list(g: Graph) -> np.ndarray:
    """Inverse of parse_edge_list: one "u v" line per edge, sorted by
    label, in one uint8 buffer of exactly its size."""
    labels = np.array(g.labels, dtype=np.int64)
    tails, heads = g.tails, g.indices
    once = tails < heads
    pairs = np.sort(labels[np.column_stack((tails[once], heads[once]))], axis=1)
    return textio.int_lines(pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])


def adjacency_matrix(g: Graph, dtype: type = np.int64) -> np.ndarray:
    """The dense n x n 0/1 adjacency matrix A in the given dtype."""
    a = np.zeros((g.n, g.n), dtype=dtype)
    a[g.tails, g.indices] = 1
    return a


def connected_components(g: Graph) -> ComponentPartition:
    """Components of g, numbered in first-seen order, from its arcs."""
    return ComponentPartition(tuple(component_ids(g.n, g.tails, g.indices)[1].tolist()))


def component_ids(n: int, tails: np.ndarray, heads: np.ndarray) -> tuple[int, np.ndarray]:
    """(count, membership) of the graph on n vertices whose edges are the
    arcs (tails, heads), each given in one orientation or both, by hooking
    and pointer jumping (Shiloach & Vishkin 1982).

    Every vertex points to a root of its tree, at first itself.  A round
    hooks each root onto the smallest root across its arcs, in either
    direction, then jumps pointers until every tree is a star.  A root only
    ever hooks onto a smaller one, so the last root of a component is its
    smallest vertex; numbering the roots in order gives ids in first-seen
    order.  Every tree that survives a round unmerged merges in the next,
    so there are O(log n) rounds.
    """
    parent = np.arange(n)
    while ((tail_roots := parent[tails]) != (head_roots := parent[heads])).any():
        _hook(parent, tail_roots, head_roots)
        while ((grand := parent[parent]) != parent).any():
            parent = grand
    roots = parent == np.arange(n)
    return int(roots.sum()), (np.cumsum(roots) - 1)[parent]


def _hook(parent: np.ndarray, tail_roots: np.ndarray, head_roots: np.ndarray) -> None:
    """One round's hooks: each root r takes the smallest root across the
    arcs at r, tail or head, when that is smaller than r.  Hooking both
    ways merges across an arc given in one orientation only."""
    np.minimum.at(parent, tail_roots, head_roots)
    np.minimum.at(parent, head_roots, tail_roots)


def diameter(g: Graph) -> int | float:
    """Max pairwise distance; inf for disconnected graphs and n <= 1.

    Breadth-first search from BFS_ROOT_BLOCK roots at once: with their
    frontiers as the rows of a 0/1 matrix F, the next frontiers are the
    unreached positions of F @ A > 0.  The product is float32 BLAS, exact
    enough because a sum of non-negative terms never rounds to zero.  A
    block's largest eccentricity is the number of steps until every
    frontier is empty.
    """
    n = g.n
    if n <= 1:
        return math.inf
    a = adjacency_matrix(g, np.float32)
    best = 0
    for start in range(0, n, BFS_ROOT_BLOCK):
        roots = np.arange(start, min(start + BFS_ROOT_BLOCK, n))
        reached = np.zeros((len(roots), n), dtype=bool)
        reached[np.arange(len(roots)), roots] = True
        frontier, depth = reached, 0
        while (frontier := (frontier.astype(np.float32) @ a > 0) & ~reached).any():
            reached |= frontier
            depth += 1
        if not reached.all():
            return math.inf
        best = max(best, depth)
    return best


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; inf for forests.

    One breadth-first search per root (Itai & Rodeh 1978), keeping only a
    level map.  An arc from x to an already-reached y with level[y] >=
    level[x] is off the search tree, so it closes a cycle of at most
    level[x] + level[y] + 1 edges; from a root on a shortest cycle, some
    such arc gives exactly its length.  No arc out of level L closes a
    shorter cycle than 2L + 1, so a root's search stops once that reaches
    the best length found, and the whole search stops at 3.
    """
    adj = g.adj
    best: int | float = math.inf
    for root in range(g.n):
        level = {root: 0}
        queue = deque([root])
        while queue and 2 * level[queue[0]] + 1 < best:
            x = queue.popleft()
            for y in adj[x]:
                if y not in level:
                    level[y] = level[x] + 1
                    queue.append(y)
                elif level[y] >= level[x]:
                    best = min(best, level[x] + level[y] + 1)
        if best == 3:  # no simple graph has a shorter cycle
            break
    return best
