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
    range; labels go through `check_labels`.  The runs come from one sort
    of the arc keys u * n + v, each pair in both orientations, with
    repeated keys dropped: vertex u's run starts where the sorted keys
    reach u * n, and each key's head is the key mod n.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        u, v = pairs[int(np.argmax(bad))].tolist()
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"edge ({u},{v}) out of bounds for n={n}")
    u, v = pairs.T
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()
    keys = keys[_run_starts(keys)]
    indptr = keys.searchsorted(np.arange(n + 1) * n)
    indices = keys % n
    indptr.setflags(write=False)
    indices.setflags(write=False)
    if labels is None:
        labels = tuple(range(n))
    check_labels(labels, n)
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


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines into a Graph.

    Labels are non-negative integers in the one integer grammar of
    `textio` (ASCII int64); they are remapped to dense internal indices in
    first-appearance order (reading each line left to right).  '#' lines
    and blank lines are ignored; duplicate edges collapse.  A line with
    other than two integers, a negative label or a self-loop is rejected
    with its line number.
    """
    lines = text.splitlines()
    _, body = textio.scan(lines, "#")
    pairs = textio.int_table(lines, body, 2, 0)
    bad = (pairs < 0).any(axis=1) | (pairs[:, 0] == pairs[:, 1])
    if bad.any():
        k = int(np.argmax(bad))
        a, b = pairs[k].tolist()
        if min(a, b) < 0:
            raise textio.row_error(lines, body, k, f"negative label in {body[k]!r}")
        raise textio.row_error(lines, body, k, f"self-loop {a}-{b} not allowed")
    flat = pairs.ravel()
    by_label = np.argsort(flat)
    starts = _run_starts(flat[by_label])  # one run per distinct label
    first = np.minimum.reduceat(by_label, np.flatnonzero(starts))  # its first position
    index = np.empty_like(by_label)
    index[by_label] = np.cumsum(starts) - 1  # the rank of each entry's label
    order = np.argsort(first)  # labels by first appearance
    edges = np.argsort(order)[index].reshape(-1, 2)
    return from_edges(len(first), edges, labels=tuple(flat[first[order]].tolist()))


def format_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list: one "u v" line per edge, sorted by label."""
    labels = np.array(g.labels, dtype=np.int64)
    tails, heads = arcs(g)
    once = tails < heads
    pairs = np.sort(labels[np.column_stack((tails[once], heads[once]))], axis=1)
    return textio.int_lines(pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])


def arcs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Every edge in both orientations, as (tails, heads): heads is the
    stored `indices`, each vertex's sorted neighbours in one run, the runs
    in vertex order."""
    return np.repeat(np.arange(g.n), g.degrees), g.indices


def adjacency_matrix(g: Graph, dtype: type = np.int64) -> np.ndarray:
    """The dense n x n 0/1 adjacency matrix A in the given dtype."""
    a = np.zeros((g.n, g.n), dtype=dtype)
    a[arcs(g)] = 1
    return a


def connected_components(g: Graph) -> ComponentPartition:
    """Components of g, numbered in first-seen order, from its arcs."""
    return ComponentPartition(tuple(component_ids(g.n, *arcs(g))[1].tolist()))


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
