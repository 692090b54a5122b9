"""Shared graph fixtures and small-graph corpora for the tests.

The 7-vertex worked example (labels 1..7) and the 8-vertex two-squares
example (labels 1..8) appear throughout with their frozen matrices.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from nmgraph.graph import Graph, from_edges
from nmgraph.random_graphs import gnp

# 7-vertex example: edges 1-2, 1-6, 2-5, 3-4, 4-5, 5-6, 5-7, 6-7.
EXAMPLE7_EDGE_LINES = ["1 2", "3 4", "2 5", "5 6", "6 7", "1 6", "4 5", "5 7"]

EXAMPLE7_MATRIX = np.array(
    [
        [-2, 2, 0, 0, -2, 3, -1],
        [2, -2, 0, -1, 4, -2, -1],
        [0, 0, -1, 2, -1, 0, 0],
        [0, -1, 1, -2, 4, -1, -1],
        [-2, 2, -1, 2, -4, 2, 1],
        [2, -2, 0, -1, 3, -3, 1],
        [-1, -1, 0, -1, 3, 2, -2],
    ],
    dtype=np.int64,
)

EXAMPLE7_ADJACENCY = np.array(
    [
        [0, 1, 0, 0, 0, 1, 0],
        [1, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0, 1, 1],
        [1, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1, 0],
    ],
    dtype=np.int64,
)

# Two disjoint 4-cycles on labels 1..8: 1-2-6-5-1 and 3-4-8-7-3.
TWO_SQUARES_MATRIX = np.array(
    [
        [-2, 2, 0, 0, 2, -2, 0, 0],
        [2, -2, 0, 0, -2, 2, 0, 0],
        [0, 0, -2, 2, 0, 0, 2, -2],
        [0, 0, 2, -2, 0, 0, -2, 2],
        [2, -2, 0, 0, -2, 2, 0, 0],
        [-2, 2, 0, 0, 2, -2, 0, 0],
        [0, 0, 2, -2, 0, 0, -2, 2],
        [0, 0, -2, 2, 0, 0, 2, -2],
    ],
    dtype=np.int64,
)


def example7_graph() -> Graph:
    return from_edges(
        7,
        [(0, 1), (0, 5), (1, 4), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)],
        labels=tuple(range(1, 8)),
    )


def two_squares_graph() -> Graph:
    return from_edges(
        8,
        [(0, 1), (0, 4), (1, 5), (4, 5), (2, 3), (2, 6), (3, 7), (6, 7)],
        labels=tuple(range(1, 9)),
    )


def petersen() -> Graph:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return from_edges(10, edges)


def q3_cube() -> Graph:
    edges = [
        (u, v)
        for u in range(8)
        for v in range(u + 1, 8)
        if bin(u ^ v).count("1") == 1
    ]
    return from_edges(8, edges)


def complete_graph(n: int) -> Graph:
    return from_edges(n, list(combinations(range(n), 2)))


def k4_minus_edge() -> Graph:
    return from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)], labels=tuple(range(1, n + 1)))


def edgeless(n: int) -> Graph:
    return from_edges(n, [])


def complete_multipartite(*sizes: int) -> Graph:
    part = [p for p, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]])


def paley(q: int) -> Graph:
    """Paley graph on the prime q = 1 (mod 4): i ~ j iff j - i is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(i, j) for i, j in combinations(range(q), 2) if (j - i) % q in squares])


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform d-regular graph on n vertices by the pairing model: match
    the n*d half-edges at random and retry until the result is simple."""
    import random

    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[k:k + 2])) for k in range(0, len(stubs), 2)}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            return from_edges(n, pairs)


def all_graphs_up_to(max_n: int):
    """Every labelled graph on 0..max_n vertices (2^C(n,2) per n)."""
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield from_edges(n, [p for b, p in enumerate(pairs) if mask >> b & 1])


def random_corpus(trials: int, max_n: int, seed: int) -> list[Graph]:
    import random

    rng = random.Random(seed)
    return [
        gnp(rng.randint(0, max_n), rng.random(), seed=rng.randrange(2**32))
        for _ in range(trials)
    ]
