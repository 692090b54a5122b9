"""Shared graph fixtures and small-graph corpora for the tests.

The 7-vertex worked example (labels 1..7) and the 8-vertex two-squares
example (labels 1..8) appear throughout with their frozen matrices.
"""

from __future__ import annotations

import ast
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterator

import numpy as np
from hypothesis import strategies as st

from nmgraph.errors import InvalidMatrixError
from nmgraph.graph import Graph, from_edges
from nmgraph.nm import NeighborhoodMatrix, RowProfile
from nmgraph.oracles import SubgraphCensus
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


def circulant(n: int, jumps) -> Graph:
    """i ~ i ± j (mod n) for each jump j."""
    return from_edges(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


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


def paw() -> Graph:
    """A triangle 0-1-2 with the pendant edge 2-3."""
    return from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


@st.composite
def graphs(draw, max_n: int = 12) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [p for p, keep in zip(pairs, mask) if keep])


@st.composite
def sparse_graphs(draw, max_n: int = 64) -> Graph:
    """Up to 2n random edges, so isolated vertices are common."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return from_edges(n, [(u, v) for u, v in pairs if u != v])


@st.composite
def graphs_of_any_density(draw, max_n: int = 16) -> Graph:
    """G(n, p) with p drawn from [0, 1], edgeless and complete included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0))
    return gnp(n, p, seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))


def census_by_subsets(g: Graph) -> SubgraphCensus:
    """Reference classifier for `subgraph_census`: each 3- and 4-subset in
    turn, by neighbour-set lookups."""
    triangles = sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if b in g.adj[a] and c in g.adj[a] and c in g.adj[b]
    )
    induced_c4 = k4 = k4_minus_edge = 0
    for quad in combinations(range(g.n), 4):
        edge_count = sum(1 for u, v in combinations(quad, 2) if v in g.adj[u])
        if edge_count == 6:
            k4 += 1
        elif edge_count == 5:
            k4_minus_edge += 1
        elif edge_count == 4:
            degrees = [sum(1 for v in quad if v in g.adj[u]) for u in quad]
            if all(d == 2 for d in degrees):
                induced_c4 += 1
    return SubgraphCensus(
        triangle_count=triangles,
        c4_induced=induced_c4,
        k4_count=k4,
        k4_minus_edge_count=k4_minus_edge,
    )


def srg_by_pairs(g: Graph) -> tuple[int, int, int] | None:
    """Reference for `oracles.srg_parameters`: every pair in turn, by
    neighbour-set intersections."""
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


def row_sums_dense(m: NeighborhoodMatrix) -> list[int]:
    """Reference for `nm.row_sums`, over the dense M."""
    return [int(s) for s in m.entries.sum(axis=1)]


def column_sums_dense(m: NeighborhoodMatrix, g: Graph) -> tuple[list[int], list[int]]:
    """Reference for `nm.column_sums`, over the dense M."""
    totals = [int(s) for s in m.entries.sum(axis=0)]
    prefix = np.concatenate(([0], np.cumsum(g.degrees[g.indices])))
    formula = (g.degrees * g.degrees - np.diff(prefix[g.indptr])).tolist()
    for j, (total, closed) in enumerate(zip(totals, formula, strict=True)):
        if total != closed:
            raise InvalidMatrixError(f"column sums: column {j} sums to {total}, formula {closed}")
    return totals, formula


def transpose_dense(m: NeighborhoodMatrix) -> NeighborhoodMatrix:
    """Reference for `nm.transpose`: the dense M^T, scanned."""
    return NeighborhoodMatrix(m.entries.T, m.labels)


def is_symmetric_dense(m: NeighborhoodMatrix) -> bool:
    """Reference for `nm.is_symmetric`, over the dense M."""
    return np.array_equal(m.entries, m.entries.T)


def row_profile_dense(m: NeighborhoodMatrix, i: int) -> RowProfile:
    """Reference for `nm.row_profile`: row i of the dense M."""
    if not 0 <= i < m.n:
        raise IndexError(f"row index {i} out of range for n={m.n}")
    row = m.entries[i]
    if row.min(initial=0) >= 0 and row.any():
        raise InvalidMatrixError(f"row {i} has no negative entry: not an NM row")
    level1 = frozenset(int(j) for j in np.nonzero(row > 0)[0])
    level2 = {int(j): int(-row[j]) for j in np.nonzero(row < 0)[0] if int(j) != i}
    out_edge_count = {j: int(row[j]) - 1 for j in level1}
    candidates = frozenset(int(j) for j in np.nonzero(row == int(row.min()))[0])
    return RowProfile(row_index=i, level1=level1, level2=level2, out_edge_count=out_edge_count,
                      diagonal_candidates=candidates, degree=-int(row[i]))


def random_bipartite(half: int, degree: int, seed: int) -> Graph:
    """Left vertices 0..half-1, right vertices half..2*half-1; each left
    vertex joined to `degree` distinct right vertices drawn at random."""
    import random

    rng = random.Random(seed)
    return from_edges(2 * half, [(u, half + v) for u in range(half)
                                 for v in rng.sample(range(half), degree)])


def reference_girth(g: Graph) -> int | float:
    """Reference for `graph.girth`: for every edge (u, v), one plus the
    u-v distance with that edge removed, by one BFS per edge."""
    best: int | float = math.inf
    for u, v in edges(g):
        dist = _distance_avoiding_edge(g, u, v)
        if dist is not None:
            best = min(best, dist + 1)
    return best


def _distance_avoiding_edge(g: Graph, src: int, dst: int) -> int | None:
    level = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in g.adj[x]:
            if {x, y} == {src, dst}:
                continue
            if y not in level:
                level[y] = level[x] + 1
                if y == dst:
                    return level[y]
                queue.append(y)
    return None


def diameter_by_bfs(g: Graph) -> int | float:
    """Reference for `graph.diameter`: one queue BFS per root."""
    if g.n <= 1:
        return math.inf
    return max(bfs_levels(g, root).eccentricity() for root in range(g.n))


# -- set-based references: edges, neighbour sets, BFS levels ------------------

UNREACHABLE = -1


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise IndexError(f"vertex index {v} out of range for n={g.n}")


def has_edge(g: Graph, u: int, v: int) -> bool:
    return v in g.adj[u]


def edges(g: Graph) -> Iterator[tuple[int, int]]:
    """Yield each edge once as (u, v) with u < v."""
    tails, heads = g.tails, g.indices
    once = tails < heads
    return zip(tails[once].tolist(), heads[once].tolist())


def common_neighbors(g: Graph, u: int, v: int) -> frozenset[int]:
    """N(u) ∩ N(v); with u == v this is just N(u)."""
    _check_vertex(g, u)
    _check_vertex(g, v)
    return g.adj[u] & g.adj[v]


@dataclass(frozen=True)
class LevelAssignment:
    """BFS distance of every vertex from a root; UNREACHABLE where none."""

    root: int
    level: tuple[int, ...]

    def vertices_at(self, depth: int) -> frozenset[int]:
        return frozenset(v for v, d in enumerate(self.level) if d == depth)

    def eccentricity(self) -> int | float:
        """Max finite level, or inf if some vertex is unreachable."""
        if UNREACHABLE in self.level:
            return math.inf
        return max(self.level)


def bfs_levels(g: Graph, root: int) -> LevelAssignment:
    """Level decomposition from root: level k = vertices at distance k."""
    _check_vertex(g, root)
    level = [UNREACHABLE] * g.n
    level[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if level[v] == UNREACHABLE:
                level[v] = level[u] + 1
                queue.append(v)
    return LevelAssignment(root=root, level=tuple(level))


@dataclass(frozen=True)
class TwoLevelSubgraph:
    """BFS levels 0-2 from a root with only the level-crossing edges."""

    root: int
    level1: frozenset[int]
    level2: frozenset[int]
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)


def two_level_subgraph(g: Graph, root: int) -> TwoLevelSubgraph:
    """Subgraph on levels {0, 1, 2} keeping only root-level1 and
    level1-level2 edges (intra-level edges dropped): level 1 is N(root),
    level 2 the rest of their neighbours other than the root.
    """
    _check_vertex(g, root)
    adj = g.adj
    level1 = adj[root]
    level2 = frozenset().union(*(adj[j] for j in level1)) - level1 - {root}
    crossing = {(root, j) for j in level1}
    crossing |= {(j, k) for j in level1 for k in adj[j] & level2}
    return TwoLevelSubgraph(root=root, level1=level1, level2=level2, edges=frozenset(crossing))


def imported_modules(source: str) -> set[str]:
    """Every module a source text imports: `from a import b` gives both
    `a` and `a.b`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    return names


@st.composite
def edge_list_texts(draw) -> str:
    """Small and full-range int64 labels with optional '+' signs, mixed
    separators and padding, comments, blank lines and duplicate edges in
    both orientations."""
    label = st.one_of(st.integers(0, 20), st.integers(0, 2**63 - 1), st.just(2**63 - 1))
    pool = draw(st.lists(label, min_size=2, max_size=10, unique=True))
    pair = st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True)
    token = st.sampled_from(["", "+"])
    space = st.sampled_from([" ", "\t", "  ", " \t "])
    pad = st.sampled_from(["", " ", "\t"])
    edge = st.builds(lambda p, s1, s2, sep, left, right: f"{left}{s1}{p[0]}{sep}{s2}{p[1]}{right}",
                     pair, token, token, space, pad, pad)
    other = st.sampled_from(["", "   ", "\t", "#", "# comment", "  # 1 2 3", "#1 1"])
    lines = draw(st.lists(st.one_of(edge, edge, other), max_size=40))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def matrices(draw, max_n: int = 12) -> NeighborhoodMatrix:
    """Any square int64 matrix: small entries mixed with the full range."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    values = st.one_of(st.integers(-12, 12), st.sampled_from([-2**63, 2**63 - 1, 0]),
                       st.integers(-2**63, 2**63 - 1))
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    return NeighborhoodMatrix(entries=np.array(rows, dtype=np.int64).reshape(n, n),
                              labels=tuple(labels))


def reference_read_dense(text: str) -> tuple[tuple[int, ...], list[list[int]]] | None:
    """Reference for `matio.read_dense`, built from str.split and int alone:
    (labels, rows of M), or None where the reader must reject the text.

    Lines are split by str.splitlines and stripped, blank ones dropped,
    '#' ones are comments; the first other line holds n, and n rows of n
    tokens follow.  A token is an optional sign and ASCII digits that fit
    int64.  Every `labels:` comment must name distinct non-negative
    integers, and the last names the n labels, else they are 0..n-1."""
    def ints(line: str) -> list[int] | None:
        values = []
        for token in line.split():
            digits = token[1:] if token[0] in "+-" else token
            if not (digits.isascii() and digits.isdigit()):
                return None
            values.append(int(token))
        return values if all(-2**63 <= v < 2**63 for v in values) else None

    lines = [line for line in map(str.strip, text.splitlines()) if line]
    rows = [ints(line) for line in lines if not line.startswith("#")]
    if not rows or rows[0] is None or len(rows[0]) != 1:
        return None
    n = rows[0][0]
    if n < 0 or len(rows) != n + 1 or any(row is None or len(row) != n for row in rows[1:]):
        return None
    labels = list(range(n))
    for line in lines:
        comment = line.lstrip("#").strip()
        if line.startswith("#") and comment.startswith("labels:"):
            labels = ints(comment[len("labels:"):])
            if labels is None or len(set(labels)) != len(labels) or min(labels, default=0) < 0:
                return None
    if len(labels) != n:
        return None
    return tuple(labels), rows[1:]


def as_text(buffer: np.ndarray) -> str:
    """A writer's uint8 buffer as the text it spells: every writer writes
    ASCII alone."""
    return str(buffer, "ascii")


def read_file(reader, text: str, path: Path | None):
    """reader(text) on the line path alone; or, given a path, the text
    written there byte for byte and read back as the CLI reads it, passed
    with the path, so that numpy's C reader may read the file."""
    if path is None:
        return reader(text)
    path.write_bytes(text.encode("utf-8"))
    return reader(path.read_text(encoding="utf-8"), str(path))


def numbered_lines(text: str, marker: str) -> tuple[tuple[int, str], list[tuple[int, str]],
                                                   list[tuple[int, str]]]:
    """Reference for the line numbers of `textio.Rows`: (first, comments,
    body), each line a (1-based number, stripped line) pair, numbered by
    str.splitlines.  first is the first non-blank line, (1, "") when there
    is none; a comment's first non-blank character is `marker`."""
    numbered = [(number, raw.strip()) for number, raw in enumerate(text.splitlines(), start=1)
                if raw.strip()]
    comments = [(number, line) for number, line in numbered if line.startswith(marker)]
    body = [(number, line) for number, line in numbered if not line.startswith(marker)]
    return (numbered[0] if numbered else (1, "")), comments, body
