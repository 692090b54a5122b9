"""The four workloads: seeded inputs, one op each, and the op's output check.

Inputs come from the workload seed alone, through this file's own
generators (stdlib `random`, whose stream Python keeps stable), so they do
not move when nmgraph's own generator changes.  Expected outputs come from
code that shares nothing with `nmgraph.nm` or `nmgraph.analytics`:
networkx and 2-path counting for the G(n, p) graphs, closed forms for
Paley(257), byte comparison with the canonical input for round trips.

Every op drives the CLI in-process through `nmgraph.cli.main(argv)`.
`op()` returns None when the output is right and a one-line reason when it
is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

SPARSE_N = 1024
SPARSE_GRAPHS = 4
PALEY_Q = 257
VERIFY_TRIALS = 50
VERIFY_SIZE = 16
VERIFY_SEEDS = 256  # op i uses seed i: corpus costs differ, so a run spans many corpora
INVARIANTS = (
    "dual-path-identity", "transpose-identity", "row-sums-zero", "column-sum-formula",
    "entry-shape", "determinant-zero", "symmetry-iff-regular-components",
    "reconstruction-round-trip", "row-profile-decoding", "triangle-count-oracles",
    "four-cycle-count-oracles", "characterization-biconditionals", "diameter-predicates",
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """nmgraph.cli.main(argv) with stdout captured (looked up at call time,
    so an installed tracer sees it)."""
    import nmgraph.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = nmgraph.cli.main(argv)
    return code, out.getvalue()


# -- input generators --------------------------------------------------------

def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def sparse_edge_sets(seed: int) -> list[list[tuple[int, int]]]:
    rng = random.Random(f"analyze-sparse:{seed}")
    p = 8 / (SPARSE_N - 1)
    return [gnp_edges(SPARSE_N, p, random.Random(rng.getrandbits(64)))
            for _ in range(SPARSE_GRAPHS)]


def canonical_text(edges: list[tuple[int, int]]) -> str:
    """The byte form `reconstruct` must reproduce: "u v" with u < v, sorted."""
    return "".join(f"{u} {v}\n" for u, v in sorted((min(e), max(e)) for e in edges))


def paley_edges(q: int) -> list[tuple[int, int]]:
    squares = {x * x % q for x in range(1, q)}
    return [(a, b) for a in range(q) for b in range(a + 1, q) if (b - a) % q in squares]


def paley_text(seed: int) -> str:
    """Paley(q) with labels 1..q permuted and lines and endpoints shuffled."""
    rng = random.Random(f"analyze-paley:{seed}")
    label = list(range(1, PALEY_Q + 1))
    rng.shuffle(label)
    lines = []
    for a, b in paley_edges(PALEY_Q):
        u, v = (label[a], label[b]) if rng.random() < 0.5 else (label[b], label[a])
        lines.append(f"{u} {v}\n")
    rng.shuffle(lines)
    return "".join(lines)


# -- expected analyze reports ---------------------------------------------------

def expected_report_networkx(edges: list[tuple[int, int]]) -> dict:
    """The analyze report of an edge list, from networkx and 2-path counts.

    codegree[u, w] counts common neighbours via 2-paths u-v-w.  With it,
    the matrix entries are known without building the matrix: -deg(i) on
    the diagonal, deg(j) - codegree on edges, -codegree on non-edges.
    """
    import networkx as nx
    import nmgraph

    g = nx.Graph(edges)
    n, m = g.number_of_nodes(), g.number_of_edges()
    deg = dict(g.degree())
    codegree: Counter = Counter()
    for v in g:
        for u, w in combinations(sorted(g[v]), 2):
            codegree[u, w] += 1
    # s1 sums C(c, 2) over ordered non-adjacent pairs, s2 over ordered
    # adjacent pairs (there |m_jj| - m_ij equals the codegree).
    s1 = 2 * sum(comb(c, 2) for (u, w), c in codegree.items() if not g.has_edge(u, w))
    s2 = 2 * sum(comb(c, 2) for (u, w), c in codegree.items() if g.has_edge(u, w))
    triangles = sum(nx.triangles(g).values()) // 3
    induced_c4 = any(
        not g.has_edge(a, b)
        for (u, w), c in codegree.items() if c >= 2 and not g.has_edge(u, w)
        for a, b in combinations(set(g[u]) & set(g[w]), 2)
    )
    ball = [len(nx.single_source_shortest_path_length(g, v, cutoff=2)) for v in g]

    values = {-d for d in deg.values()}
    for u, w in g.edges():
        c = codegree.get((min(u, w), max(u, w)), 0)
        values |= {deg[w] - c, deg[u] - c}
    nonedge_pairs = n * (n - 1) // 2 - m
    nonedge_codegrees = [c for (u, w), c in codegree.items() if not g.has_edge(u, w)]
    values |= {-c for c in nonedge_codegrees}
    if min(ball, default=n) < n:
        values.add(0)

    srg = None
    if n >= 2 and len(set(deg.values())) == 1 and m > 0 and nonedge_pairs > 0:
        mu1 = {codegree.get((min(e), max(e)), 0) for e in g.edges()}
        mu2 = set(nonedge_codegrees) | ({0} if len(nonedge_codegrees) < nonedge_pairs else set())
        if len(mu1) == 1 and len(mu2) == 1:
            srg = [next(iter(deg.values())), mu1.pop(), mu2.pop()]

    return {
        "n": n,
        "edgeCount": m,
        "componentCount": nx.number_connected_components(g),
        "triangleCount": triangles,
        "fourCycleCount": (s1 + s2) // 4,
        "s1Term": f"{s1}/4",
        "s2Term": f"{s2}/4",
        "triangleFree": triangles == 0,
        "inducedC4Free": not induced_c4,
        "girthAtLeast5": triangles == 0 and s1 + s2 == 0,
        "diameterAtMost2": n >= 2 and min(ball) == n,
        "someRowHasNoZero": n > 0 and max(ball) == n,
        "distinctEntryValues": sorted(values),
        "srgConsistent": srg is not None,
        "srgParameters": srg,
        "toolVersion": nmgraph.__version__,
    }


def expected_report_paley(q: int) -> dict:
    """Closed forms for Paley(q), q = 1 mod 4: srg(q, k, lam, mu) with
    k = (q-1)/2, lam = (q-5)/4, mu = (q-1)/4.  Its clique number is at most
    sqrt(q) < mu, so two of any mu common neighbours are non-adjacent and an
    induced 4-cycle exists."""
    import nmgraph

    k, lam, mu = (q - 1) // 2, (q - 5) // 4, (q - 1) // 4
    s1 = q * (q - 1 - k) * comb(mu, 2)
    s2 = q * k * comb(lam, 2)
    return {
        "n": q,
        "edgeCount": q * k // 2,
        "componentCount": 1,
        "triangleCount": q * k * lam // 6,
        "fourCycleCount": (s1 + s2) // 4,
        "s1Term": f"{s1}/4",
        "s2Term": f"{s2}/4",
        "triangleFree": False,
        "inducedC4Free": False,
        "girthAtLeast5": False,
        "diameterAtMost2": True,
        "someRowHasNoZero": True,
        "distinctEntryValues": sorted({-k, k - lam, -mu}),
        "srgConsistent": True,
        "srgParameters": [k, lam, mu],
        "toolVersion": nmgraph.__version__,
    }


def check_report(stdout: str, expected: dict) -> str | None:
    """Every key of the expected report must match; keys the report adds
    (timings, schema versions) are not part of the check."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "analyze output is not JSON"
    wrong = sorted(k for k, v in expected.items() if report.get(k) != v)
    if wrong:
        return "analyze report differs in " + ", ".join(
            f"{k}: {report.get(k)!r} != {expected[k]!r}" for k in wrong)
    return None


# -- workloads ---------------------------------------------------------------

class Workload:
    """Inputs under `workdir`, generated by `setup()`; `op(i)` runs op i."""

    needs_networkx = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> str | None:
        raise NotImplementedError

    def input_files(self) -> list[Path]:
        return sorted(self.workdir.glob("input-*"))

    def _write_input(self, index: int, text: str) -> Path:
        path = self.workdir / f"input-{index}.txt"
        path.write_text(text, encoding="utf-8")
        return path


class Analyze(Workload):
    """`analyze` on input k = i mod the number of inputs."""

    def op(self, i: int) -> str | None:
        k = i % len(self.files)
        code, out = run_cli(["analyze", str(self.files[k])])
        if code != 0:
            return f"analyze exited {code}"
        return check_report(out, self.expected[k])


class AnalyzeSparse(Analyze):
    needs_networkx = True

    def setup(self) -> None:
        edge_sets = sparse_edge_sets(self.seed)
        self.files = [self._write_input(k, canonical_text(e)) for k, e in enumerate(edge_sets)]
        self.expected = [expected_report_networkx(e) for e in edge_sets]


class AnalyzePaley(Analyze):
    def setup(self) -> None:
        self.files = [self._write_input(0, paley_text(self.seed))]
        self.expected = [expected_report_paley(PALEY_Q)]


class Roundtrip(Workload):
    """compute (dense) -> reconstruct -> compute --format mm -> reconstruct."""

    def setup(self) -> None:
        self.canonical = [canonical_text(e) for e in sparse_edge_sets(self.seed)]
        self.files = [self._write_input(k, t) for k, t in enumerate(self.canonical)]

    def op(self, i: int) -> str | None:
        k = i % len(self.files)
        dense, mm = self.workdir / "m.dense", self.workdir / "m.mtx"
        first, second = self.workdir / "r1.txt", self.workdir / "r2.txt"
        steps = (
            ["compute", str(self.files[k]), "-o", str(dense)],
            ["reconstruct", str(dense), "-o", str(first)],
            ["compute", str(first), "--format", "mm", "-o", str(mm)],
            ["reconstruct", str(mm), "-o", str(second)],
        )
        for argv in steps:
            code, _ = run_cli(argv)
            if code != 0:
                return f"{argv[0]} exited {code}"
        for path in (first, second):
            if path.read_text(encoding="utf-8") != self.canonical[k]:
                return f"{path.name} differs from the canonical input"
        return None


class VerifyCorpus(Workload):
    def setup(self) -> None:
        rng = random.Random(f"verify-corpus:{self.seed}")
        self.seeds = [rng.randrange(2**31) for _ in range(VERIFY_SEEDS)]
        self._write_input(0, " ".join(map(str, self.seeds)) + "\n")  # a record only
        self.expected = [f"{name}PASS({VERIFY_TRIALS}graphs)" for name in INVARIANTS]

    def op(self, i: int) -> str | None:
        code, out = run_cli(["verify", "--trials", str(VERIFY_TRIALS), "--size",
                             str(VERIFY_SIZE), "--seed", str(self.seeds[i % VERIFY_SEEDS])])
        if code != 0:
            return f"verify exited {code}"
        if ["".join(line.split()) for line in out.splitlines()] != self.expected:
            return "verify table is not all PASS"
        return None


WORKLOADS = {
    "analyze-sparse": AnalyzeSparse,
    "analyze-paley": AnalyzePaley,
    "roundtrip": Roundtrip,
    "verify-corpus": VerifyCorpus,
}
