"""Cross-checking every matrix-level claim against the brute-force oracles.

Each invariant is a named check on one graph's GraphContext, returning
None on success or a short failure description; a check that raises
ValueError fails with the exception as its description.  The runner
builds one context per graph, applies all checks to it, and aggregates
a per-invariant pass/fail table with the first counterexample
serialized as an edge list under a '#' line giving its vertex count and
isolated vertices.

`row-profile-decoding` reads every row of M as its vertex's first two
BFS levels in one pass over its row-major nonzero entries, the diagonal
ones among them, and names the first row
whose positive entries are not the vertex's neighbours, whose level-1
and level-2 edge counts differ, or whose diagonal is not its minimum;
that the diagonal is -degree is checked once, by `entry-shape`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from nmgraph import analytics, oracles
from nmgraph.graph import (
    Graph,
    diameter,
    format_edge_list,
    girth,
)
from nmgraph.nm import (
    NeighborhoodMatrix,
    build_nm,
    column_sums,
    determinant_exact,
    reconstruct_adjacency,
    row_sums,
    transpose,
)

DETERMINANT_LIMIT = 12


class GraphContext:
    """One graph of the corpus with the artefacts its checks share: the
    matrix, built once, and its transpose, the structural report, the
    oracle products and the brute-force census, each built on first use.
    As properties, an artefact that raises does so inside the check that
    asked for it."""

    def __init__(self, g: Graph):
        self.g = g
        self.m = build_nm(g)

    @cached_property
    def transpose(self) -> NeighborhoodMatrix:
        """M's transpose, shared by the transpose and symmetry checks."""
        return transpose(self.m)

    @cached_property
    def report(self) -> analytics.StructuralReport:
        """The report `analyze` prints, read off the matrix alone."""
        return analytics.structural_report(self.m)

    @cached_property
    def products(self) -> tuple[np.ndarray, np.ndarray]:
        """A(D - A) and (D - A)A as dense arrays, from `oracles.products`."""
        return oracles.products(self.g)

    @cached_property
    def census(self) -> oracles.SubgraphCensus | None:
        """None above ENUMERATION_LIMIT vertices, where enumeration is skipped."""
        if self.g.n > oracles.ENUMERATION_LIMIT:
            return None
        return oracles.subgraph_census(self.g)


def _matches(dense: np.ndarray, m: NeighborhoodMatrix) -> bool:
    """Whether an oracle's dense array is M, without scanning it into a
    view or writing to it: equal to M at every stored entry, and with no
    more nonzeros than M stores, so zero everywhere else (the view lists
    only nonzero entries).  `nm.scan` is part of the BLAS kernel, and the
    oracles share no code with it."""
    rows, cols, vals = m.nonzeros()
    return not np.count_nonzero(dense[rows, cols] != vals) and np.count_nonzero(dense) == len(vals)


def _check_dual_path(ctx: GraphContext) -> str | None:
    if not _matches(ctx.products[0], ctx.m):
        return "row-sum and product constructions disagree"
    if not _matches(oracles.set_based_entries(ctx.g), ctx.m):
        return "row-sum and set-based constructions disagree"
    return None


def _check_transpose(ctx: GraphContext) -> str | None:
    if not _matches(ctx.products[1], ctx.transpose):
        return "mirrored product is not the transpose"
    return None


def _check_row_sums(ctx: GraphContext) -> str | None:
    for i, total in enumerate(row_sums(ctx.m)):
        if total:
            return f"row {i} sums to {total}"
    return None


def _check_column_sums(ctx: GraphContext) -> str | None:
    column_sums(ctx.m, ctx.g)  # raises on mismatch
    return None


def _check_entry_shape(ctx: GraphContext) -> str | None:
    # count_nonzero, not np.array_equal or .any(): see NeighborhoodMatrix.__eq__
    if np.count_nonzero(ctx.m.diagonal + ctx.g.degrees):
        return "diagonal is not -degree"
    if np.count_nonzero(np.abs(ctx.m.nonzeros()[2]) > ctx.g.n - 1):
        return "entry magnitude exceeds n - 1"
    return None


def _check_determinant(ctx: GraphContext) -> str | None:
    if ctx.g.n == 0 or ctx.g.n > DETERMINANT_LIMIT:
        return None
    det = determinant_exact(ctx.m)
    if det != 0:
        return f"determinant {det} != 0"
    return None


def _check_symmetry_iff_regular(ctx: GraphContext) -> str | None:
    # Every component is regular iff every edge joins two equal degrees.
    g = ctx.g
    regular = (g.degrees[g.tails] == g.degrees[g.indices]).all()
    if (ctx.transpose == ctx.m) != regular:
        return f"symmetry={not regular} but regular-components={regular}"
    return None


def _check_round_trip(ctx: GraphContext) -> str | None:
    if reconstruct_adjacency(ctx.m) != ctx.g:
        return "reconstructed edge set differs"
    return None


def _check_row_profiles(ctx: GraphContext) -> str | None:
    # Row i holds vertex i's first two BFS levels.  Its positive entries are
    # its neighbours j, each with m_ij - 1 edges on to level 2; its negative
    # off-diagonal entries are level 2, each with |m_ik| edges back to level
    # 1; both sides count the paths from i to level 2.  The argmin test
    # reads stored entries only: a diagonal of -degree <= 0, which
    # entry-shape checks, is never above an unstored zero.
    n, tails, heads = ctx.g.n, ctx.g.tails, ctx.g.indices
    rows, cols, vals = ctx.m.nonzeros()
    up, down = vals > 0, (vals < 0) & (rows != cols)
    out, back = np.bincount(rows[up], vals[up] - 1, n), np.bincount(rows[down], -vals[down], n)
    for bad, problem in [
        (np.setxor1d(rows[up] * n + cols[up], tails * n + heads, True) // n, "level 1 is not N(i)"),
        (np.flatnonzero(out != back), "level1->level2 edges unbalanced"),
        (rows[vals < ctx.m.diagonal[rows]], "diagonal not among argmin positions"),
    ]:
        if len(bad):
            return f"row {bad[0]}: {problem}"
    return None


def _check_triangles(ctx: GraphContext) -> str | None:
    fast = ctx.report.triangle_count
    trace = oracles.triangle_count_trace(ctx.g)
    if fast != trace:
        return f"matrix count {fast} != trace count {trace}"
    census = ctx.census
    if census is not None and fast != census.triangle_count:
        return f"matrix count {fast} != enumeration {census.triangle_count}"
    return None


def _check_four_cycles(ctx: GraphContext) -> str | None:
    census = ctx.census
    if census is None:
        return None
    # s1 = #induced C4 + #K4-e / 2 and s2 = 3 #K4 + #K4-e / 2.  The report
    # and the census each derive their total from their terms, so the
    # totals agree whenever the terms do.
    report = ctx.report
    half_k4e = Fraction(census.k4_minus_edge_count, 2)
    s1, s2 = census.c4_induced + half_k4e, 3 * census.k4_count + half_k4e
    if (report.s1_term, report.s2_term) != (s1, s2):
        return f"quarter terms {report.s1_term}, {report.s2_term} != enumeration {s1}, {s2}"
    return None


def _check_characterizations(ctx: GraphContext) -> str | None:
    report = ctx.report
    gr = girth(ctx.g)
    if report.triangle_free != (gr != 3):
        return "triangle-free predicate vs girth oracle"
    census = ctx.census
    if census is not None and report.induced_c4_free != (census.c4_induced == 0):
        return "induced-C4-free predicate vs enumeration"
    if report.girth_at_least_5 != (gr >= 5):
        return f"girth>=5 predicate vs girth oracle {gr}"
    srg = oracles.srg_parameters(ctx.g)
    if report.srg_parameters != srg:
        return f"strong-regularity parameters {report.srg_parameters} vs oracle {srg}"
    return None


def _check_diameter(ctx: GraphContext) -> str | None:
    # One vertex is connected yet has no finite diameter, so the count is
    # checked from two vertices on.
    report = ctx.report
    diam = diameter(ctx.g)
    if ctx.g.n >= 2 and (report.component_count == 1) != np.isfinite(diam):
        return f"component count {report.component_count} vs oracle diameter {diam}"
    if report.diameter_at_most_2 != (diam <= 2):
        return f"diameter<=2 predicate vs oracle diameter {diam}"
    if report.some_row_has_no_zero and not diam <= 4:
        return f"row without zeros but diameter {diam} > 4"
    return None


INVARIANTS: list[tuple[str, Callable[[GraphContext], str | None]]] = [
    ("dual-path-identity", _check_dual_path),
    ("transpose-identity", _check_transpose),
    ("row-sums-zero", _check_row_sums),
    ("column-sum-formula", _check_column_sums),
    ("entry-shape", _check_entry_shape),
    ("determinant-zero", _check_determinant),
    ("symmetry-iff-regular-components", _check_symmetry_iff_regular),
    ("reconstruction-round-trip", _check_round_trip),
    ("row-profile-decoding", _check_row_profiles),
    ("triangle-count-oracles", _check_triangles),
    ("four-cycle-count-oracles", _check_four_cycles),
    ("characterization-biconditionals", _check_characterizations),
    ("diameter-predicates", _check_diameter),
]


@dataclass
class InvariantResult:
    name: str
    checked: int = 0
    failures: int = 0
    first_failure: str | None = None
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def run_suite(graphs: list[Graph]) -> list[InvariantResult]:
    results = [InvariantResult(name=name) for name, _ in INVARIANTS]
    for g in graphs:
        ctx = GraphContext(g)
        for result, (_, check) in zip(results, INVARIANTS):
            result.checked += 1
            try:
                detail = check(ctx)
            except ValueError as exc:  # a check that raises has failed
                detail = f"{type(exc).__name__}: {exc}"
            if detail is not None:
                result.failures += 1
                if result.first_failure is None:
                    result.first_failure = detail
                    result.counterexample = _counterexample(g)
    return results


def _counterexample(g: Graph) -> str:
    """The edge list behind a '#' line, which parse_edge_list skips, giving
    what edge lines cannot: the vertex count and the isolated vertices."""
    isolated = " ".join(str(g.labels[v]) for v in np.flatnonzero(g.degrees == 0).tolist())
    return f"# n={g.n} isolated: {isolated or 'none'}\n" + str(format_edge_list(g), "ascii")
