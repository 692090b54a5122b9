"""Span tracing of nmgraph's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded `nmgraph` module that holds a reference to it, because `cli`,
`verify` and `analytics` bind library functions by name
(`from nmgraph.nm import build_nm`); patching the defining module alone
would miss those calls.  The 13 checks in `verify.INVARIANTS` are wrapped
in place as `verify.check.<name>`.  `uninstall()` restores every binding.

A span is (id, parent id, name, op id, start ns, end ns).  Spans are kept
in memory; `write_spans` saves them when the run ends.  A span's self time
is its duration minus the durations of its direct children (calls nest and
never overlap: the program is single-threaded).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# module -> public functions timed as "<module>.<function>".
TRACED = {
    "cli": ("main",),
    "graph": ("parse_edge_list", "format_edge_list", "connected_components", "girth",
              "diameter"),
    "nm": ("build_nm", "build_nm_product", "build_mn", "reconstruct_adjacency",
           "row_profile", "determinant_exact"),
    "analytics": ("four_cycle_count", "structural_report", "triangle_count",
                  "is_triangle_free", "is_induced_c4_free", "strong_regularity_profile",
                  "srg_parameters"),
    "oracles": ("subgraph_census", "triangle_count_trace"),
    "matio": ("write_dense", "read_dense", "write_matrix_market", "read_matrix_market"),
    "verify": ("run_suite",),
    "random_graphs": ("corpus",),
}

OP = "op"


def _matrix_bytes(args, kwargs, result):
    return "nm.matrix_bytes", result.n * result.n * 8


def _written(args, kwargs, result):
    return "matio.bytes_written_per_op", len(result)  # ASCII text: chars == bytes


def _read(args, kwargs, result):
    return "matio.bytes_read_per_op", len(args[0])


# Counters taken from a call's arguments or result, outside its span.
COUNTERS = {
    "nm.build_nm": _matrix_bytes,
    "matio.write_dense": _written,
    "matio.write_matrix_market": _written,
    "matio.read_dense": _read,
    "matio.read_matrix_market": _read,
}
MAX_COUNTERS = {"nm.matrix_bytes"}  # per op: the largest matrix, not the sum


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._invariants = None

    # -- spans -------------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, parent, name, self._op, 0, 0))
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, self._op, start, end)
        counter = COUNTERS.get(name)
        if counter is not None:
            key, value = counter(args, kwargs, result)
            op_counts = self.counts[self._op]
            op_counts[key] = max(op_counts[key], value) if key in MAX_COUNTERS \
                else op_counts[key] + value
        return result

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op as the root span of its own op id."""
        self._op = op_id
        self.counts[op_id]  # an op that makes no counted call still has a row
        try:
            return self.span(OP, fn, *args)
        finally:
            self._op = -1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "nmgraph" or name.startswith("nmgraph.")}
        wrappers = {}
        for short, names in TRACED.items():
            mod = modules.get(f"nmgraph.{short}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is not None:  # a later version may drop a function
                    wrappers[id(fn)] = self._wrap(f"{short}.{fname}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        verify = modules.get("nmgraph.verify")
        if verify is not None and hasattr(verify, "INVARIANTS"):
            self._invariants = (verify, verify.INVARIANTS)
            verify.INVARIANTS = [(n, self._wrap(f"verify.check.{n}", check))
                                 for n, check in verify.INVARIANTS]

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        if self._invariants is not None:
            verify, original = self._invariants
            verify.INVARIANTS = original
            self._invariants = None

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[int, dict[str, int]]:
        """op id -> span name -> summed self time (ns) over that op's spans."""
        child_ns = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_op: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for sid, _, name, op, start, end in self.spans:
            per_op[op][name] += end - start - child_ns[sid]
        return per_op

    def inclusive_times(self) -> dict[int, dict[str, int]]:
        """op id -> span name -> summed duration (ns) over that op's spans."""
        per_op: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for _, _, name, op, start, end in self.spans:
            per_op[op][name] += end - start
        return per_op

    def call_counts(self) -> dict[int, dict[str, int]]:
        per_op: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for _, _, name, op, _, _ in self.spans:
            per_op[op][name] += 1
        return per_op

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, op, start, end in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                      "op": op, "start_ns": start, "end_ns": end}) + "\n")


def per_op_median(per_op: dict[int, dict[str, int]], key: str, scale: float = 1.0,
                  factors: dict[int, float] | None = None) -> float:
    """Median over ops of one per-op total, times `scale` and the op's own
    factor from `factors`; an op without the key counts 0."""
    if not per_op:
        return 0.0
    return statistics.median(d.get(key, 0) * (factors[op] if factors else 1.0)
                             for op, d in per_op.items()) * scale
