"""nmgraph benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`.
Set-up (imports, input generation, input files, expected outputs and one
warm-up op) is repeated SETUP_REPS times and its median reported as
`setup_s`.  Then ops run back to back for `--seconds`, each checked.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced ops, prints the per-layer metrics (medians per traced op) and
writes every span to perfbench/out/.  The last stdout line is one JSON
object; the exit code is 0 only when every op's output was right.
"""

from __future__ import annotations

import os

THREAD_CAP = 2  # BLAS/OpenMP pools, set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import TRACED, Tracer, per_op_median  # noqa: E402
from workloads import INVARIANTS, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
SETUP_REPS = 3
BASELINE_REPS = 3
COUNT_OPS = 8

# The machine's effective CPU speed switches between states for tens of
# seconds at a time (the same op takes 1.6x longer in the slow state), which
# moves a run's median by more than any bound a change could be held to.
# Every timed interval is therefore rescaled to a reference speed: its wall
# time x REF_NOMINAL_NS / the time of a fixed reference kernel measured just
# before and after it.  REF_NOMINAL_NS is about that kernel's median on a
# 2-vCPU x86-64 VM (Python 3.11, numpy 2.4); wall times are printed beside
# the rescaled ones.
REF_NOMINAL_NS = 28_000_000

# Nearest-rank percentile reported as latency_tail_ms: the highest one
# with at least ten ops beyond it at the op counts a run usually makes.
TAIL_PERCENTILE = {
    "analyze-sparse": 70,
    "analyze-paley": 60,
    "roundtrip": 60,
    "verify-corpus": 85,
}

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

_CALLS = ("nm.build_nm", "oracles.subgraph_census")
_COUNTS = {"nm.matrix_bytes": "B_computed", "matio.bytes_written_per_op": "B",
           "matio.bytes_read_per_op": "B"}
PER_LAYER = {
    **{f"{layer}.{fn}.self_ms": "ms" for layer, fns in TRACED.items() for fn in fns},
    **{f"{name}.calls_per_op": "count" for name in _CALLS},
    **_COUNTS,
    **{f"verify.check.{name}.ms": "ms" for name in INVARIANTS},
    "trace.overhead_ratio": "ratio",
    "baseline.blas_trace_ms": "ms",
    "baseline.networkx_triangles_ms": "ms",
}


def import_program(needs_networkx: bool) -> None:
    """Import nmgraph from this checkout's src/ and nowhere else."""
    if not (SRC / "nmgraph" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/nmgraph not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import nmgraph.cli
    if Path(nmgraph.__file__).resolve().parent != SRC / "nmgraph":
        sys.exit(f"error: imported nmgraph from {nmgraph.__file__}, not {SRC}")
    if needs_networkx:
        import networkx  # noqa: F401


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def reference_kernel() -> int:
    """Fixed work in the workloads' mix: numpy scalar reads in a Python
    loop, integer text formatting and parsing, set intersection, and a
    4 MiB whole-array pass for memory bandwidth."""
    import numpy as np

    a = np.arange(6400, dtype=np.int64).reshape(80, 80)
    total = 0
    for i in range(80):
        row = a[i]
        for j in range(80):
            total += int(row[j]) & 7
    text = " ".join(str(x) for x in range(40000))
    total += sum(int(t) for t in text.split())
    total += len(set(range(0, 60000, 3)) & set(range(0, 60000, 5)))
    big = np.arange(1 << 19, dtype=np.int64).reshape(512, 1024)
    return total + int(((big % 7) * (big > 5)).sum())


def probe() -> int:
    """Wall time (ns) of one reference kernel: the machine's current speed."""
    start = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - start


def at_reference_speed(ns: int, before: int, after: int) -> float:
    """Rescale an interval to the speed at which the kernel takes
    REF_NOMINAL_NS, using probes taken just before and just after it."""
    return ns * 2 * REF_NOMINAL_NS / (before + after)


class Runner:
    """Runs ops of one workload, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, index: int, run=None) -> int:
        """Op `index` of the workload; returns its wall time in ns.
        `run(op_id, op, index)` may wrap the call."""
        op_id = self.attempted
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            why = run(op_id, self.workload.op, index) if run else self.workload.op(index)
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            why = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if why is not None:
            self.failures.append(f"op {op_id} (index {index}): {why}")
        return elapsed


def setup(runner: Runner) -> tuple[list[float], list[float]]:
    """SETUP_REPS set-ups, each with one warm-up op: (wall s, rescaled s)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        before = probe()
        start = time.perf_counter_ns()
        runner.workload.setup()
        runner.op(0)
        ns = time.perf_counter_ns() - start
        raw.append(ns / 1e9)
        scaled.append(at_reference_speed(ns, before, probe()) / 1e9)
    return raw, scaled


def measure(runner: Runner, seconds: float, run=None) -> tuple[list[int], list[float]]:
    """Closed loop for `seconds`: each op starts when the previous ends, with
    one probe between consecutive ops.  Returns wall and rescaled ns."""
    raw, scaled = [], []
    before = probe()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        ns = runner.op(len(raw), run)
        after = probe()
        raw.append(ns)
        scaled.append(at_reference_speed(ns, before, after))
        before = after
    return raw, scaled


def measure_traced(runner: Runner, seconds: float, tracer):
    """Traced and untraced ops alternate, each input twice in a row, so
    speed drift and input cost hit both alike.  Returns the rescaled ns of
    untraced ops, of traced ops, and each traced op's rescaling factor."""
    untraced, traced, factors = [], [], {}

    def run(op_id, op, n):
        pair = n // 2  # input index; the pair's traced op comes first in odd pairs
        if n % 2 == pair % 2:
            return op(pair)
        tracer.install()
        try:
            return tracer.run_op(op_id, op, pair)
        finally:
            tracer.uninstall()

    first_id = runner.attempted
    raw, scaled = measure(runner, seconds, run)
    for i, (ns, rescaled) in enumerate(zip(raw, scaled)):
        op_id = first_id + i
        if op_id in tracer.counts:
            traced.append(rescaled)
            factors[op_id] = rescaled / ns
        else:
            untraced.append(rescaled)
    return untraced, traced, factors


def baselines(seed: int) -> tuple[list[float], list[float], str | None]:
    """Triangle counts on the analyze-sparse graphs by float64 BLAS
    (A * A@A).sum()/6 and by networkx, timed (rescaled ns) with their
    inputs prebuilt."""
    import networkx as nx
    import numpy as np
    from workloads import SPARSE_N, sparse_edge_sets

    blas, nxt = [], []
    for edges in sparse_edge_sets(seed):
        a = np.zeros((SPARSE_N, SPARSE_N))
        u, v = np.array(edges).T
        a[u, v] = a[v, u] = 1.0
        g = nx.Graph(edges)
        for _ in range(BASELINE_REPS):
            before = probe()
            start = time.perf_counter_ns()
            by_blas = int(round((a * (a @ a)).sum() / 6))
            mid = time.perf_counter_ns()
            by_nx = sum(nx.triangles(g).values()) // 3
            end = time.perf_counter_ns()
            after = probe()
            blas.append(at_reference_speed(mid - start, before, after))
            nxt.append(at_reference_speed(end - mid, before, after))
            if by_blas != by_nx:
                return blas, nxt, f"baseline triangle counts differ: {by_blas} != {by_nx}"
    return blas, nxt, None


def end_to_end(raw, scaled, setup_s, tail_p) -> tuple[dict, str]:
    ordered = sorted(scaled)
    tail, beyond = percentile(ordered, tail_p)
    values = {
        "throughput_ops_s": len(scaled) / (sum(scaled) / 1e9),
        "latency_p50_ms": statistics.median(ordered) / 1e6,
        "latency_tail_ms": tail / 1e6,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    note = (f"{len(scaled)} ops; latency_tail_ms is p{tail_p} with {beyond} ops beyond it; "
            f"wall: throughput {len(raw) / (sum(raw) / 1e9):.4g} ops/s, "
            f"p50 {statistics.median(raw) / 1e6:.4g} ms, "
            f"p{tail_p} {percentile(sorted(raw), tail_p)[0] / 1e6:.4g} ms")
    return values, note


def count_metrics(tracer) -> dict:
    """Calls and bytes per op, as medians over the first COUNT_OPS traced
    ops: their inputs follow from the seed alone, while how many ops a run
    makes depends on the machine's speed."""
    def first(per_op):
        return dict(sorted(per_op.items())[:COUNT_OPS])

    calls, counts = first(tracer.call_counts()), first(tracer.counts)
    values = {f"{name}.calls_per_op": per_op_median(calls, name) for name in _CALLS}
    values.update({name: per_op_median(counts, name) for name in _COUNTS})
    return values


def per_layer(tracer, untraced, traced, factors, blas, nxt) -> dict:
    self_ns, inclusive_ns = tracer.self_times(), tracer.inclusive_times()
    counts = count_metrics(tracer)
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            values[name] = per_op_median(self_ns, name[:-len(".self_ms")], 1e-6, factors)
        elif name.startswith("verify.check."):
            values[name] = per_op_median(inclusive_ns, name[:-len(".ms")], 1e-6, factors)
        elif name in counts:
            values[name] = counts[name]
    values["trace.overhead_ratio"] = (len(untraced) / sum(untraced)) / (len(traced) / sum(traced))
    values["baseline.blas_trace_ms"] = statistics.median(blas) / 1e6
    values["baseline.networkx_triangles_ms"] = statistics.median(nxt) / 1e6
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter_ns()
    import_program(needs_networkx=args.trace == 1 or WORKLOADS[args.workload].needs_networkx)
    import_ns = time.perf_counter_ns() - start
    speed = probe()
    import_s = at_reference_speed(import_ns, speed, speed) / 1e9

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(WORKLOADS[args.workload](args.seed, workdir))
        setup_raw, setup_scaled = setup(runner)
        setup_s = import_s + statistics.median(setup_scaled)
        if args.trace == 0:
            raw, scaled = measure(runner, args.seconds)
            metrics, note = end_to_end(raw, scaled, setup_s, TAIL_PERCENTILE[args.workload])
            note += (f"; wall setup {import_ns / 1e9 + statistics.median(setup_raw):.4g} s"
                     f" (import {import_ns / 1e9:.3g} s)")
            units = END_TO_END
        else:
            tracer = Tracer()
            untraced, traced, factors = measure_traced(runner, args.seconds, tracer)
            blas, nxt, why = baselines(args.seed)
            runner.attempted += 1  # the baselines' agreement is one more check
            if why is not None:
                runner.failures.append(why)
            metrics = per_layer(tracer, untraced, traced, factors, blas, nxt)
            units = PER_LAYER
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans)
            note = (f"{len(traced)} traced + {len(untraced)} untraced ops; "
                    f"{len(tracer.spans)} spans written to {spans.relative_to(BENCH_DIR.parent)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    for why in runner.failures[:5]:
        print(f"FAILED {why}", file=sys.stderr)
    import numpy

    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client; {note}; "
          f"thread cap {THREAD_CAP}, nproc {len(os.sched_getaffinity(0))}, "
          f"Python {sys.version.split()[0]}, numpy {numpy.__version__}")
    for name, value in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {units[name]}")
    print(f"  {'ops_failed_ratio':<45} {failed / runner.attempted:>14.6g} ratio"
          f"  ({failed} of {runner.attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
