"""Command-line surface: compute, reconstruct, analyze, verify, bench.

Exit codes: 0 ok, 1 invariant failure, 2 parse error, 3 I/O error or
out of memory, 4 matrix not a valid neighbourhood matrix.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import nmgraph
from nmgraph import analytics, matio, oracles, verify
from nmgraph.errors import InvalidMatrixError, ParseError
from nmgraph.graph import format_edge_list, parse_edge_list
from nmgraph.nm import NeighborhoodMatrix, build_nm, reconstruct_adjacency, scan
from nmgraph.random_graphs import corpus, gnp

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_INVALID_NM = 4


def _read_text(path: str) -> str:
    """The file's text, decoded as UTF-8.  A file that is not UTF-8 is a
    parse error here, though a reader may read the body from the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _not_utf8(path: str, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")


def _write(path: str | None, data: np.ndarray) -> None:
    """A writer's uint8 buffer, written as is to the file at path, else
    to stdout's binary stream; a text stream put in place of stdout, such
    as io.StringIO, takes it decoded."""
    if path is not None:
        Path(path).write_bytes(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        view = memoryview(data)
        while view:  # an unbuffered stdout is raw and may take part of it
            view = view[sys.stdout.buffer.write(view):]
    else:
        sys.stdout.write(str(data, "ascii"))


def _in_range(kind: type, low: float, high: float = math.inf):
    """An argparse type: a value of `kind` in [low, high]."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} in [{low}, {high}], got {text!r}")
        return value
    return parse


def cmd_compute(args: argparse.Namespace) -> int:
    graph = parse_edge_list(_read_text(args.input), args.input)
    m = build_nm(graph)
    write = matio.write_matrix_market if args.format == "mm" else matio.write_dense
    _write(args.output, write(m))
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    try:  # matio decodes only the texts that Python walks
        m = matio.read_auto(Path(args.input).read_bytes(), args.input)
    except UnicodeDecodeError as exc:
        raise _not_utf8(args.input, exc) from None
    graph = reconstruct_adjacency(m)
    _write(args.output, format_edge_list(graph))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    t0 = time.perf_counter_ns()
    graph = parse_edge_list(_read_text(args.input), args.input)
    t1 = time.perf_counter_ns()
    m = build_nm(graph)
    t2 = time.perf_counter_ns()
    report = analytics.structural_report(m)
    t3 = time.perf_counter_ns()

    doc = {
        "n": graph.n,
        "edgeCount": graph.edge_count,
        "componentCount": report.component_count,
        "triangleCount": report.triangle_count,
        "fourCycleCount": report.four_cycle_count,
        "s1Term": f"{report.s1_quarters}/4",
        "s2Term": f"{report.s2_quarters}/4",
        "triangleFree": report.triangle_free,
        "inducedC4Free": report.induced_c4_free,
        "girthAtLeast5": report.girth_at_least_5,
        "diameterAtMost2": report.diameter_at_most_2,
        "someRowHasNoZero": report.some_row_has_no_zero,
        "distinctEntryValues": list(report.distinct_entry_values),
        "srgConsistent": report.srg_consistent,
        "srgParameters": list(report.srg_parameters) if report.srg_parameters else None,
        "timingsMicros": {
            "parse": (t1 - t0) // 1000,
            "build": (t2 - t1) // 1000,
            "analyze": (t3 - t2) // 1000,
        },
        "toolVersion": nmgraph.__version__,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.self_test:
        return _verify_self_test(args.seed)

    if args.input is not None:
        graphs = [parse_edge_list(_read_text(args.input), args.input)]
    else:
        graphs = corpus(args.trials, args.size, args.seed)

    results = verify.run_suite(graphs)
    return _print_verify_table(results)


def _print_verify_table(results: list[verify.InvariantResult]) -> int:
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  ({r.checked} graphs)")
        if not r.passed:
            failed = True
            print(f"  detail: {r.first_failure}")
            print("  counterexample edge list:")
            for line in (r.counterexample or "").splitlines():
                print(f"    {line}")
    return EXIT_INVARIANT if failed else EXIT_OK


def _verify_self_test(seed: int) -> int:
    """Negative control: corrupt one entry and require detection."""
    graph = gnp(8, 0.4, seed=seed)
    entries = oracles.set_based_entries(graph)
    entries[0, 1] += 1
    corrupted = NeighborhoodMatrix.from_nonzeros(*scan(entries), graph.labels)
    try:
        reconstruct_adjacency(corrupted)
    except InvalidMatrixError as exc:
        print(f"self-test PASS: corruption detected ({exc})")
        print("counterexample edge list of the source graph:")
        for line in str(format_edge_list(graph), "ascii").splitlines():
            print(f"  {line}")
        return EXIT_INVARIANT
    print("self-test FAIL: corrupted matrix was accepted")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    if args.size == 0:
        print(json.dumps({"rows": []}, sort_keys=True))
        return EXIT_OK

    p = args.density
    if p is None:
        p = min(1.0, 8.0 / max(args.size - 1, 1))
    graph = gnp(args.size, p, seed=args.seed)

    nm_times = []
    dense_times = []
    nm_count = dense_count = 0
    for _ in range(args.reps):
        t0 = time.perf_counter_ns()
        nm_count = analytics.triangle_count(build_nm(graph))
        nm_times.append(time.perf_counter_ns() - t0)

        t0 = time.perf_counter_ns()
        dense_count = oracles.triangle_count_trace(graph)
        dense_times.append(time.perf_counter_ns() - t0)

    if nm_count != dense_count:
        print(f"count mismatch: nm={nm_count} dense={dense_count}", file=sys.stderr)
        return EXIT_INVARIANT

    doc = {
        "rows": [
            {
                "n": graph.n,
                "edgeCount": graph.edge_count,
                "reps": args.reps,
                "triangleCount": nm_count,
                "nmMedianMicros": int(statistics.median(nm_times)) // 1000,
                "denseMedianMicros": int(statistics.median(dense_times)) // 1000,
            }
        ]
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that writes its help and version text to stdout
    as every command writes its output, flushed before it exits: argparse
    alone drops a failed write, so a closed pipe would lose the text and
    exit 0."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
            file.flush()
        else:
            super()._print_message(message, file)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call to `main` can share it."""
    parser = _Parser(
        prog="nmgraph",
        description="Neighbourhood-matrix toolkit for undirected simple graphs",
    )
    parser.add_argument("--version", action="version", version=nmgraph.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="build the matrix from an edge list")
    p.add_argument("input", help="edge-list file")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("dense", "mm"), default="dense")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("reconstruct", help="recover the edge list from a matrix file")
    p.add_argument("input", help="matrix file (dense or Matrix Market)")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("analyze", help="print the structural report as JSON")
    p.add_argument("input", help="edge-list file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("input", nargs="?", default=None, help="edge-list file (default: random corpus)")
    p.add_argument("--trials", type=_in_range(int, 0), default=50)
    p.add_argument("--size", type=_in_range(int, 0), default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--self-test", action="store_true",
                   help="negative control: corrupt a matrix, expect exit 1")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the matrix triangle count vs the dense trace")
    p.add_argument("--size", type=_in_range(int, 0), default=1024)
    p.add_argument("--density", type=_in_range(float, 0, 1), default=None,
                   help="edge probability (default: average degree 8)")
    p.add_argument("--reps", type=_in_range(int, 1), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's last flush
        return code
    except ParseError as exc:
        return _error(exc, EXIT_PARSE)
    except InvalidMatrixError as exc:
        return _error(exc, EXIT_INVALID_NM)
    except (OSError, MemoryError) as exc:
        if isinstance(exc, BrokenPipeError):
            _discard(sys.stdout)
        return _error(str(exc) or type(exc).__name__, EXIT_IO)


def _error(message: object, code: int) -> int:
    """Print the error line to stderr and return code, which a closed
    stderr does not change."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        _discard(sys.stderr)
    return code


def _discard(stream) -> None:
    """Point the process's own stdout or stderr, after a write to it
    failed, at /dev/null, so that the interpreter's last flush of what it
    still holds succeeds (the Python docs' note on SIGPIPE).  A stream put
    in its place, as by a caller capturing output, is left alone."""
    if stream in (sys.__stdout__, sys.__stderr__):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
