"""Run `analyze`, `compute --format mm` and `reconstruct` on a ladder of
edge lists, each command in a fresh process through `peak_rss.run`, and
write the rows, with the machine they ran on, to one JSON file.

    python tools/bench_ladder.py BENCH_32.json

Rung n, for n in SIZES, is an edge list of 4n lines "u v" drawn
uniformly from 0..n-1 by numpy with seed n, self-loops dropped (so some
edges repeat), written by np.savetxt.  Each of ROUNDS rounds runs, in
order, `analyze` on it, `compute --format mm` to a Matrix Market file
and `reconstruct` of that file; every file lives in a temporary
directory.  The JSON keys are listed in the README.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from peak_rss import run

SCHEMA = 1
SIZES = (4096, 10_000, 100_000)
ROUNDS = 2  # the spread between rounds shows the CPU's drift


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", help="the JSON file to write")
    args = parser.parse_args(argv)
    rows = []
    with tempfile.TemporaryDirectory() as work:
        for n in SIZES:
            edges, mtx, back = (os.path.join(work, f"g{n}.{ext}")
                                for ext in ("edges", "mtx", "out"))
            pairs = np.random.default_rng(n).integers(0, n, size=(4 * n, 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            np.savetxt(edges, pairs, fmt="%d")
            for _ in range(ROUNDS):
                for command in (["analyze", edges], ["compute", edges, "--format", "mm", "-o", mtx],
                                ["reconstruct", mtx, "-o", back]):
                    result = run(command)
                    del result["argv"]
                    rows.append({"n": n, "lines": len(pairs), "command": command[0], **result})
                    print(json.dumps(rows[-1]), file=sys.stderr)
    doc = {
        "schema": SCHEMA,
        "machine": {
            "nproc": os.cpu_count(),
            "memory_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> 20,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "rows": rows,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
