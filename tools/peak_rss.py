"""Run one `nmgraph` command in a fresh process and print one JSON line:
its `argv`, its `exit` code, its wall time `wall_s`, its peak resident
memory `peak_mib` and its minor page faults `minflt`, the child's
`ru_maxrss` and `ru_minflt` from getrusage(RUSAGE_CHILDREN).  A minor
fault is a page the process touched for the first time, or again after
the allocator returned it to the system: the count shows memory churn
that the peak does not.

    python tools/peak_rss.py compute big.edges --format mm -o big.mtx

The command runs from this checkout's `src`, with its stdout discarded and
its stderr passed through.  Standard library only; Linux reports
`ru_maxrss` in KiB.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "nmgraph.cli", *argv],
                          stdout=subprocess.DEVNULL, env=env)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({"argv": argv, "exit": done.returncode, "wall_s": round(wall, 3),
                      "peak_mib": round(usage.ru_maxrss / 1024, 1),
                      "minflt": usage.ru_minflt}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
