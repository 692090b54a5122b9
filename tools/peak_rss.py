"""Run one `nmgraph` command in a fresh process and print one JSON line:
its `argv`, its `exit` code, its wall time `wall_s`, its peak resident
memory `peak_mib` and its minor page faults `minflt`, the child's own
`ru_maxrss` and `ru_minflt` as wait4 reports them.  A minor fault is a
page the process touched for the first time, or again after the
allocator returned it to the system: the count shows memory churn that
the peak does not.

    python tools/peak_rss.py compute big.edges --format mm -o big.mtx

The command runs from this checkout's `src`, with its stdout discarded and
its stderr passed through.  Standard library only; Linux reports
`ru_maxrss` in KiB.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv: list[str]) -> dict:
    """The JSON fields above for one run of `nmgraph argv`.  wait4 gives
    this child's usage alone, so one process may run many."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "nmgraph.cli", *argv],
                             stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"argv": argv, "exit": child.returncode, "wall_s": round(wall, 3),
            "peak_mib": round(usage.ru_maxrss / 1024, 1), "minflt": usage.ru_minflt}


def main(argv: list[str]) -> int:
    print(json.dumps(run(argv)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
