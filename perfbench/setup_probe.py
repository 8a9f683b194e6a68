"""Time one set-up in a fresh interpreter; run by run.py.

    python3 perfbench/setup_probe.py SRC WORKLOAD SEED SMOKE DIR

Prints the seconds from this script's start until igusa is imported and
the workload's problem files are written to DIR.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

src, workload, seed, smoke, directory = sys.argv[1:]
sys.path.insert(0, src)
import igusa.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.write_problems(workloads.build(workload, int(seed), smoke == "1"), directory)
print(time.perf_counter() - _START)
