"""Time one set-up from a fresh interpreter: import hodgelab, then warm up.

    python3 bench/setup_probe.py <workload>

Prints three numbers as its last line: the import time, the warm-up time
and a calibration-kernel time taken right after, in the same process.
run.py scales the two parts, starts this several times per run and reports
the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hodgelab  # noqa: E402,F401
import workloads  # noqa: E402

IMPORTED = time.perf_counter()
workloads.warm_up(sys.argv[1])
WARMED = time.perf_counter()

import hostspeed  # noqa: E402

print(repr(IMPORTED - START), repr(WARMED - IMPORTED), repr(hostspeed.kernel_seconds()))
