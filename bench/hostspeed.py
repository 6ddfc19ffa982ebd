"""Host-speed calibration: scale every timing to a reference host.

The host is shared.  Co-tenants slow it down by a third or more, for
seconds or for whole runs, and a plain timing would report that drift as a
change of the program.  So every timing is taken next to a calibration of
fixed work and scaled by the reference time of that work over its current
time.  Compute is scaled by a pure-Python kernel, a cold command by
starting an interpreter that imports numpy.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# times of the calibration work on the reference host: an idle 2-vCPU
# Intel Xeon VM with Python 3.11
REFERENCE_KERNEL_S = 0.0028
REFERENCE_START_S = 0.1


def _kernel():
    """Fixed pure-Python work: Fraction arithmetic, dict updates, bit operations."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(1, 600):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
        x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
        key = (i * 2654435761) & 63
        acc[key] = acc.get(key, 0) + (key ^ i).bit_count()
    return x, acc


def kernel_seconds() -> float:
    """Best of three timings of the calibration kernel."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def start_seconds(env) -> float:
    """Wall time to start an interpreter, import numpy and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
    return time.perf_counter() - start


class Scaler:
    """Scale factors for the compute done between consecutive calibrations."""

    def __init__(self):
        self.last = kernel_seconds()
        self.factors: list[float] = []

    def restart(self):
        """Take a fresh calibration after a pause in the timed work."""
        self.last = kernel_seconds()

    def next(self) -> float:
        """Calibrate now; return the factor for the work since the last call."""
        now = kernel_seconds()
        factor = 2.0 * REFERENCE_KERNEL_S / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor
