"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts by a quarter or
more over minutes, for every kind of code alike: a plain interpreter loop,
NumPy element-wise work and vqlab operations slow down and speed up
together.  So ``run.py`` runs this fixed reference kernel between
operations, outside their timed region, and scales each stretch of
operation times by ``NOMINAL_S / (median kernel time in the stretch)``.
The scaled figures read as wall-clock times at the machine speed where the
kernel takes ``NOMINAL_S``.  The kernel uses no vqlab code, so a change to
vqlab moves the scaled figures as much as the wall-clock ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 3.5e-4  # kernel time at the speed the timings are scaled to
SHARE = 0.03  # kernel time spent per second of operation time

# 128 KiB each, within a core's L2; the kernel allocates nothing, so the
# program's heap state cannot change its time
_DATA = np.linspace(0.0, 1.0, 16384)
_OUT = np.empty_like(_DATA)


def kernel() -> float:
    """Interpreter arithmetic plus small NumPy element-wise calls, the mix
    that vqlab's operations spend their time in."""
    total = 0
    for i in range(2000):
        total += i * i % 7
    np.add(_DATA, 1.0, out=_OUT)
    for _ in range(6):
        np.sqrt(_OUT, out=_OUT)
        np.add(_OUT, 1.0, out=_OUT)
    return total + float(_OUT[0])


def probe(budget_s: float) -> float:
    """Run the kernel once untimed, to warm its data into the cache after
    the program's own work, then at least once and for about ``budget_s``
    seconds; return its median time in seconds."""
    kernel()
    times = []
    while not times or sum(times) < budget_s:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
