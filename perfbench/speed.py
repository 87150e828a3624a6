"""Host-speed reference used to normalize the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts with other tenants'
load. On the 2-vCPU host where it was defined, the median ``case`` time moved
from 300 ms to 450 ms within five minutes with identical code and inputs,
while a fixed Python loop ran at up to 2x its usual time for 1-2 s at a
stretch. A reference kernel that never touches seercal is timed right before and
right after every operation. A workload with ``scaled = True`` reports its
operation and set-up times multiplied by ``NOMINAL_MS / reference time``,
that is, at the host speed where the kernel takes ``NOMINAL_MS``. The choice
is fixed per workload, so a metric never switches between scaled and wall
time with its value. Only paper-case scales: its operations take about
0.3 s, and scaling narrowed their run-to-run spread from 13 % to 4 %. The
other workloads' operations take 6-8 s, and two reference samples around
them do not represent the load during them: scaling widened the spread of
portfolio-30k from 12 % to 19 %. The raw wall times are kept beside the
scaled ones.

The kernel mixes interpreter work and small numpy element-wise calls, as the
workloads do. It allocates no container objects, so the garbage collector
never runs inside it whatever the program left on the heap.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = 8.0  # about the kernel's uncontended time on that host


def _kernel() -> float:
    s = 0.0
    for i in range(200_000):
        s += (i % 7) * 0.5
    a = np.arange(1.0, 2001.0)
    for _ in range(400):
        a = np.sqrt(a * 1.0001 + 1.0)
    return s + float(a[0])


def reference_ms(reps: int = 3) -> float:
    """Median wall time (ms) of ``reps`` runs of the reference kernel."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def scaled(seconds: float, ref_ms: float) -> float:
    """An interval at reference host speed."""
    return seconds * NOMINAL_MS / ref_ms
