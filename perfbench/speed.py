"""Machine-speed probes that put interpreter-bound timings on a reference clock.

On the shared 2-core host the benchmark was built on, interpreter-bound
work (CLI calls, Fraction arithmetic, dyadpol trials) takes anywhere from
1x to 2x as long within a minute.  Process CPU time moves with wall time,
so the CPU itself runs slower; the process is not descheduled.  Kernel
builds and matvecs that stream hundreds of MB did not slow with it.  A
workload that opts in names a probe, which runs after every op; an op's
time is scaled by P_REF_S over the median of the nearby probe readings.
Seconds reported this way are seconds at the speed at which the probe
takes P_REF_S; raw seconds are printed beside them.  Neither probe runs
package code.

Slow spells do not hit all code alike, so each probe mimics the work it
stands for.  Over 85 s in 10 s windows, `analyze` calls varied by 6-7%
raw, by 1.5% against bigint_probe and by 5-6% against call_probe.  On
local_checks (dyadpol trials, small kernels) bigint_probe overcorrected
by up to 1.6x, and call_probe kept the ten-seed spread of wall_s at 0.05.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# median time of either probe on the reference machine (2-core Xeon,
# Python 3.11.7, numpy 2.4.6); a constant, so it never moves a comparison
# between commits
P_REF_S = 0.0025


def bigint_probe() -> float:
    """Seconds for a fixed run of exact rational arithmetic on growing integers."""
    t0 = time.perf_counter()
    for _ in range(4):
        q = Fraction(1)
        for i in range(1, 70):
            q = q * Fraction(3 * i + 1, 2 * i + 1) + Fraction(1, i)
    return time.perf_counter() - t0


def call_probe() -> float:
    """Seconds for a fixed run of a Python loop and small numpy ufunc calls."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    a = np.arange(2000.0)
    for _ in range(40):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0
