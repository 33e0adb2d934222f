"""Machine-speed calibration for timings taken on a shared host.

On the 2-vCPU VM on a shared host this benchmark was built on, a fixed
Python loop takes anywhere from ~107 to ~155 ms depending on load from
other tenants, in phases lasting seconds to minutes, while steal time
stays near zero.
A raw wall time therefore moves by up to ~40% between runs of identical
code. ``calibrate`` times a small fixed mix of the work attlab does
(interpreted Python, small numpy ops, a small matmul) between
invocations, when nothing else of the benchmark runs, and ``scale``
converts a measured time to seconds at the reference speed ``REF_S``.
The calibration runs outside the timed region and never touches attlab,
so a change to the program cannot move it.
"""

import statistics
import time

# The calibration loop's time at that VM's fast phase (Intel Xeon,
# Python 3.11, numpy 2.4); a normalized time equals the raw one there.
REF_S = 0.0063
REPS = 3


def _loop(np, a, w):
    s = 0
    for i in range(15_000):
        s += i * i
    v = np.arange(3.0)
    for _ in range(250):
        v = np.cross(v, v + 1.0) / 7.0
    for _ in range(10):
        a = np.maximum(a @ w, 0.0) * 0.5
    return s, v, a


def calibrate():
    """Median time of a few runs of the fixed loop, in seconds."""
    import numpy as np

    a = np.full((32, 64), 0.01)
    w = np.full((64, 64), 0.01)
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _loop(np, a, w)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)



def scale(seconds, cal_before, cal_after):
    """``seconds`` measured between two calibrations, at reference speed."""
    return seconds * REF_S / ((cal_before + cal_after) / 2.0)
