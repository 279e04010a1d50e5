"""Host-speed calibration for the benchmark's timings.

On a shared host the same deterministic op can run 1.4 times slower for tens
of seconds at a time, and every op class slows together. A fixed kernel
timed next to the work tracks that speed, so each timing is reported in
reference seconds: wall seconds times ``REFERENCE_S / calibration seconds``.
On a host where the kernel takes ``REFERENCE_S`` they equal wall seconds.

The kernel uses numpy only, never qgini, so a change to qgini moves the
scaled timings exactly as it moves the wall times. It mixes the two kinds of
work the workloads do: many small-array numpy calls driven from a Python loop
(the search objective, the property checks) and dense linear algebra (the
O(d^3) report paths).
"""

import statistics
import time

import numpy as np

# a typical median kernel time on a 2-vCPU Intel Xeon VM (2.1 GHz, one BLAS
# thread); it only sets the scale, and it is fixed so that runs compare
REFERENCE_S = 0.0048
# a timing is scaled by the median of the kernel times within this many
# kernel runs on either side of it
WINDOW = 3


def kernel():
    """Fixed work; returns its result so that nothing is skipped."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(100):
        z = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        p = np.abs(np.fft.fft(z)) ** 2
        s = np.sort(p / p.sum())
        acc += float(np.cumsum(s) @ s)
        acc += sum(x * x for x in s.tolist())
    m = rng.standard_normal((120, 120))
    acc += float(np.linalg.eigvalsh(m + m.T)[-1]) + float(np.trace(m @ m))
    return acc


def time_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(timings, kernel_s):
    """Reference seconds of ``timings[i]``, measured right after ``kernel_s[i]``."""
    scaled = []
    for i, t in enumerate(timings):
        local = statistics.median(kernel_s[max(i - WINDOW, 0): i + WINDOW + 1])
        scaled.append(t * REFERENCE_S / local)
    return scaled
