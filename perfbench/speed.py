"""The machine's speed next to each measurement, from a fixed calibration.

On the 2-vCPU virtual machine this benchmark was built on, the same solve
ran up to 1.7x slower in some 10-second windows than in others, with CPU
time equal to wall time: the host's load changes how fast the guest runs.
Raw medians of 30-second runs therefore differed by 40-50% between runs.
The calibration below does a fixed mix of the work the workloads do (a
Python loop, 6x6 numpy products, 128x32 BLAS products) right before and
right after each measured operation.  Every time the benchmark reports is
the raw time multiplied by REFERENCE_S / (calibration time), that is, in
seconds at the speed at which the calibration takes REFERENCE_S.  Raw
medians are printed beside them.  README.md has the measurements.
"""

from time import perf_counter

import numpy as np

# The calibration's median duration on the reference machine (README.md).
REFERENCE_S = 0.010

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((6, 6))
_TALL = _RNG.random((128, 32))
_THIN = _RNG.random((32, 4))


def probe():
    """Seconds the calibration takes now."""
    begin = perf_counter()
    acc = 0
    for i in range(15000):
        acc += i * i % 7
    a = _SMALL
    for _ in range(600):
        a = (a @ _SMALL) * 0.1
        float(np.sum(a * a))
    for _ in range(50):
        W = _TALL @ _THIN
        R = W @ W.T
        float(np.sum(R * R))
    return perf_counter() - begin


def scale(before, after):
    """Factor from raw seconds to reference seconds, for work between two probes."""
    return REFERENCE_S / ((before + after) / 2.0)
