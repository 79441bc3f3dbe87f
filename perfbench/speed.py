"""Machine-speed calibration for the end-to-end timings.

A shared 2-vCPU host runs the same Python code up to about 1.9 times slower
from one minute to the next, mostly without CPU steal to show for it.
Timings alone then measure the host.  So the benchmark times a fixed
calibration kernel right before and right after every request, in the same
thread, and scales the request's latency by REF_KERNEL_S / (kernel time
around it): a request that takes three kernel times reads 3 * REF_KERNEL_S
seconds however fast the host runs at that moment.  The kernel does not
touch `fbmsig`, so a change to the program moves the scaled timings as it
moves the raw ones.  Raw seconds are kept in the run's record next to the
scaled ones.

The kernel mixes the kinds of work `fbmsig` does, so that it slows down with
the host about as much as the requests do: an integer loop, float math with
list and dict traffic, many numpy calls on small arrays, and a gather from a
2 MB array.  On the reference machine, with the gather then from 8 MB, a
host slowdown moved request latencies by 0.8 to 1.1 times as much (in log)
as this kernel.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

KERNEL_REPS = 3
# The kernel's best-of-three time on the reference machine (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4) at a calm moment: a scaled second is a second on
# that machine then.
REF_KERNEL_S = 5.0e-3

_SMALL = np.linspace(0.0, 1.0, 40)
_BIG = np.random.default_rng(0).random(1 << 18)
_GATHER = np.random.default_rng(1).integers(0, 1 << 18, 1 << 16)


def _kernel() -> float:
    s = 0
    for i in range(20_000):
        s += (i * i) % 7
    seen, items = {}, []
    for i in range(4_000):
        x = math.exp(-i * 1e-3) * 1.5
        items.append((x, i))
        seen[i % 512] = x
    items.sort()
    acc = 0.0
    for _ in range(150):
        acc += float(np.dot(_SMALL * 1.01 + 0.5, _SMALL))
    return s + acc + float(_BIG[_GATHER].sum())


def kernel_time() -> float:
    """Best of KERNEL_REPS timings of the calibration kernel, in seconds."""
    best = float("inf")
    for _ in range(KERNEL_REPS):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """`seconds` measured between two kernel timings, in reference seconds."""
    return seconds * REF_KERNEL_S / (0.5 * (kernel_before + kernel_after))
