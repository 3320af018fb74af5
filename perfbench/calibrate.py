"""Machine-speed calibration for the benchmark's timings.

A shared host can run the same code at very different speeds from one
second to the next (on a 2-vCPU x86-64 VM at 2.1 GHz shared with other
tenants, one pure-Python loop took 45 ms or 80 ms, switching every few
seconds).  Processor time moves with it, so it is no help.  The benchmark therefore times a fixed calibration kernel next to
every measured interval and scales the interval to the reference speed:

    normalized = measured * REFERENCE_S / kernel_time_around_it

The kernel uses builtins only (integers, ``math.gcd``, tuples, dicts), so a
change to the package under test cannot change how fast it runs.
"""

from __future__ import annotations

import time
from math import gcd

# The kernel's time on an uncontended 2.1 GHz x86-64 core under CPython 3.11.
REFERENCE_S = 0.0005


def kernel() -> float:
    """Seconds taken by a fixed slice of exact rational arithmetic."""
    t = time.perf_counter()
    num, den = 0, 1
    seen: dict[int, tuple[int, int]] = {}
    for i in range(1, 1250):
        a, b = i % 13 - 6, i % 17 + 1
        num, den = num * b + a * den, den * b
        g = gcd(num, den)
        num, den = num // g, den // g
        seen[i % 31] = (num % 97, den % 89)
    return time.perf_counter() - t


def sample() -> float:
    """One kernel timing; the faster of two runs, to drop interrupt spikes."""
    return min(kernel(), kernel())


def factor(before: float, after: float) -> float:
    """Scale for an interval bracketed by two kernel samples."""
    return REFERENCE_S * 2 / (before + after)
