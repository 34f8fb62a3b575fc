"""A fixed reference task that measures how fast the machine runs right now.

On a shared virtual machine the speed available to one process drifts by
20 % and more over seconds (other tenants, host frequency), for the CPU
clock as much as for the wall clock.  The benchmark therefore times this
task just before and just after every verdict, and scales the verdict's
time by REFERENCE_S over the task's time.  The task does what cjde's kernel
does most: it multiplies two sparse polynomials with exponent-tuple keys and
`Fraction` coefficients.  It shares no code with cjde, so no change to cjde
changes its time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

A = {(i, j, k): Fraction(i - j, k + 1) for i in range(4) for j in range(3) for k in range(2)}
B = {(i, j, k): Fraction(k - i + 1, j + 2) for i in range(3) for j in range(3) for k in range(3)}
REPEATS = 5
# The task's mean CPU time on the machine the reference figures in README.md
# were taken on.  Times are reported as seconds on a machine where the task
# takes exactly this long: measured time * REFERENCE_S / task time.
REFERENCE_S = 0.003


def task() -> dict:
    out = {}
    for ma, ca in A.items():
        for mb, cb in B.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            v = out.get(m, Fraction(0)) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def measure() -> float:
    """Mean time of REPEATS runs of the task, with the garbage collector off.

    The mean, not the minimum: the speed of a shared virtual machine can
    flip between two levels about 2x apart every few tens of milliseconds,
    and the mean estimates the average speed a verdict next to it runs at.
    The collector stays off so that the task's time does not depend on how
    many objects cjde keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0.0
        for _ in range(REPEATS):
            t0 = time.process_time()
            task()
            total += time.process_time() - t0
        return total / REPEATS
    finally:
        if enabled:
            gc.enable()


def scaled(cpu_seconds: float, before: float, after: float) -> float:
    """CPU seconds at reference speed, from the task times around the interval."""
    return cpu_seconds * REFERENCE_S / ((before + after) / 2)
