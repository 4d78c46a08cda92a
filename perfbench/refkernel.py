"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared 2-core Xeon host the same pass of a workload takes anywhere
from 1x to 1.9x its best time, in waves lasting minutes, so raw seconds
cannot gate a 10% regression.  The benchmark therefore times this kernel
next to every operation and reports times scaled to the kernel's nominal
speed: ``t * REF_S / reference()``.  The kernel runs the three kinds of
work the library does: complex elementwise maths on arrays of a render
chunk's size (bounded orbits), many numpy calls on a few points (orbits
that die within a few steps) and scalar interpreter work (the geometry
code).  It never calls expdyn, so no change to the library can move it.
Set-up time is not scaled: importing is mostly reading and unmarshalling
files, which the kernel was found not to track.
"""

import time

import numpy as np

# Nominal seconds of one reference() call.  It fixes the unit: a normalised
# figure is the time the work would take on a host that runs the kernel in
# REF_S seconds.
REF_S = 0.04

_BIG = np.exp(1j * np.linspace(0.0, 6.0, 25600)) * 3.0
_SMALL = np.exp(1j * np.linspace(0.0, 6.0, 32)) * 0.5


def reference() -> float:
    """Seconds taken by one run of the kernel."""
    t0 = time.perf_counter()
    for _ in range(7):  # elementwise maths on a render chunk
        y = np.log(_BIG) + np.exp(0.3 * _BIG)
        float(np.abs(y).max())
    s = _SMALL
    for _ in range(600):  # many calls on a few live points
        s = np.where(np.abs(s) > 0.3, s * 0.999 + 0.001j, s)
    acc, seen = 0.0, {}
    for k in range(25000):  # scalar interpreter work
        acc += (k % 7) * 0.5
        seen[k & 255] = acc
    return time.perf_counter() - t0
