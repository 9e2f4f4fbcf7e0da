"""Host-speed reference: a fixed kernel timed next to every measurement.

The benchmark runs on shared virtual machines whose speed changes by up
to 2x over seconds to minutes, because of load the guest cannot see.  A
timing divided by the kernel's time measured just before and after it is
far steadier across those changes; multiplied by ``REF_NOMINAL_S`` it
reads as seconds on a host running at full speed.  The kernel does what
the simulator does most (attribute access on small objects, dict
updates, sorting with a key, float arithmetic on numpy scalars, a small
numpy call) and depends on nothing in satdefsim, so a change to the
program never changes it.
"""
from __future__ import annotations

import time

import numpy as np

#: the kernel's time at full speed on a 2-vCPU x86_64 VM (Intel Xeon,
#: Python 3.11, numpy 2.4), the machine README.md describes
REF_NOMINAL_S = 2.0e-3

_B = np.linspace(0.0, 1.0, 64)


class _Item:
    __slots__ = ("a", "b", "c")


def kernel() -> float:
    items = []
    for i in range(600):
        it = _Item()
        it.a, it.b, it.c = i, i * 0.5, (i % 7, i % 3)
        items.append(it)
    d: dict[tuple[int, int], float] = {}
    tot = 0.0
    for _ in range(8):
        for it in items:
            d[it.c] = d.get(it.c, 0.0) + it.b
            if it.a % 5 == 0:
                tot += float(_B[it.a % 64])
        items.sort(key=lambda it: (it.c, -it.a))
    arr = np.array([it.b for it in items[:50]])
    return tot + float(np.interp(3.3, arr, arr)) + sum(d.values())


def reference() -> float:
    """The kernel's fastest time of 3 runs, in seconds."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t)
    return best


def corrected(seconds: float, ref_s: float) -> float:
    """A timing scaled to full host speed by the reference time next to it."""
    return seconds * REF_NOMINAL_S / ref_s
