"""Reference kernel that measures how fast the machine runs at the moment.

On a shared machine the speed of one core changes by up to 2.5x from second
to second, with slow phases that last tens of seconds. Timing a fixed
kernel in short slices between operations, and scaling each operation's
time by the kernel's rate around it, removes most of that drift: the
kernel and cvdist's small-matrix code slow down together. The kernel
contains no cvdist code, so a change to cvdist cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Reference steps per second on the 2-vCPU x86_64 VM the bounds were tuned
#: on, in its fast phase; normalized times read as seconds on that machine.
REF_RATE = 1400.0


class Reference:
    """A fixed kernel of small dense linear algebra, no cvdist code in it.

    Its rate, sampled between operations, measures how fast the machine is
    running at that moment; scaling an operation's time by it removes most
    of a shared machine's drift (see README.md, "Noise").
    """

    def __init__(self):
        m = np.random.default_rng(0).normal(size=(8, 8))
        self.cov = m @ m.T + 8.0 * np.eye(8)

    def step(self) -> None:
        for _ in range(20):
            w, v = np.linalg.eigh(self.cov)
            np.linalg.svd(self.cov @ v, compute_uv=False)
            np.linalg.solve(self.cov, v)
            sum(float(x) for x in w)

    def rate(self, seconds: float) -> float:
        """Steps per second over a slice of about ``seconds``."""
        n = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            self.step()
            n += 1
        return n / (time.perf_counter() - t0)
