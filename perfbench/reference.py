"""A fixed reference kernel that measures how fast the host runs now.

The benchmark runs on a few vCPUs of a shared machine.  Their speed
drifts by up to a quarter over tens of seconds to minutes as the load
of other tenants changes, and process CPU time drifts with wall time,
so neither clock hides it.  After every untraced pass (and once before
the first) the worker runs this kernel for a quarter of the pass's
time, and rescales the pass's times by the kernel's mean time in the
samples just before and just after the pass:

    rescaled pass time = pass seconds * REFERENCE_S / kernel seconds

so drift that slows the kernel and crossdiff alike cancels, while a
change to crossdiff leaves the kernel alone.  The end-to-end metrics
are medians of the rescaled passes.  The kernel imports nothing from
crossdiff.  It mixes the three kinds of work crossdiff spends its time
on: interpreted Python, many small numpy calls (a stack of 2x2 SVDs
and elementwise arithmetic) and a sparse LU solve.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

# Median kernel seconds on the machine the benchmark was tuned on
# (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1, OpenBLAS with 1 thread).  Only its ratio to the
# measured median matters; it keeps rescaled times near real seconds.
REFERENCE_S = 0.12


# Kernel seconds run after a pass, as a share of the pass's seconds.
SHARE = 0.25


class Reference:
    """The kernel and its inputs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = rng.random((1024, 2, 2))
        self.vec = rng.random(4096)
        n = 48
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self.lap = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))
                    + sp.eye(n * n)).tocsc()
        self.rhs = rng.random(n * n)

    def sample(self, pass_s):
        """Run the kernel for about SHARE * pass_s seconds, at least
        once; returns its mean seconds per run."""
        runs, total = 0, 0.0
        while runs == 0 or total < SHARE * pass_s:
            total += self.run()
            runs += 1
        return total / runs

    def run(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(1_000_000):
            s += i * i
        x = self.vec
        for _ in range(33):
            np.linalg.svd(self.mats, compute_uv=False)
            (np.sqrt(x * x + 1.0) - x).sum()
        for _ in range(5):
            sla.spsolve(self.lap, self.rhs)
        return time.perf_counter() - t0
