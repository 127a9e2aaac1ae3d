"""Speed probes: short fixed kernels, independent of varreg, timed between blocks.

The host's speed swings with its other tenants' load, by different factors
for interpreter-bound and for BLAS-bound code.  A probe that mimics a
workload's hot path, timed just before and just after each block, measures
how fast the machine ran for that kind of code at that moment; a block's time
divided by the mean of its two probes, times the probe's time on a quiet
reference machine, is the block's time at reference speed.  The probes never
call varreg, so a change to the library moves the workload's time and not
the probe's.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.sparse as sp


class Probe:
    """A fixed kernel and its duration on a quiet reference machine."""

    # seconds per call on the reference machine (2-vCPU Xeon VM, numpy 2.4.6,
    # scipy-openblas 0.3.31, one BLAS thread), lower decile of 300 calls
    REFERENCE = {"python": 0.00092, "prox": 0.0076}

    def __init__(self, kind: str):
        rng = np.random.default_rng(20211207)
        self.reference = self.REFERENCE[kind]
        if kind == "python":
            # the interpreter-bound path of small solves: validate, apply,
            # adjoint, normalise, as in a power iteration on a tiny operator
            self.a = rng.standard_normal((24, 16))
            self._kernel = self._python
        elif kind == "prox":
            # the primal-dual TV iteration at 24^2: box clip, edge map, and a
            # Cholesky solve with a dense 576 x 576 factor (2.65 MB)
            n, m = 576, 400
            rows = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.05)
            self.factor = scipy.linalg.cho_factor(np.eye(n) + 0.1 * (rows.T @ rows))
            self.d = sp.random(1104, n, density=0.004, random_state=1, format="csr")
            self.dt = self.d.T.tocsr()
            self._kernel = self._prox
        else:
            raise ValueError(f"unknown probe {kind!r}")

    def _python(self):
        x = np.ones(self.a.shape[1])
        for _ in range(100):
            v = np.asarray(x, dtype=float)
            if not np.all(np.isfinite(v)):
                raise ArithmeticError("probe diverged")
            z = self.a.T @ (self.a @ v)
            x = z / float(np.linalg.norm(z))

    def _prox(self):
        u = np.zeros(self.dt.shape[0])
        q = np.zeros(self.d.shape[0])
        for _ in range(16):
            q = np.clip(q + 0.1 * (self.d @ u), -1.0, 1.0)
            u = scipy.linalg.cho_solve(self.factor, u - 0.1 * (self.dt @ q) + 1.0)

    def __call__(self) -> float:
        """Run the kernel once; return its seconds."""
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0
