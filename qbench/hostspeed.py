"""Host-speed probe: how fast this host runs fixed reference work right now.

On a shared host the speed one process gets changes by up to a factor of
two, switching every few tens of milliseconds as neighbours come and go.
The benchmark therefore runs this probe between its calls and expresses
every timing in reference-host seconds: a wall time divided by the host's
slowdown factor around it.

The probe is three small fixed kernels, one per kind of work qcalc does:
an interpreter loop (the Python of the kernel cascade and the quaternion
layer), numpy calls on small arrays (per-call overhead of the stacked
contractions) and 48 x 48 matrix products and inverses (BLAS and LAPACK).
Each kernel's time is divided by its time on the reference host
(NOMINAL_S), and the factor is the mean of the three ratios.  One probe
takes about half a millisecond on the reference host and touches about
0.2 MB, so it neither raises the peak resident memory of the process nor
evicts much of qcalc's working set.  It uses no qcalc code, so a change to
qcalc cannot move the factor.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds of each kernel on the reference host (a 2-core
# Xeon VM in its fast state, numpy 2.4 with one OpenBLAS thread).  They fix
# the unit of every reported time and must not change once baselines exist.
NOMINAL_S = {"python": 1.1e-4, "numpy": 0.9e-4, "blas": 3.5e-4}


class Probe:
    """The three reference kernels on fixed data."""

    def __init__(self):
        rng = np.random.default_rng(20231204)
        self._a = rng.normal(size=(48, 48))
        self._shift = self._a + 10.0 * np.eye(48)
        self._stack = rng.normal(size=(20, 4, 16, 16))
        # bound now, so that a layer trace installed later (it wraps
        # numpy.linalg.inv) neither times nor slows the probe
        self._inv = np.linalg.inv

    @staticmethod
    def _python():
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        return acc

    def _numpy(self):
        for _ in range(8):
            np.einsum("mcij->cij", self._stack)
            (self._a + 1.0) * 2.0

    def _blas(self):
        for _ in range(5):
            self._a @ self._a
            self._inv(self._shift)

    def times(self) -> dict:
        """Wall time of each kernel, in seconds."""
        clock = time.perf_counter
        out = {}
        for name, kernel in (("python", self._python), ("numpy", self._numpy),
                             ("blas", self._blas)):
            start = clock()
            kernel()
            out[name] = clock() - start
        return out

    def factor(self) -> float:
        """Current slowdown against the reference host (1.0 = as fast; 2.0
        = everything takes twice as long)."""
        t = self.times()
        return sum(t[k] / NOMINAL_S[k] for k in NOMINAL_S) / len(NOMINAL_S)
