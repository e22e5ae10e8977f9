"""How fast the host runs right now, from a fixed reference kernel.

On a shared virtual machine the same operation can take 1.7 s one minute and
3 s the next, in CPU time as much as in wall time, because neighbours on the
physical host slow every virtual CPU. A run can only average over the minutes
it lasts, so two runs of the same code disagree by as much as the host
drifts between them.

The benchmark therefore times this kernel right before and right after every
measured step, in the same process, and scales the step's time by
``REFERENCE_S / kernel time``. A scaled figure reads as host seconds on a
host where the kernel takes ``REFERENCE_S``: a slower program still reads
proportionally slower, while a slower host no longer does. The kernel is the
benchmark's own code, mixing what fedsim spends its time on (the Python
interpreter and small NumPy operations), and no change to fedsim can alter
it. It allocates no container objects and runs with the cyclic garbage
collector paused, so the objects an operation leaves behind cannot slow it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# The kernel's median time on a shared 2-vCPU Xeon virtual machine (Python
# 3.11, NumPy 2.4, one BLAS thread). It only sets the scale of the figures.
REFERENCE_S = 0.040


class Reference:
    """The reference kernel's fixed inputs; ``time()`` runs it once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((16, 64))
        self.w = rng.standard_normal((64, 10))

    def _python(self) -> int:
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    def _numpy(self) -> np.ndarray:
        w = self.w
        for _ in range(2000):
            w = self.w - 1e-3 * (self.x.T @ (self.x @ w))
        return w

    def time(self) -> float:
        """Seconds for one pass of the kernel."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._python()
            self._numpy()
            return time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()


def factor(before: float, after: float) -> float:
    """Scale for a step bracketed by kernel times ``before`` and ``after``."""
    return REFERENCE_S / ((before + after) / 2)
