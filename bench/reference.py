"""A fixed reference kernel that cancels machine-speed drift from item times.

On a shared 2-core box the same computation runs up to twice as slow for
seconds at a time.  The runner times this kernel before and after every
item and scales the item's wall time by ``NOMINAL_S`` over the mean of the
two readings, which gives the item's time at the speed where the kernel
takes ``NOMINAL_S``.  The kernel mixes what the program's hot paths do (a
Givens-product basis built in Python, small complex einsums, batched
``eigvalsh``, entropies) and calls no ``discordkit`` code, so no change to
the program moves it.
"""

import math
import time

import numpy as np

# Bound at import, before a traced run rebinds numpy.linalg.eigvalsh.
_eigvalsh = np.linalg.eigvalsh

# The kernel's median time on the 2-core x86 box of the recorded baseline.
NOMINAL_S = 0.018

_g = np.random.default_rng(0)
_T = _g.normal(size=(3, 4, 3, 4)) + 1j * _g.normal(size=(3, 4, 3, 4))


def _givens(d: int, params) -> np.ndarray:
    n = d * (d - 1) // 2
    u = np.eye(d, dtype=complex)
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            c, s = math.cos(params[k]), math.sin(params[k])
            ph = complex(math.cos(params[n + k]), math.sin(params[n + k]))
            ci, cj = u[:, i].copy(), u[:, j].copy()
            u[:, i] = c * ci + ph.conjugate() * s * cj
            u[:, j] = -ph * s * ci + c * cj
            k += 1
    return u


def kernel_s() -> float:
    """Run the kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        b = _givens(3, np.full(6, 0.01 * i))
        blocks = np.einsum("krbs,bk->krs", np.tensordot(b.conj().T, _T, axes=([1], [0])), b)
        w = np.clip(_eigvalsh(blocks), 1e-12, None)
        acc += math.fsum(float(x) for x in (w * np.log2(w)).sum(axis=1))
    return time.perf_counter() - t0
