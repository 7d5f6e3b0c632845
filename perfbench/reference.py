"""The reference kernel that measures how fast the host runs at the moment.

On a shared host the same code runs up to half again as slow at one time as
at another, and the slow spells last from seconds to tens of minutes.  The
benchmark therefore runs this fixed kernel before every verdict call and
reports the program's time per pass in units of the kernel's mean time over
the same run: both see the same host, so the ratio keeps the program's speed
and drops the host's.

The kernel uses numpy and scipy directly and nothing from flowlab, so no
change to flowlab can move it; it is built from the operations flowlab's
time goes to (a ``DOP853`` ``solve_ivp`` with a Python right-hand side, and
SVDs of small matrices), so contention slows it as it slows flowlab.
"""

import numpy as np
from scipy.integrate import solve_ivp

_MATRICES = np.random.default_rng(0).standard_normal((192, 3, 3))
_Y0 = np.array([1.0, 1.0, 1.0])


def _lorenz(t, y):
    x, v, z = y
    return np.array([10.0 * (v - x), x * (28.0 - z) - v, x * v - 8.0 / 3.0 * z])


def kernel():
    """About 10 ms of integrator and small-SVD work, the same on every call."""
    solve_ivp(_lorenz, (0.0, 3.0), _Y0, method="DOP853", rtol=1e-9, atol=1e-11)
    for m in _MATRICES:
        np.linalg.svd(m)
