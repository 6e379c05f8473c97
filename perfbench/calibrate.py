"""A fixed CPU kernel that gauges the machine's current speed.

On a machine whose cores other tenants share, the same work can take up to
30% more or less time from one minute to the next, on the wall clock and
the process CPU clock alike.  Timing this kernel next to every timed operation
lets the benchmark report times scaled to one nominal machine speed.  The
kernel mixes the kinds of work the package does: Python loops over dicts,
NumPy calls on vectors of a few thousand values, and a column-wise argmin
over a 400 x 400 matrix.
"""

from __future__ import annotations

import numpy as np

#: Kernel CPU time at the nominal machine speed; scaled times are reported
#: as if one sample took exactly this long.
NOMINAL_S = 0.1

_VEC = np.random.default_rng(0).random(3000)
_MAT = np.random.default_rng(1).random((400, 400))


def _kernel() -> float:
    d: dict[int, int] = {}
    for i in range(300_000):
        d[i % 997] = d.get(i % 997, 0) + i
    acc = float(len(d))
    for _ in range(150):
        y = np.cumsum(np.log(_VEC + 1.0))
        acc += float(y[np.argmin(y[::-1])])
    for _ in range(15):
        acc += float(np.argmin(_MAT[::-1] + _MAT[:, :1], axis=0).sum())
    return acc


def sample(clock) -> float:
    """Time of one kernel run on ``clock``."""
    t0 = clock()
    _kernel()
    return clock() - t0
