"""Host-speed reference: a fixed workload that shares no code with athena.

On a shared host the speed given to one process can swing by up to 2x
over tens of seconds (seen on a 2-vCPU Xeon virtual machine, where raw
simulation rates of one workload ranged 115-240/s). Timing this kernel
between passes tracks that speed, so a rate measured in a pass can be
rescaled to a host on which the kernel takes REF_S seconds. The kernel
mixes the three kinds of work athena's layers do: small numpy calls in a
Python loop (the chasing_cars recurrence), scalar Python arithmetic (the
at_lite loop) and long-array filters and interpolation (stl, signals).
"""

import time

import numpy as np
from scipy.ndimage import minimum_filter1d

REF_S = 0.020

_rng = np.random.default_rng(0)
_P = _rng.normal(size=(10, 10)) * 0.1
_F = _rng.normal(size=(4600, 10))
_LONG = _rng.normal(size=12001)
_X = np.linspace(0.0, 1.0, 12001)
_XP = np.linspace(0.0, 1.0, 9)


def reference_seconds() -> float:
    """Wall time of one run of the fixed kernel (about 20 ms when idle)."""
    start = time.perf_counter()
    x = np.zeros(10)
    for row in _F:
        x = _P @ x + row
    s = 0.0
    for i in range(40000):
        s = s * 0.5 + (i % 7) - (1.0 if s > 3.0 else 0.0)
    for _ in range(40):
        minimum_filter1d(_LONG, 101)
        np.interp(_X, _XP, _LONG[:9])
    return time.perf_counter() - start
