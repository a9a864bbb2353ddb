"""Machine-speed calibration, independent of the program under test.

The 2-core x86-64 VM this benchmark was built on changes speed by up to 2x
for minutes at a time (other tenants share its cores), on both cores at
once, so raw wall times of identical runs minutes apart spread by 40%. A
fixed kernel that mixes what a detector step does (interpreted Python,
small numpy operations, 200x200 LAPACK Cholesky factorizations) is timed
between steps about every half second; its time relative to ``NOMINAL_S``
is the machine's slowdown at that moment.

End-to-end times are reported at nominal machine speed: measured seconds
times ``NOMINAL_S / kernel seconds``. The raw times and the factors are
printed next to them. ``NOMINAL_S`` is about the kernel's time in a quiet
phase of the reference machine (2-core x86-64 VM, Python 3.11, numpy 2.4,
OpenBLAS 0.3.31, one BLAS thread); it is a fixed unit and never changes
with the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import cholesky

NOMINAL_S = 0.005
REPEATS = 3

_X = np.linspace(0.0, 20.0, 200)
_GRAM = np.exp(-0.5 * (_X[:, None] - _X[None, :]) ** 2) + 0.1 * np.eye(len(_X))
_SERIES = np.sin(np.arange(400.0))


def _kernel() -> float:
    acc = 0.0
    table: dict[int, tuple[float, int]] = {}
    for i in range(600):
        j = i % 50
        window = _SERIES[j:j + 100]
        acc += float(window.mean()) + float(np.sum(window * window))
        table[j] = (acc, i)
        acc += sum(table[k][0] for k in range(j % 5 + 1)) * 1e-9
    for _ in range(6):
        acc += float(cholesky(_GRAM, lower=True)[-1, -1])
    return acc


def kernel_seconds() -> float:
    """Median time of a few runs of the calibration kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_factor(before: float, after: float) -> float:
    """Multiplier from measured to nominal-speed time for a span bracketed
    by two kernel timings."""
    return NOMINAL_S / (0.5 * (before + after))
