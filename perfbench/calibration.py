"""Machine-speed calibration for the benchmark's timings.

The effective CPU speed of a shared virtual machine can drift by a factor of
two within a minute, and process CPU time drifts with it, so raw wall times
of the same code taken minutes apart disagree far more than the changes the
benchmark must resolve. The worker therefore times this fixed kernel right
before each operation and scales the operation's wall time by
NOMINAL_S / kernel time: the operation's time on a machine where the kernel
takes NOMINAL_S. On recorded runs the kernel timed before an operation
predicted its time better than the one timed after it or the mean of both.

The kernel mixes the three kinds of work an spdcfilm run does:
interpreter-bound Python, numpy calls on 3x3 matrices, and a dense cosine
matrix on a 4,096-point grid. It is benchmark code, so a change to the
package moves the operation's time and not the kernel's.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: kernel time, in seconds, of the machine the scaled timings are expressed for
NOMINAL_S = 0.05

_SMALL = np.eye(3) + 0.1
_GRID = np.linspace(-150.0, 150.0, 4096)
_TAUS = np.linspace(0.0, 400.0, 200)
_WEIGHTS = np.exp(-(_GRID**2) / 2000.0)


def _interpreter():
    acc = 0.0
    for i in range(180000):
        acc += (i % 7) * 0.5
    return acc


def _small_matrices():
    m = _SMALL
    for _ in range(900):
        vals, vecs = np.linalg.eigh(m)
        m = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T + _SMALL
        m = m / np.trace(m)
    return m


def _dense_cosine():
    return np.cos(2e-3 * np.pi * np.outer(_TAUS, _GRID)) @ _WEIGHTS


def kernel_s() -> float:
    """Wall time of one pass of the calibration kernel."""
    start = perf_counter()
    _interpreter()
    _small_matrices()
    _dense_cosine()
    return perf_counter() - start


def scale_s(seconds: float, repeats: int = 3) -> float:
    """``seconds`` expressed at the nominal speed, from fresh kernel timings."""
    return seconds * NOMINAL_S / statistics.median(kernel_s() for _ in range(repeats))
