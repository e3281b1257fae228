"""Thin wrapper over scipy.fft with a process-wide worker count.

All transforms in the package go through these helpers so a single
``set_workers`` call (CLI flag ``--threads``) controls parallelism.  The
default of one worker keeps runs bitwise deterministic.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _sfft

_WORKERS = 1


def set_workers(n: int) -> None:
    global _WORKERS
    if n < 1:
        raise ValueError("worker count must be >= 1")
    _WORKERS = int(n)


def get_workers() -> int:
    return _WORKERS


def rfftn(a: np.ndarray) -> np.ndarray:
    return _sfft.rfftn(a, workers=_WORKERS)


def irfftn(a: np.ndarray, shape) -> np.ndarray:
    return _sfft.irfftn(a, s=shape, workers=_WORKERS)


def rfft(a: np.ndarray, n: int, axis: int) -> np.ndarray:
    return _sfft.rfft(a, n=n, axis=axis, workers=_WORKERS)


def irfft(a: np.ndarray, n: int, axis: int) -> np.ndarray:
    return _sfft.irfft(a, n=n, axis=axis, workers=_WORKERS)


# the complex transforms only ever see intermediate spectra, so they may
# reuse their input's memory
def fft(a: np.ndarray, n: int, axis: int) -> np.ndarray:
    return _sfft.fft(a, n=n, axis=axis, overwrite_x=True, workers=_WORKERS)


def ifft(a: np.ndarray, axis: int) -> np.ndarray:
    return _sfft.ifft(a, axis=axis, overwrite_x=True, workers=_WORKERS)
