"""A fixed calibration kernel that tells how fast the host runs right now.

The benchmark's host lends it CPUs whose speed changes by up to 2x, in
phases from a fraction of a second to minutes, while CPU time tracks
wall time.  Wall seconds of the same code therefore spread by up to a
third from run to run.  The benchmark times this kernel between studies and scales
every end-to-end time by REFERENCE_S / (the run's mean kernel time): a
time in seconds at the host speed at which the kernel takes REFERENCE_S.

The kernel is a small implicit Allen-Cahn step written here in numpy and
scipy: a DCT Helmholtz solve and a cubic update on one 32-cell path,
driven from Python (like the single-path engine), then the same on a
batch after mixing a 4 MiB tensor of 16 modes (like the lane engine).
It resembles logac's work, so host phases slow both alike, but it calls
no logac code, so no change to logac changes its time.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

# mean kernel seconds on the 2-vCPU Xeon VM the benchmark was defined on
REFERENCE_S = 0.065

_PATH = np.linspace(0.0, 1.0, 32)
_PATH_DENOM = 1.0 + np.arange(32.0)
_MODES = np.linspace(0.0, 1.0, 16 * 256 * 128).reshape(16, 256, 128)
_WEIGHTS = np.linspace(1.0, 2.0, 16)
_BATCH_DENOM = 1.0 + np.arange(128.0)


def _path_steps(n: int = 1200) -> None:
    v = _PATH.copy()
    for _ in range(n):
        w = scipy.fft.idct(scipy.fft.dct(v, norm="ortho") / _PATH_DENOM, norm="ortho")
        v = w - 0.01 * (w * w * w - w)
        float(np.sqrt(np.dot(v, v)))


def _batch_steps(n: int = 24) -> None:
    for i in range(n):
        mixed = np.einsum("m,mrc->rc", _WEIGHTS, _MODES)
        rhs = scipy.fft.dct(_MODES[i % len(_WEIGHTS)] + mixed, axis=-1, norm="ortho")
        w = scipy.fft.idct(rhs / _BATCH_DENOM, axis=-1, norm="ortho")
        w -= 0.01 * (w * w * w - w)


def kernel_s() -> float:
    """Seconds of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _path_steps()
    _batch_steps()
    return time.perf_counter() - t0
