"""Initial-datum and forcing generators.

The initial datum comes as a batch over replicates, the forcing as one
plain field on the grid.  The random Fourier datum draws its coefficients
from a dedicated counter stream keyed by (seed, replicate), so replicates
are independent while coupled runs across regularization levels see the
same datum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import noise as nz

U0_KINDS = ("constant", "cosine", "smooth_bump", "random_fourier")
G_KINDS = ("zero", "constant", "file")


@dataclass(frozen=True)
class U0Spec:
    kind: str
    m0: float = 0.0  # constant
    amplitude: float = 0.5  # cosine / smooth_bump / random_fourier scale
    mode: int = 1  # cosine
    width: float = 0.2  # smooth_bump, relative to each extent
    modes: int = 4  # random_fourier
    clamp: float = 0.05  # random_fourier distance kept from +-1

    def __post_init__(self):
        if self.kind not in U0_KINDS:
            raise ValueError(f"u0 kind must be one of {U0_KINDS}, got {self.kind!r}")
        if self.kind == "constant" and not abs(self.m0) < 1.0:
            raise ValueError(f"u0 constant m0 must satisfy |m0| < 1, got {self.m0}")
        if self.kind in ("cosine", "smooth_bump") and not abs(self.amplitude) < 1.0:
            raise ValueError(f"u0 amplitude must satisfy |amplitude| < 1, got {self.amplitude}")
        if self.kind == "cosine" and self.mode < 1:
            raise ValueError(f"u0 cosine mode must be >= 1, got {self.mode}")
        if self.kind == "smooth_bump" and not self.width > 0.0:
            raise ValueError(f"u0 smooth_bump width must be positive, got {self.width}")
        if self.kind == "random_fourier":
            if self.modes < 1:
                raise ValueError(f"u0 random_fourier modes must be >= 1, got {self.modes}")
            if not 0.0 < self.clamp < 1.0:
                raise ValueError(f"u0 random_fourier clamp must lie in (0, 1), got {self.clamp}")


@dataclass(frozen=True)
class GSpec:
    kind: str
    value: float = 0.0
    path: str = ""

    def __post_init__(self):
        if self.kind not in G_KINDS:
            raise ValueError(f"g kind must be one of {G_KINDS}, got {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ValueError("g kind 'file' needs a path")


def _separable(g: gr.Grid, profile) -> np.ndarray:
    """The product over the axes of profile(x, L), x the axis' cell centres and L its extent."""
    field = np.ones(g.shape)
    for ax in range(g.dim):
        shape = [1] * g.dim
        shape[ax] = g.cells[ax]
        field = field * profile(g.cell_centers(ax), g.extent[ax]).reshape(shape)
    return field


def _cosine_product(g: gr.Grid, mode: int) -> np.ndarray:
    return _separable(g, lambda x, L: np.cos(mode * np.pi * x / L))


def make_u0_batch(spec: U0Spec, g: gr.Grid, seed: int, replicates: int) -> np.ndarray:
    """The initial datum of replicates 0..replicates-1, shape (replicates, *grid shape)."""
    if spec.kind == "random_fourier":
        # decaying cosine series with normal coefficients, one stream per replicate
        z = nz.counter_normals(seed, nz.CTR_INITIAL_DATUM, 0, np.arange(replicates), spec.modes)
        z = z.reshape((replicates,) + (1,) * g.dim + (spec.modes,))
        field = np.zeros((replicates,) + g.shape)
        for k in range(1, spec.modes + 1):
            field += spec.amplitude * k**-2.0 * z[..., k - 1] * _cosine_product(g, k)
        return np.clip(field, -1.0 + spec.clamp, 1.0 - spec.clamp)
    if spec.kind == "constant":
        field = np.full(g.shape, spec.m0)
    elif spec.kind == "cosine":
        field = spec.amplitude * _cosine_product(g, spec.mode)
    else:  # smooth_bump
        field = spec.amplitude * _separable(g, lambda x, L: np.exp(-0.5 * ((x - 0.5 * L) / (spec.width * L)) ** 2))
    # the other kinds are one field, the same for every replicate
    return np.repeat(field[None], replicates, axis=0)


def make_g(spec: GSpec, g: gr.Grid) -> np.ndarray:
    """Time-constant forcing field on the grid; the zero kind gives a zero field."""
    if spec.kind == "zero":
        return np.zeros(g.shape)
    if spec.kind == "constant":
        return np.full(g.shape, spec.value)
    loaded_grid, field = gr.load_field(spec.path)
    if loaded_grid.cells != g.cells or any(
        abs(a - b) > 1e-12 * max(abs(a), 1.0) for a, b in zip(loaded_grid.extent, g.extent)
    ):
        raise ValueError(f"forcing snapshot {spec.path} was written for grid {loaded_grid}, run uses {g}")
    if not np.all(np.isfinite(field)):
        raise ValueError(f"forcing snapshot {spec.path} holds non-finite values")
    return field
