"""Cell-centered rectangular meshes with homogeneous Neumann boundaries.

Fields are plain float64 numpy arrays whose trailing `dim` axes are the
grid axes; any leading axes are batch dimensions (replicates, coupled
levels) and every operation here broadcasts over them.  Ghost cells
mirror the adjacent interior value, which makes the discrete Laplacian
symmetric, negative semidefinite, and exactly summation-by-parts
compatible with the face-based gradient used in the norms.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_MAGIC = b"ACF1"


@dataclass(frozen=True)
class Grid:
    extent: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.extent) != len(self.cells):
            raise ValueError("extent and cells must have the same length")
        if len(self.cells) not in (1, 2):
            raise ValueError(f"only 1-D and 2-D grids are supported, got dim {len(self.cells)}")
        if not all(0.0 < L < np.inf for L in self.extent):  # a NaN extent fails too
            raise ValueError(f"grid extent must be positive and finite, got {self.extent}")
        if any(n < 2 for n in self.cells):
            raise ValueError(f"grid needs at least 2 cells per axis, got {self.cells}")

    # the geometry is computed once per grid; the solvers read it every step
    @cached_property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extent, self.cells))

    @cached_property
    def cell_volume(self) -> float:
        v = 1.0
        for h in self.spacing:
            v *= h
        return v

    def cell_centers(self, axis: int = 0) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h


def _check_field(grid: Grid, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[u.ndim - grid.dim :] != grid.cells:
        raise ValueError(f"field shape {u.shape} does not end with grid shape {grid.shape}")
    return u


def _axis_slice(ndim, axis, s):
    idx = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


@lru_cache(maxsize=32)
def _face_slices(ndim: int, dim: int) -> tuple:
    """Per grid axis of an ndim-array, the index tuples (lo, hi, last) of its cells."""
    return tuple(
        (_axis_slice(ndim, a, slice(None, -1)), _axis_slice(ndim, a, slice(1, None)), _axis_slice(ndim, a, -1))
        for a in range(ndim - dim, ndim)
    )


def laplacian_neumann(grid: Grid, u) -> np.ndarray:
    """Second-order mirror-ghost Laplacian, assembled from face fluxes.

    Boundary fluxes are identically zero, so the discrete integral of the
    output telescopes to round-off.  Adding from 0.0 leaves no -0.0 in it.
    """
    u = _check_field(grid, u)
    out = 0.0
    for (lo, hi, last), h in zip(_face_slices(u.ndim, grid.dim), grid.spacing):
        flux = u[hi] - u[lo]
        flux /= h
        term = np.empty(u.shape)
        term[lo] = flux
        term[last] = 0.0
        term[hi] -= flux
        term /= h
        term += out
        out = term
    return out


def _grid_axes(grid: Grid, u) -> tuple[int, ...]:
    return tuple(range(u.ndim - grid.dim, u.ndim))


def h_norm_sq(grid: Grid, u):
    u = _check_field(grid, u)
    return np.sum(u * u, axis=_grid_axes(grid, u)) * grid.cell_volume


def h_inner(grid: Grid, u, v):
    u = _check_field(grid, u)
    v = _check_field(grid, v)
    return np.sum(u * v, axis=_grid_axes(grid, np.broadcast_arrays(u, v)[0])) * grid.cell_volume


def grad_norm_sq(grid: Grid, u):
    """Sum of squared face differences over h, the same faces laplacian_neumann takes its fluxes on."""
    u = _check_field(grid, u)
    axes = _grid_axes(grid, u)
    total = 0.0
    for (lo, hi, _), h in zip(_face_slices(u.ndim, grid.dim), grid.spacing):
        g = (u[hi] - u[lo]) / h
        total = total + np.sum(g * g, axis=axes) * grid.cell_volume
    return total


def sup_norm(grid: Grid, u):
    u = _check_field(grid, u)
    return np.max(np.abs(u), axis=_grid_axes(grid, u))


def norms(grid: Grid, u):
    """(||u||_H^2, ||grad u||_H^2, ||u||_inf); the V-norm square is their sum of the first two."""
    return h_norm_sq(grid, u), grad_norm_sq(grid, u), sup_norm(grid, u)


@lru_cache(maxsize=32)
def _helmholtz_denominator(cells: tuple, spacing: tuple, alpha: float):
    denom = np.zeros(cells)
    for ax, (n, h) in enumerate(zip(cells, spacing)):
        eig = 4.0 / h**2 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
        shape = [1] * len(cells)
        shape[ax] = n
        denom = denom + eig.reshape(shape)
    return 1.0 + alpha * denom


def helmholtz_solve(grid: Grid, f, alpha: float) -> np.ndarray:
    """(I - alpha * lap)^(-1) f via the DCT-II eigenbasis of the mirror-ghost Laplacian."""
    import scipy.fft  # local: only the 2-d preconditioner and the V* norm come here, so 1-d runs never load it

    f = _check_field(grid, f)
    axes = _grid_axes(grid, f)
    denom = _helmholtz_denominator(grid.cells, grid.spacing, float(alpha))
    fh = scipy.fft.dctn(f, type=2, norm="ortho", axes=axes)
    return scipy.fft.idctn(fh / denom, type=2, norm="ortho", axes=axes)


def vstar_norm_sq(grid: Grid, f):
    """Discrete dual-space norm ||f||^2_{V*} = <f, (I - lap)^(-1) f>_H."""
    return h_inner(grid, f, helmholtz_solve(grid, f, 1.0))


def save_field(path, grid: Grid, u) -> None:
    """Write one field snapshot: 32-byte header then row-major little-endian float64."""
    u = _check_field(grid, u)
    if u.shape != grid.shape:
        raise ValueError("snapshots hold a single field, not a batch")
    n1 = grid.cells[0]
    n2 = grid.cells[1] if grid.dim == 2 else 0
    h1 = grid.spacing[0]
    h2 = grid.spacing[1] if grid.dim == 2 else 0.0
    header = struct.pack("<4sIIIdd", _MAGIC, grid.dim, n1, n2, h1, h2)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())


def load_field(path) -> tuple[Grid, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32:
            raise ValueError(f"truncated snapshot header in {path}")
        magic, dim, n1, n2, h1, h2 = struct.unpack("<4sIIIdd", header)
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a field snapshot (bad magic {magic!r})")
        if dim == 1:
            cells, extent = (n1,), (n1 * h1,)
        elif dim == 2:
            cells, extent = (n1, n2), (n1 * h1, n2 * h2)
        else:
            raise ValueError(f"unsupported snapshot dimension {dim}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    g = Grid(extent=extent, cells=cells)
    if data.size != np.prod(g.shape):
        raise ValueError(f"snapshot payload has {data.size} values, expected {np.prod(g.shape)}")
    return g, data.reshape(g.shape).astype(float)
