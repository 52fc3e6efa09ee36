"""Scalar and field diagnostics that only the tests read.

The library integrates with the slope of the potential alone; the free
energies, the sharp potential and its offset K, the drift operator, the
Gateaux check and the directly evaluated noise profiles live here, where
the checks of the paper's structural claims use them, beside the domain
measure, a report-row lookup and a reference Laplacian.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from logac import experiments as ex
from logac import grid as gr
from logac import potential as pot
from logac.noise import POLY_FLAT, NoiseSpec, _mode_indices


def _beta(r):
    return np.log1p(r) - np.log1p(-r)


def default_offset(c: float) -> float:
    """Smallest K with beta_hat(r) - c r^2 + K >= 0 on (-1, 1), reached where beta(r) = 2 c r > 0."""
    rstar = brentq(lambda r: _beta(r) - 2.0 * c * r, 1e-12, pot._R_HI, xtol=1e-15)
    return float(c * rstar * rstar - pot._beta_hat(rstar))


def beta_family_eval(r):
    """Return (beta, beta', beta_hat) at r, |r| < 1 strictly."""
    r = pot._check_open_interval(r, "beta_family_eval")
    beta = _beta(r)
    beta_prime = 2.0 / ((1.0 - r) * (1.0 + r))
    return beta, beta_prime, pot._beta_hat(r)


def potential_eval(params: pot.PotentialParams, r):
    """Return (F, F', F'') at r, |r| < 1 strictly, with F = beta_hat - c r^2 + K."""
    beta, beta_prime, beta_hat = beta_family_eval(r)
    r = np.asarray(r, dtype=float)
    F = beta_hat - params.c * r * r + default_offset(params.c)
    F1 = beta - 2.0 * params.c * r
    F2 = beta_prime - 2.0 * params.c
    return F, F1, F2


def regularized_potential_eval(params: pot.PotentialParams, lam, r):
    """Return (F_lam, F_lam', F_lam'') at r, defined on all of R."""
    r = np.asarray(r, dtype=float)
    beta_l, beta_l_prime, beta_hat_l = pot.yosida_eval(lam, r)
    Fl = default_offset(params.c) + beta_hat_l - params.c * r * r
    Fl1 = beta_l - 2.0 * params.c * r
    Fl2 = beta_l_prime - 2.0 * params.c
    return Fl, Fl1, Fl2


def measure(grid: gr.Grid) -> float:
    """|D|, the product of the grid's extents."""
    v = 1.0
    for L in grid.extent:
        v *= L
    return v


def laplacian_face_flux(grid: gr.Grid, u):
    """Reference for gr.laplacian_neumann: each axis's face fluxes added into and subtracted from zero fields."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for ax in range(grid.dim):
        a = u.ndim - grid.dim + ax
        h = grid.spacing[ax]
        n = grid.cells[ax]
        flux = np.diff(u, axis=a) / h
        term = np.zeros_like(u)
        term[gr._axis_slice(u.ndim, a, slice(0, n - 1))] += flux
        term[gr._axis_slice(u.ndim, a, slice(1, n))] -= flux
        out += term / h
    return out


def grad_norm_sq_diff(grid: gr.Grid, u):
    """Reference for gr.grad_norm_sq: each axis's np.diff face differences, squared and summed."""
    u = np.asarray(u, dtype=float)
    total = 0.0
    for ax in range(grid.dim):
        g = np.diff(u, axis=u.ndim - grid.dim + ax) / grid.spacing[ax]
        total = total + np.sum(g * g, axis=tuple(range(u.ndim - grid.dim, u.ndim))) * grid.cell_volume
    return total


def report_row(report: ex.EstimateReport, quantity: str, lam: float) -> ex.ReportRow:
    """The row of report for (quantity, lam); a NaN lam matches the level-free rows."""
    for r in report.rows:
        if r.quantity == quantity and (r.lam == lam or (math.isnan(r.lam) and math.isnan(lam))):
            return r
    raise KeyError(f"no row ({quantity!r}, {lam})")


def energy(grid: gr.Grid, params: pot.PotentialParams | None, lam: float | None, u):
    """Free energy 1/2 ||grad u||^2 + integral of the (regularized) potential.

    lam=None evaluates the sharp potential, which requires ||u||_inf < 1;
    a given level substitutes the Yosida regularization, which never
    exceeds the sharp energy on (-1, 1).
    """
    u = gr._check_field(grid, u)
    gsq = gr.grad_norm_sq(grid, u)
    if params is None:
        return 0.5 * gsq
    if lam is None:
        if np.any(gr.sup_norm(grid, u) >= 1.0):
            raise ValueError("sharp logarithmic energy requires ||u||_inf < 1; pass a Yosida level instead")
        F, _, _ = potential_eval(params, u)
    else:
        F, _, _ = regularized_potential_eval(params, lam, u)
    return 0.5 * gsq + np.sum(F, axis=gr._grid_axes(grid, u)) * grid.cell_volume


def drift_apply(grid: gr.Grid, params: pot.PotentialParams, lam: float, u, g_force=None):
    """A_lam(u) = -lap(u) + beta_lam(u) - 2c u - g, pointwise on the mesh."""
    u = gr._check_field(grid, u)
    beta_l, _, _ = pot.yosida_eval(lam, u)
    out = -gr.laplacian_neumann(grid, u) + beta_l - 2.0 * params.c * u
    if g_force is not None:
        out = out - gr._check_field(grid, g_force)
    return out


def gateaux_check(
    g: gr.Grid,
    params: pot.PotentialParams,
    lam: float,
    u,
    h_dir,
    k_dir,
    eps: float | None = None,
) -> tuple[float, float]:
    """Central-difference errors of the first and second derivatives of
    Phi_lam(u) = integral of F_lam(u).

    Both errors shrink like O(eps^2); the default eps is 1e-5*(1+||u||_inf).
    """
    u = np.asarray(u, dtype=float)
    h_dir = np.asarray(h_dir, dtype=float)
    k_dir = np.asarray(k_dir, dtype=float)
    if eps is None:
        eps = 1e-5 * (1.0 + float(np.max(np.abs(u))))

    def phi(w):
        Fl, _, _ = regularized_potential_eval(params, lam, w)
        return float(np.sum(Fl)) * g.cell_volume

    def dphi(w, d):
        _, Fl1, _ = regularized_potential_eval(params, lam, w)
        return float(gr.h_inner(g, Fl1, d))

    d1_fd = (phi(u + eps * h_dir) - phi(u - eps * h_dir)) / (2.0 * eps)
    d1_err = abs(d1_fd - dphi(u, h_dir))

    d2_fd = (dphi(u + eps * k_dir, h_dir) - dphi(u - eps * k_dir, h_dir)) / (2.0 * eps)
    _, _, Fl2 = regularized_potential_eval(params, lam, u)
    d2_exact = float(np.sum(Fl2 * h_dir * k_dir)) * g.cell_volume
    d2_err = abs(d2_fd - d2_exact)
    return d1_err, d2_err


def _sinpi(y):
    # sin(pi*y) with exact zeros at integer y
    y = np.asarray(y, dtype=float)
    n = np.round(y)
    s = np.sin(np.pi * (y - n))
    return np.where(n.astype(np.int64) % 2 == 0, s, -s)


def mode_values(spec: NoiseSpec, v):
    """h_k(v) for k = 1..modes, stacked on a new leading axis."""
    v = np.asarray(v, dtype=float)
    k = _mode_indices(spec, v.ndim)
    h = spec.amplitude * k ** (-spec.decay_exponent) * _sinpi(k * (1.0 + v) / 2.0)
    if spec.family == POLY_FLAT:
        h = h * (1.0 - v * v) ** spec.flatness
    return h
