"""Semi-implicit Euler-Maruyama integration of the regularized dynamics.

One step solves

    w - dt*lap(w) + dt*beta_lam(w) = u + dt*(2c*u + g) + B_lam(u) dW,

keeping the maximal monotone pieces (Laplacian and beta_lam) implicit and
the concave part -2c*u, the forcing, and the Ito noise explicit.  The
implicit operator is strictly monotone for every dt and lam, so the step
is unconditionally solvable; the convex/concave split also makes the
deterministic scheme dissipate the regularized free energy for any dt.

The nonlinear solve is a damped Newton iteration whose SPD Jacobian
systems go to conjugate gradients preconditioned by the exact heat
operator (I - dt*lap)^(-1), applied spectrally.

Fields may carry leading batch axes (replicates, coupled lanes) and
everything here broadcasts over them.  This module holds one step; the
time loop, the noise draws and the path statistics live in
experiments._run_lanes, the package's only integration engine.  The
weak-form and Gateaux diagnostics check the scheme and the potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import noise as nz
from . import potential as pot

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    outer_newton_tol: float = 1e-10
    outer_newton_max: int = 50
    linear_tol: float = 1e-11
    linear_max: int = 500

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.t_end > 0.0 and self.dt > self.t_end * (1.0 + 1e-12):
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if not (self.outer_newton_tol > 0.0 and self.linear_tol > 0.0):
            raise ValueError("solver tolerances must be positive")

    @property
    def n_steps(self) -> int:
        if self.t_end == 0.0:
            return 0
        return int(math.ceil(self.t_end / self.dt - 1e-12))


def _expand(a, ndim: int):
    # append singleton field axes so per-batch scalars broadcast over the mesh
    return np.asarray(a)[(...,) + (None,) * ndim]


def _batch_max_abs(u, dim: int):
    return np.max(np.abs(u), axis=tuple(range(u.ndim - dim, u.ndim)))


def _batch_sum(u, dim: int):
    return np.sum(u, axis=tuple(range(u.ndim - dim, u.ndim)))


def _pcg(g: gr.Grid, dt: float, diag, b, cfg: StepperConfig):
    """CG on (I - dt*lap + dt*diag) x = b with an exact heat preconditioner."""
    dim = g.dim

    def matvec(p):
        out = p - dt * gr.laplacian_neumann(g, p)
        if diag is not None:
            out = out + dt * diag * p
        return out

    x = np.zeros_like(b)
    r = b.copy()
    tol = np.maximum(cfg.linear_tol * np.sqrt(_batch_sum(b * b, dim)), _TINY)
    z = gr.helmholtz_solve(g, r, dt)
    p = z.copy()
    rz = _batch_sum(r * z, dim)
    for _ in range(cfg.linear_max):
        active = np.sqrt(_batch_sum(r * r, dim)) > tol
        if not np.any(active):
            return x
        Ap = matvec(p)
        pAp = _batch_sum(p * Ap, dim)
        alpha = _expand(np.where(active, rz / np.maximum(pAp, _TINY), 0.0), dim)
        x = x + alpha * p
        r = r - alpha * Ap
        z = gr.helmholtz_solve(g, r, dt)
        rz_new = _batch_sum(r * z, dim)
        beta = _expand(np.where(active, rz_new / np.maximum(rz, _TINY), 0.0), dim)
        p = z + beta * p
        rz = rz_new
    raise RuntimeError(f"inner linear solve stagnated after {cfg.linear_max} iterations")


def _monotone_solve(g: gr.Grid, lam, rhs, dt: float, cfg: StepperConfig, w0=None):
    """Solve w - dt*lap(w) + dt*beta_lam(w) = rhs; lam=None drops the beta term.

    lam may be a scalar or an array broadcastable against the batch axes.
    Returns (w, beta_lam(w)) so callers can reuse the final evaluation.
    """
    dim = g.dim
    w = rhs.copy() if w0 is None else np.array(w0, dtype=float, copy=True)

    def residual(w_):
        if lam is None:
            bl, blp = None, None
        else:
            bl, blp = pot.yosida_pair(lam, w_)
        F = w_ - dt * gr.laplacian_neumann(g, w_)
        if bl is not None:
            F = F + dt * bl
        return F - rhs, bl, blp

    F, bl, blp = residual(w)
    res = _batch_max_abs(F, dim)
    for _ in range(cfg.outer_newton_max):
        if np.all(res <= cfg.outer_newton_tol):
            if bl is None:
                bl = np.zeros_like(w)
            return w, bl
        delta = _pcg(g, dt, blp if lam is not None else None, F, cfg)
        damp = np.ones_like(res)
        for _bt in range(12):
            w_try = w - _expand(damp, dim) * delta
            F_try, bl_try, blp_try = residual(w_try)
            res_try = _batch_max_abs(F_try, dim)
            bad = (res_try > res) & (res_try > cfg.outer_newton_tol)
            if not np.any(bad):
                break
            damp = np.where(bad, 0.5 * damp, damp)
        else:
            raise RuntimeError(
                f"implicit step failed: backtracking exhausted, 12 dampings all raise residual {float(np.max(res)):.3e}"
            )
        w, F, bl, blp, res = w_try, F_try, bl_try, blp_try, res_try
    raise RuntimeError(
        f"implicit step failed: residual {float(np.max(res)):.3e} after {cfg.outer_newton_max} Newton iterations"
    )


def step(g: gr.Grid, lam, c: float, spec: nz.NoiseSpec, u, dw, g_force, cfg: StepperConfig):
    """One scheme step from u; returns (u_next, beta_lam(u_next)).

    The explicit part is the concave term 2c*u, the forcing and the noise
    sum_k h_k(J_lam(u)) dW_k; dw holds the mode increments with shape
    u's batch axes + (modes,) and is ignored when spec has no modes.
    lam=None with c=0 integrates the plain heat equation.
    """
    dt = cfg.dt
    noise_field = nz.mix_modes(spec, pot.resolvent_map(lam, u), dw, g.dim) if spec.modes > 0 else 0.0
    rhs = u + dt * (2.0 * c) * u + noise_field
    if g_force is not None:
        rhs = rhs + dt * g_force
    return _monotone_solve(g, lam, rhs, dt, cfg, w0=u)


@dataclass
class TrajectoryRecord:
    """A stored path for after-the-fact weak-form checks."""

    grid: gr.Grid
    params: pot.PotentialParams | None
    level: pot.YosidaLevel | None
    dt: float
    states: np.ndarray  # (n_steps+1, *field shape)
    stoch_integral: np.ndarray  # sum of the noise fields over the steps
    g_force: np.ndarray | None


def grad_inner(g: gr.Grid, u, v):
    """Face-gradient inner product <grad u, grad v>_h."""
    total = 0.0
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for ax in range(g.dim):
        a = u.ndim - g.dim + ax
        du = np.diff(u, axis=a) / g.spacing[ax]
        dv = np.diff(v, axis=a if v.ndim == u.ndim else v.ndim - g.dim + ax) / g.spacing[ax]
        total = total + np.sum(du * dv, axis=tuple(range(u.ndim - g.dim, u.ndim))) * g.cell_volume
    return total


def weak_residual_check(record: TrajectoryRecord, v) -> float:
    """Absolute defect of the tested weak form along a recorded path.

    All time integrals use the left-endpoint rule, so the defect of the
    scheme-consistent identity shrinks like O(dt) for a fixed test field.
    """
    g = record.grid
    v = np.asarray(v, dtype=float)
    us = record.states
    n = us.shape[0] - 1
    u0, uT = us[0], us[-1]
    dt = record.dt

    acc = gr.h_inner(g, uT, v) - gr.h_inner(g, u0, v)
    for m in range(n):
        um = us[m]
        acc += dt * grad_inner(g, um, v)
        if record.params is not None:
            _, f1, _ = (
                pot.regularized_potential_eval(record.params, record.level, um)
                if record.level is not None
                else pot.potential_eval(record.params, um)
            )
            acc += dt * gr.h_inner(g, f1, v)
        if record.g_force is not None:
            acc -= dt * gr.h_inner(g, record.g_force, v)
    acc -= gr.h_inner(g, record.stoch_integral, v)
    return float(np.abs(acc))


def gateaux_check(
    g: gr.Grid,
    params: pot.PotentialParams,
    level: pot.YosidaLevel,
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
        Fl, _, _ = pot.regularized_potential_eval(params, level, w)
        return float(np.sum(Fl)) * g.cell_volume

    def dphi(w, d):
        _, Fl1, _ = pot.regularized_potential_eval(params, level, w)
        return float(gr.h_inner(g, Fl1, d))

    d1_fd = (phi(u + eps * h_dir) - phi(u - eps * h_dir)) / (2.0 * eps)
    d1_err = abs(d1_fd - dphi(u, h_dir))

    d2_fd = (dphi(u + eps * k_dir, h_dir) - dphi(u - eps * k_dir, h_dir)) / (2.0 * eps)
    _, _, Fl2 = pot.regularized_potential_eval(params, level, u)
    d2_exact = float(np.sum(Fl2 * h_dir * k_dir)) * g.cell_volume
    d2_err = abs(d2_fd - d2_exact)
    return d1_err, d2_err
