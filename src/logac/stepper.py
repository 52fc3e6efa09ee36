"""Semi-implicit Euler-Maruyama integration of the regularized dynamics.

One step solves

    w - dt*lap(w) + dt*beta_lam(w) = u + dt*(2c*u + g) + B_lam(u) dW,

keeping the maximal monotone pieces (Laplacian and beta_lam) implicit and
the concave part -2c*u, the forcing, and the Ito noise explicit.  The
implicit operator is strictly monotone for every dt and lam, so the step
is unconditionally solvable; the convex/concave split also makes the
deterministic scheme dissipate the regularized free energy for any dt.

The nonlinear solve is a damped Newton iteration with a per-member exit:
a batch member whose residual is within tolerance stops moving.  The
Jacobian I - dt*lap + dt*diag(beta_lam'(w)) is SPD.  In 1-d it is
tridiagonal and each Newton system is solved exactly, the whole batch by
one LAPACK LDL^T factorization and back-substitution; in 2-d it goes to
conjugate gradients preconditioned by the exact heat operator
(I - dt*lap)^(-1), applied spectrally.  The caller carries beta_lam(u)
and the implicit operator A(u) = u - dt*lap(u) + dt*beta_lam(u) from the
step before, so the first residual is A(u) - rhs: only the Newton trials
solve the resolvent and apply the Laplacian, and the accepted trial's A
is the next step's.  J_lam(u) is tanh(beta_lam(u)/2), never rebuilt from
u.  Absent terms are zero arrays.

Fields may carry leading batch axes (replicates, coupled lanes) and
everything here broadcasts over them.  This module holds one step; the
time loop and the noise draws live in experiments._run_lanes, the engine
of every path of the regularized equation, and the path statistics in
the hooks the studies attach to it.  The heat oracle needs no Newton: it
factors I - dt*lap once per run (_tridiag_factor) and back-substitutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from . import grid as gr
from . import noise as nz
from . import potential as pot

_TINY = np.finfo(float).tiny


# outer Newton residual tolerance and iteration cap of the implicit solve
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
# relative residual and iteration cap of the 2-d conjugate-gradient solve;
# the 1-d Newton systems are solved exactly
CG_TOL = 1e-11
CG_MAX_ITER = 500


@dataclass(frozen=True)
class StepperConfig:
    """Time step and horizon."""

    dt: float
    t_end: float

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:  # a NaN fails the chained comparisons too
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if self.t_end > 0.0 and self.dt > self.t_end * (1.0 + 1e-12):
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if not self.t_end / self.dt < math.inf:
            raise ValueError(f"t_end / dt must be a finite step count, got {self.t_end} / {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_end / self.dt - 1e-12))


def _pcg(g: gr.Grid, dt: float, diag, b):
    """CG on (I - dt*lap + dt*diag) x = b with an exact heat preconditioner; per-member scalars keep their axes."""
    axes = gr._grid_axes(g, b)
    x = np.zeros_like(b)
    r = b.copy()
    tol = np.maximum(CG_TOL * np.sqrt(np.add.reduce(b * b, axis=axes, keepdims=True)), _TINY)
    z = gr.helmholtz_solve(g, r, dt)
    p = z.copy()
    rz = np.add.reduce(r * z, axis=axes, keepdims=True)
    for _ in range(CG_MAX_ITER):
        active = np.sqrt(np.add.reduce(r * r, axis=axes, keepdims=True)) > tol
        if not np.logical_or.reduce(active, axis=None):
            return x
        Ap = p - dt * gr.laplacian_neumann(g, p) + dt * diag * p
        pAp = np.add.reduce(p * Ap, axis=axes, keepdims=True)
        alpha = np.where(active, rz / np.maximum(pAp, _TINY), 0.0)
        x = x + alpha * p
        r = r - alpha * Ap
        z = gr.helmholtz_solve(g, r, dt)
        rz_new = np.add.reduce(r * z, axis=axes, keepdims=True)
        beta = np.where(active, rz_new / np.maximum(rz, _TINY), 0.0)
        p = z + beta * p
        rz = rz_new
    raise RuntimeError(f"inner linear solve stagnated after {CG_MAX_ITER} iterations")


@lru_cache(maxsize=32)
def _tridiag_stencil(n: int, k: float):
    """Read-only [k, 2k, ..., 2k, k] and [-k, ..., -k, 0] of -k*lap on n cells; the 0 uncouples batch blocks."""
    kd = np.full(n, 2.0 * k)
    kd[0] = kd[-1] = k
    e = np.full(n, -k)
    e[-1] = 0.0
    kd.flags.writeable = e.flags.writeable = False
    return kd, e


def _tridiag_factor(g: gr.Grid, dt: float, diag, shape):
    """LDL^T of I - dt*lap + dt*diag on a 1-d grid for a batch of shape; returns solve(b), one dpttrs call.

    The batch is one block-diagonal system with zero couplings, which dpttrf
    factors without pivoting, so each block's factor is its own.  The stencil
    comes read-only from _tridiag_stencil, laid over fresh arrays that dpttrf
    overwrites.  diag must be >= 0; a system not positive definite raises.
    """
    kd, e_block = _tridiag_stencil(g.cells[0], dt / (g.spacing[0] * g.spacing[0]))
    d = np.multiply(diag, dt, out=np.empty(shape))
    d += 1.0
    d += kd
    e = np.empty(shape)
    e[...] = e_block
    d, e, info = lapack.dpttrf(d.ravel(), e.ravel()[:-1], overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise RuntimeError(f"tridiagonal Newton system is not positive definite (dpttrf info {info})")
    return lambda b: lapack.dpttrs(d, e, b.ravel())[0].reshape(shape)


def _tridiag_solve(g: gr.Grid, dt: float, diag, b):
    """Exact (I - dt*lap + dt*diag) x = b on a 1-d grid: one factor and one solve, which is LAPACK's dptsv."""
    return _tridiag_factor(g, dt, diag, b.shape)(b)


def implicit_operator(g: gr.Grid, dt: float, w, bl):
    """A(w) = w - dt*lap(w) + dt*bl with bl = beta_lam(w); the residual of the implicit step is A(w) - rhs."""
    return w - dt * gr.laplacian_neumann(g, w) + dt * bl


def _monotone_solve(g: gr.Grid, lam, rhs, dt: float, w0, b0, a0):
    """Solve A(w) = rhs by Newton from w0, b0 = beta_lam(w0), a0 = A(w0); A is implicit_operator.

    lam is a scalar or an array broadcastable against the batch axes.  The
    first residual is a0 - rhs and its Newton system takes
    beta_lam'(w0) from J_lam(w0) = tanh(b0/2), so only the Newton trials
    solve the resolvent and apply the Laplacian.  A trial w - delta starts
    its resolvent solve from beta_lam(w) - beta_lam'(w)*delta, which is
    beta_lam(w) bit for bit where delta = 0.  Residuals are A - rhs
    temporaries.  A member stops at residual max(NEWTON_TOL, 4*eps*max|rhs|):
    as |w| <= max|rhs| (maximum principle), w - rhs alone rounds by up to
    eps*max|rhs|.  Returns the final evaluation (w, beta_lam(w), A(w)) for
    the caller to carry.
    """
    axes = gr._grid_axes(g, rhs)
    # ufunc reductions, not the ndarray methods, whose Python wrappers cost as much as the arithmetic on small fields
    tol = np.maximum(NEWTON_TOL, pot._ULP4 * np.maximum.reduce(np.abs(rhs), axis=axes))

    w, bl, A = w0, b0, a0
    blp = pot.yosida_slope(lam, np.tanh(0.5 * b0))
    res = np.maximum.reduce(np.abs(A - rhs), axis=axes)
    for _ in range(NEWTON_MAX_ITER):
        done = res <= tol
        if np.logical_and.reduce(done, axis=None):
            return w, bl, A
        r = A - rhs
        delta = _tridiag_solve(g, dt, blp, r) if g.dim == 1 else _pcg(g, dt, blp, r)
        # a converged member keeps its w, and its re-evaluated beta_lam and A, bit for bit, whatever its batch mates do
        delta[done] = 0.0
        # the trial's resolvent solve starts from beta_lam(w) - beta_lam'(w)*delta, written over the spent
        # right side r; beta_lam(w) itself is not kept through the trials
        bl = np.subtract(bl, np.multiply(blp, delta, out=r), out=r)
        for _bt in range(12):
            # halving is exact, so after k refusals a member's trial is w - 2^-k*delta
            w_try = w - delta
            bl_try, blp_try = pot.yosida_pair(lam, w_try, b0=bl)
            A_try = implicit_operator(g, dt, w_try, bl_try)
            res_try = np.maximum.reduce(np.abs(A_try - rhs), axis=axes)
            bad = res_try > np.maximum(res, tol)
            if not np.logical_or.reduce(bad, axis=None):
                break
            delta[bad] *= 0.5
            # a refused member's guess follows its halved direction
            bl[bad] += blp[bad] * delta[bad]
        else:
            raise RuntimeError(
                f"implicit step failed: backtracking exhausted, 12 dampings all raise residual {float(np.max(res)):.3e}"
            )
        w, bl, A, blp, res = w_try, bl_try, A_try, blp_try, res_try
        del bl_try  # bl alone holds beta_lam(w), so the next guess frees it
    raise RuntimeError(
        f"implicit step failed: residual {float(np.max(res)):.3e} after {NEWTON_MAX_ITER} Newton iterations"
    )


def step(g: gr.Grid, lam, c: float, spec: nz.NoiseSpec, u, beta_u, a_u, dw, g_force, dt: float):
    """One scheme step of size dt from u; returns (u_next, beta_lam(u_next), A(u_next)).

    The explicit part is the concave term 2c*u, the forcing field g_force
    and the noise sum_k h_k(J_lam(u)) dW_k; dw holds the mode increments,
    broadcastable to u's batch axes + (modes,), and is ignored when spec
    has no modes.  J_lam(u) = tanh(beta_u/2) from the beta_u = beta_lam(u)
    the previous step (or yosida_pair at the datum) returned, with no
    resolvent solve of its own (the noise is an exact 0.0 where it rounds
    to +-1); a_u = implicit_operator(g, dt, u, beta_u) is carried alike.
    """
    rhs = u + dt * (2.0 * c) * u
    if spec.modes > 0:
        # a temporary, freed before the solve, which holds the peak
        rhs += nz.mix_modes(spec, np.tanh(0.5 * beta_u), dw, g.dim)
    rhs += dt * g_force
    return _monotone_solve(g, lam, rhs, dt, u, beta_u, a_u)
