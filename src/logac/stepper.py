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
tridiagonal and each Newton system is solved exactly, the whole batch in
one LAPACK LDL^T call; in 2-d it goes to conjugate gradients
preconditioned by the exact heat operator (I - dt*lap)^(-1), applied
spectrally.  The caller carries beta_lam(u) and the implicit operator
A(u) = u - dt*lap(u) + dt*beta_lam(u) from the step before, so the first
residual is A(u) - rhs: only the Newton trials solve the resolvent and
apply the Laplacian, and the accepted trial's A is the next step's.
J_lam(u) is tanh(beta_lam(u)/2), never rebuilt from u.  Absent terms are
zero arrays.

Fields may carry leading batch axes (replicates, coupled lanes) and
everything here broadcasts over them.  This module holds one step; the
time loop and the noise draws live in experiments._run_lanes, the
package's only integration engine, and the path statistics in the hooks
the studies attach to it.
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
        for name in ("dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.t_end > 0.0 and self.dt > self.t_end * (1.0 + 1e-12):
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_end / self.dt - 1e-12))


def _expand(a, ndim: int):
    # append singleton field axes so per-batch scalars broadcast over the mesh
    return np.asarray(a)[(...,) + (None,) * ndim]


def _pcg(g: gr.Grid, dt: float, diag, b):
    """CG on (I - dt*lap + dt*diag) x = b with an exact heat preconditioner."""
    dim = g.dim
    axes = tuple(range(b.ndim - dim, b.ndim))

    def matvec(p):
        return p - dt * gr.laplacian_neumann(g, p) + dt * diag * p

    x = np.zeros_like(b)
    r = b.copy()
    tol = np.maximum(CG_TOL * np.sqrt((b * b).sum(axis=axes)), _TINY)
    z = gr.helmholtz_solve(g, r, dt)
    p = z.copy()
    rz = (r * z).sum(axis=axes)
    for _ in range(CG_MAX_ITER):
        active = np.sqrt((r * r).sum(axis=axes)) > tol
        if not np.any(active):
            return x
        Ap = matvec(p)
        pAp = (p * Ap).sum(axis=axes)
        alpha = _expand(np.where(active, rz / np.maximum(pAp, _TINY), 0.0), dim)
        x = x + alpha * p
        r = r - alpha * Ap
        z = gr.helmholtz_solve(g, r, dt)
        rz_new = (r * z).sum(axis=axes)
        beta = _expand(np.where(active, rz_new / np.maximum(rz, _TINY), 0.0), dim)
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


def _tridiag_solve(g: gr.Grid, dt: float, diag, b):
    """Exact (I - dt*lap + dt*diag) x = b on a 1-d grid, every batch member at once.

    The batch is laid out as one block-diagonal tridiagonal system with zero
    couplings between blocks and solved by LAPACK's LDL^T solver dptsv,
    which does not pivot, so each block's solution is that of the block
    alone.  The Laplacian's part of both diagonals comes read-only, one
    block's worth, from the _tridiag_stencil cache and is laid over fresh
    arrays that dptsv may overwrite.  diag must be nonnegative; a system
    that is not positive definite raises.
    """
    kd, e_block = _tridiag_stencil(g.cells[0], dt / (g.spacing[0] * g.spacing[0]))
    d = np.multiply(diag, dt, out=np.empty(b.shape))
    d += 1.0
    d += kd
    e = np.empty(b.shape)
    e[...] = e_block
    _, _, x, info = lapack.dptsv(d.reshape(-1), e.reshape(-1)[:-1], b.reshape(-1), overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise RuntimeError(f"tridiagonal Newton system is not positive definite (dptsv info {info})")
    return x.reshape(b.shape)


def implicit_operator(g: gr.Grid, dt: float, w, bl):
    """A(w) = w - dt*lap(w) + dt*bl with bl = beta_lam(w); the residual of the implicit step is A(w) - rhs."""
    return w - dt * gr.laplacian_neumann(g, w) + dt * bl


def _monotone_solve(g: gr.Grid, lam, rhs, dt: float, w0, b0, a0):
    """Solve A(w) = rhs by Newton from w0, b0 = beta_lam(w0), a0 = A(w0); A is implicit_operator.

    lam is a scalar or an array broadcastable against the batch axes, or
    None to drop the beta term, with b0 a zero field that comes back as
    beta.  The first residual is a0 - rhs and its Newton system takes
    beta_lam'(w0) from J_lam(w0) = tanh(b0/2), so only the Newton trials
    solve the resolvent (warm-started from the evaluation before) and apply
    the Laplacian.  Residuals are A - rhs temporaries.  A member stops at
    residual max(NEWTON_TOL, 4*eps*max|rhs|): as |w| <= max|rhs| (maximum
    principle), w - rhs alone rounds by up to eps*max|rhs|.  Returns the
    final evaluation (w, beta_lam(w), A(w)) for the caller to carry.
    """
    dim = g.dim
    axes = tuple(range(rhs.ndim - dim, rhs.ndim))
    tol = np.maximum(NEWTON_TOL, pot._ULP4 * np.abs(rhs).max(axis=axes))

    w, bl, A = w0, b0, a0
    blp = b0 if lam is None else pot.yosida_slope(lam, np.tanh(0.5 * b0))
    res = np.abs(A - rhs).max(axis=axes)
    for _ in range(NEWTON_MAX_ITER):
        done = res <= tol
        if done.all():
            return w, bl, A
        if dim == 1:
            delta = _tridiag_solve(g, dt, blp, A - rhs)
        else:
            delta = _pcg(g, dt, blp, A - rhs)
        # a converged member keeps its w, and its re-evaluated beta_lam and A, bit for bit, whatever its batch mates do
        delta[done] = 0.0
        damp = 1.0
        for _bt in range(12):
            w_try = w - _expand(damp, dim) * delta
            # bl follows the latest evaluation, which warm-starts the next one
            bl, blp_try = (b0, b0) if lam is None else pot.yosida_pair(lam, w_try, b0=bl)
            A_try = implicit_operator(g, dt, w_try, bl)
            res_try = np.abs(A_try - rhs).max(axis=axes)
            bad = (res_try > res) & (res_try > tol)
            if not bad.any():
                break
            damp = np.where(bad, 0.5 * damp, damp)
        else:
            raise RuntimeError(
                f"implicit step failed: backtracking exhausted, 12 dampings all raise residual {float(np.max(res)):.3e}"
            )
        w, A, blp, res = w_try, A_try, blp_try, res_try
    raise RuntimeError(
        f"implicit step failed: residual {float(np.max(res)):.3e} after {NEWTON_MAX_ITER} Newton iterations"
    )


def step(g: gr.Grid, lam, c: float, spec: nz.NoiseSpec, u, beta_u, a_u, dw, g_force, cfg: StepperConfig):
    """One scheme step from u; returns (u_next, beta_lam(u_next), A(u_next)).

    The explicit part is the concave term 2c*u, the forcing field g_force
    and the noise sum_k h_k(J_lam(u)) dW_k; dw holds the mode increments
    with shape u's batch axes + (modes,) and is ignored when spec has no
    modes.  J_lam(u) = tanh(beta_u/2) from the beta_u = beta_lam(u) the
    previous step (or yosida_pair at the datum) returned, with no resolvent
    solve of its own (the noise is an exact 0.0 where it rounds to +-1);
    a_u = implicit_operator(g, cfg.dt, u, beta_u) is carried alike.
    lam=None, c=0, zero beta_u and no noise modes give the heat flow.
    """
    dt = cfg.dt
    noise_field = 0.0
    if spec.modes > 0:
        noise_field = nz.mix_modes(spec, np.tanh(0.5 * beta_u), dw, g.dim)
    rhs = u + dt * (2.0 * c) * u + noise_field + dt * g_force
    del noise_field  # freed before the solve, which holds the peak
    return _monotone_solve(g, lam, rhs, dt, u, beta_u, a_u)
