"""Scalar machinery for the logarithmic double-well potential.

The singular monotone part of the potential derivative is the graph

    beta(r) = ln((1+r)/(1-r)),   r in (-1, 1),

with primitive beta_hat(r) = (1+r)ln(1+r) + (1-r)ln(1-r).  The
logarithmic potential is beta_hat(r) - c r^2 with c > 1; the dynamics
read only its slope beta - 2c r, so c is the one parameter.  Everything
downstream works with the resolvent J_lam = (I + lam*beta)^(-1) and the
Yosida regularization beta_lam = (I - J_lam)/lam, which is globally
Lipschitz with constant 1/lam and satisfies beta_lam = beta(J_lam(.)).
A level lam in (0, 1) and a gauge order n >= 2 are plain numbers; their
ranges are checked where they arrive (EnsembleConfig, derivative_study).

The resolvent is solved pointwise by a bracket-free Newton iteration on
the folded graph equation (_graph_solve).  Its root b is beta_lam(x) and
J_lam(x) = tanh(b/2), so x = J_lam(x) + lam*beta_lam(x) holds to the
solve's residual.  All evaluators are elementwise over numpy arrays and
accept scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Graph endpoints representable strictly inside (-1, 1).
_R_HI = np.nextafter(1.0, 0.0)
_R_LO = np.nextafter(-1.0, 0.0)


@dataclass(frozen=True)
class PotentialParams:
    """The logarithmic double well on (-1, 1), fixed by its concave coefficient c > 1."""

    c: float

    def __post_init__(self):
        if not 1.0 < self.c < np.inf:
            raise ValueError(f"potential c must be > 1 and finite, got {self.c}")


# residual and iteration cap of the scalar resolvent Newton solve
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
_ULP4 = 4.0 * np.finfo(float).eps  # per unit |x|, the least residual bound of _graph_solve


def _beta_hat(r):
    # (1+r)ln(1+r) + (1-r)ln(1-r), continuous up to +-1 with value 2 ln 2;
    # the 0*log(0) limit at the endpoints is taken as 0.
    rp = 1.0 + np.asarray(r, dtype=float)
    rm = 1.0 - np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(rp > 0.0, rp * np.log1p(r), 0.0) + np.where(rm > 0.0, rm * np.log1p(-r), 0.0)
    return out


def _check_open_interval(r, what: str):
    r = np.asarray(r, dtype=float)
    if np.any(~np.isfinite(r)) or np.any(np.abs(r) >= 1.0):
        raise ValueError(f"{what} requires |r| < 1 strictly")
    return r


def _graph_solve(lam, x, tol, b0):
    """Solve tanh(b/2) + lam*b = x elementwise; returns (b, tanh(b/2)).

    This is the resolvent equation r + lam*beta(r) = x in the graph
    coordinate b = beta(r), r = tanh(b/2), well conditioned when J_lam(x)
    hugs the endpoints.  The equation is odd, so Newton runs on
    tanh(b/2) + lam*b = |x| over b >= 0, where the left side is concave and
    increasing: one step, clamped at 0, lands at or below the root and the
    iterates then rise to it, with no bracket; copysign restores the sign.
    The start is sign(x)*b0 clipped into [0, |x|/lam], which holds the root
    (from farther out the first step rounds past it); a cold call's b0 = 0
    steps first to |x|/(lam + 1/2), or stops at 0 where 0 < |x| <= tol.
    Each update takes f' = (1 - t^2)/2 + lam, algebraically yosida_slope's
    denominator, in place from the t = tanh(b/2) of its residual check.  The
    square's rounding moves f' by at most eps/8; where t rounds to 1
    (b > 37.98) f' is lam, 2e^-b < 6.5e-17 short.  As f' >= lam and
    b <= |x|/lam, nothing overflows: the solve needs no floating-point guard.
    A point stops once its residual is within max(tol, 4*eps*|x|), above the
    rounding of lam*b - |x|, so it depends on its own x, lam and b0 alone.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    hi = np.maximum(tol, _ULP4 * a)
    b = np.asarray(np.minimum(np.maximum(np.sign(x) * b0, 0.0), a / lam))
    t, f, done = np.empty(b.shape), np.empty(b.shape), np.empty(b.shape, dtype=bool)
    for it in range(NEWTON_MAX_ITER + 1):
        np.tanh(np.multiply(b, 0.5, out=t), out=t)
        np.multiply(lam, b, out=f)
        f += t
        f -= a
        np.less_equal(np.abs(f), hi, out=done)
        if np.logical_and.reduce(done, axis=None):
            return np.copysign(b, x, out=b), np.copysign(t, x, out=t)
        if it == NEWTON_MAX_ITER:
            break
        # a converged point takes a zero step, so it keeps its b bit for bit
        f[done] = 0.0
        # f' = (1 - t^2)/2 + lam in t's place, which the next check refills
        np.square(t, out=t)
        np.subtract(1.0, t, out=t)
        t *= 0.5
        t += lam
        b -= np.divide(f, t, out=f)
        np.maximum(b, 0.0, out=b)
    worst = float(np.max(np.abs(f)))
    raise RuntimeError(f"resolvent solve failed: residual {worst:.3e} above max({tol:g}, 4eps|x|) in {it} iterations")


def resolvent_map(lam, x):
    """J_lam(x) = (I + lam*beta)^(-1)(x), mapped strictly into (-1, 1); lam broadcasts against x."""
    return np.clip(_graph_solve(lam, x, NEWTON_TOL, 0.0)[1], _R_LO, _R_HI)


def yosida_pair(lam, x, b0=0.0):
    """(beta_lam(x), beta_lam'(x)) with lam broadcastable against x.

    Hot-path variant used by the field solvers, where lam may vary across
    batch lanes.  beta_lam(x) is the graph solve's root b and J_lam(x) is
    tanh(b/2), so yosida_pair(lam, x, b0=beta_lam(x)) returns beta_lam(x)
    bit for bit.  The linearization beta_lam(y) + beta_lam'(y)*(x - y) from a
    nearby point y is a good warm start b0; the implicit step passes it.
    """
    beta_l, r = _graph_solve(lam, x, NEWTON_TOL, b0)
    return beta_l, yosida_slope(lam, r)


def yosida_slope(lam, r):
    """beta_lam' = 1/((1-r^2)/2 + lam) where J_lam = r; it tends to 1/lam at the endpoints."""
    return 1.0 / (0.5 * (1.0 - r) * (1.0 + r) + lam)


def yosida_eval(lam, x):
    """Return (beta_lam, beta_lam', beta_hat_lam) at x, defined on all of R.

    beta_lam and J_lam are yosida_pair's: the graph solve's root b and
    tanh(b/2).  The primitive comes from the Moreau decomposition
    beta_hat_lam(x) = beta_hat(J_lam(x)) + (lam/2) beta_lam(x)^2,
    exact for the quadratic regularization (no quadrature involved).
    """
    beta_l, r = _graph_solve(lam, x, NEWTON_TOL, 0.0)
    return beta_l, yosida_slope(lam, r), _beta_hat(r) + 0.5 * lam * beta_l * beta_l


def gauge_eval(n: int, r):
    """Return (G_n, G_n') with G_n(r) = (1-r^2)^(1-n) on |r| < 1."""
    r = _check_open_interval(r, "gauge_eval")
    one_m = (1.0 - r) * (1.0 + r)
    Gn = one_m ** (1 - n)
    Gn_prime = 2.0 * (n - 1) * r * one_m ** (-n)
    return Gn, Gn_prime
