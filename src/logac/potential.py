"""Scalar machinery for the logarithmic double-well potential.

The singular monotone part of the potential derivative is the graph

    beta(r) = ln((1+r)/(1-r)),   r in (-1, 1),

with primitive beta_hat(r) = (1+r)ln(1+r) + (1-r)ln(1-r).  The full
logarithmic potential is F(r) = beta_hat(r) - c r^2 + K with c > 1 and K
the smallest offset making F nonnegative.  Everything downstream works
with the resolvent J_lam = (I + lam*beta)^(-1) and the Yosida
regularization beta_lam = (I - J_lam)/lam, which is globally Lipschitz
with constant 1/lam and satisfies beta_lam = beta(J_lam(.)).

All evaluators are elementwise over numpy arrays and accept scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

LOGARITHMIC = "logarithmic"

# Graph endpoints representable strictly inside (-1, 1).
_R_HI = np.nextafter(1.0, 0.0)
_R_LO = np.nextafter(-1.0, 0.0)


@dataclass(frozen=True)
class PotentialParams:
    """The logarithmic double well on (-1, 1): c > 1 and a nonnegativity offset K.

    kind is always "logarithmic"; it is kept so configs name the potential.
    """

    kind: str
    c: float = 0.0
    K: float = 0.0

    def __post_init__(self):
        if self.kind != LOGARITHMIC:
            raise ValueError(f"potential kind must be 'logarithmic', got {self.kind!r}")
        if not self.c > 1.0:
            raise ValueError(f"potential c must be > 1 for the logarithmic kind, got {self.c}")
        if not self.K >= 0.0:
            raise ValueError(f"potential K must be >= 0, got {self.K}")
        # K must dominate the well depth; the minimum of beta_hat - c r^2
        # is attained at the positive root of beta(r) = 2 c r.
        if self.K < default_offset(self.c) - 1e-9:
            raise ValueError(
                f"potential K={self.K} leaves F negative; need K >= {default_offset(self.c):.12g} for c={self.c}"
            )


def default_offset(c: float) -> float:
    """Smallest K with beta_hat(r) - c r^2 + K >= 0 on (-1, 1)."""
    rstar = brentq(lambda r: _beta(r) - 2.0 * c * r, 1e-12, _R_HI, xtol=1e-15)
    return float(c * rstar * rstar - _beta_hat(rstar))


def logarithmic_params(c: float = 2.0, K: float | None = None) -> PotentialParams:
    if K is None:
        K = default_offset(c)
    return PotentialParams(kind=LOGARITHMIC, c=c, K=K)


@dataclass(frozen=True)
class YosidaLevel:
    """Regularization strength lam in (0,1) plus scalar-solver knobs."""

    lam: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 200

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {self.lam}")
        if not self.newton_tol > 0.0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")


@dataclass(frozen=True)
class GaugeOrder:
    """Order n >= 2 of the singularity gauge G_n(r) = (1-r^2)^(1-n)."""

    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"gauge order n must be an integer >= 2, got {self.n}")


def _beta(r):
    return np.log1p(r) - np.log1p(-r)


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


def beta_family_eval(r):
    """Return (beta, beta', beta_hat) at r, |r| < 1 strictly."""
    r = _check_open_interval(r, "beta_family_eval")
    beta = _beta(r)
    beta_prime = 2.0 / ((1.0 - r) * (1.0 + r))
    return beta, beta_prime, _beta_hat(r)


def potential_eval(params: PotentialParams, r):
    """Return (F, F', F'') at r, |r| < 1 strictly."""
    beta, beta_prime, beta_hat = beta_family_eval(r)
    r = np.asarray(r, dtype=float)
    F = beta_hat - params.c * r * r + params.K
    F1 = beta - 2.0 * params.c * r
    F2 = beta_prime - 2.0 * params.c
    return F, F1, F2


def _graph_solve(lam, x, tol, max_iter):
    """Solve tanh(b/2) + lam*b = x elementwise for b.

    This is the resolvent equation r + lam*beta(r) = x written in the
    graph coordinate b = beta(r), r = tanh(b/2); the change of variable
    keeps the solve well conditioned when J_lam(x) hugs the endpoints.
    Safeguarded Newton: the iterate stays inside a sign-changing bracket
    and falls back to bisection whenever a Newton step leaves it.
    """
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    lam, x = np.broadcast_arrays(lam, x)
    lam = lam.astype(float, copy=True)
    x = x.astype(float, copy=True)

    # tanh(b/2) in [-1,1] gives f((x-1)/lam) <= 0 <= f((x+1)/lam).
    lo = (x - 1.0) / lam
    hi = (x + 1.0) / lam
    b = np.clip(x / (lam + 0.5), lo, hi)
    for _ in range(max_iter):
        t = np.tanh(0.5 * b)
        f = t + lam * b - x
        if np.all(np.abs(f) <= tol):
            return b
        lo = np.where(f < 0.0, b, lo)
        hi = np.where(f > 0.0, b, hi)
        fp = 0.5 * (1.0 - t * t) + lam
        b_new = b - f / fp
        bad = ~((b_new > lo) & (b_new < hi))
        b = np.where(bad, 0.5 * (lo + hi), b_new)
    t = np.tanh(0.5 * b)
    worst = float(np.max(np.abs(t + lam * b - x)))
    raise RuntimeError(
        f"resolvent solve failed to reach residual {tol:g} in {max_iter} iterations (worst {worst:.3e})"
    )


def resolvent_graph(level: YosidaLevel, x):
    """Return (r, b) with r = J_lam(x) in (-1,1) and b = beta(r).

    The pair lies on the graph of beta by construction and satisfies
    |r + lam*b - x| <= newton_tol; use it whenever the residual or
    beta(J_lam(x)) itself is needed near the endpoints, where composing
    the rounded r with beta would lose everything.
    """
    b = _graph_solve(level.lam, x, level.newton_tol, level.newton_max_iter)
    r = np.clip(np.tanh(0.5 * b), _R_LO, _R_HI)
    return r, b


def resolvent(level: YosidaLevel, x):
    """J_lam(x) = (I + lam*beta)^(-1)(x), mapped strictly into (-1, 1)."""
    r, _ = resolvent_graph(level, x)
    return r


def resolvent_map(lam, x, tol: float = 1e-12, max_iter: int = 200):
    """J_lam(x) with lam broadcastable against x (hot-path array variant)."""
    b = _graph_solve(lam, x, tol, max_iter)
    return np.clip(np.tanh(0.5 * b), _R_LO, _R_HI)


def yosida_pair(lam, x, tol: float = 1e-12, max_iter: int = 200):
    """(beta_lam(x), beta_lam'(x)) with lam broadcastable against x.

    Hot-path variant used by the field solvers, where lam may vary across
    batch lanes; the derivative formula 1/((1-J^2)/2 + lam) degrades
    gracefully to 1/lam as J approaches the endpoints.
    """
    x = np.asarray(x, dtype=float)
    b = _graph_solve(lam, x, tol, max_iter)
    r = np.clip(np.tanh(0.5 * b), _R_LO, _R_HI)
    beta_l = (x - r) / lam
    beta_l_prime = 1.0 / (0.5 * (1.0 - r) * (1.0 + r) + lam)
    return beta_l, beta_l_prime


def yosida_eval(level: YosidaLevel, x):
    """Return (beta_lam, beta_lam', beta_hat_lam) at x, defined on all of R.

    beta_lam(x) = (x - J_lam(x))/lam equals beta(J_lam(x)) up to the solve
    tolerance.  The derivative uses beta_lam' = 1/((1-J^2)/2 + lam), and the
    primitive comes from the Moreau decomposition
    beta_hat_lam(x) = beta_hat(J_lam(x)) + (lam/2) beta_lam(x)^2,
    exact for the quadratic regularization (no quadrature involved).
    """
    x = np.asarray(x, dtype=float)
    r, _ = resolvent_graph(level, x)
    lam = level.lam
    beta_l = (x - r) / lam
    sech_sq = (1.0 - r) * (1.0 + r)
    beta_l_prime = 1.0 / (0.5 * sech_sq + lam)
    beta_hat_l = _beta_hat(r) + 0.5 * lam * beta_l * beta_l
    return beta_l, beta_l_prime, beta_hat_l


def regularized_potential_eval(params: PotentialParams, level: YosidaLevel, r):
    """Return (F_lam, F_lam', F_lam'') at r, defined on all of R."""
    r = np.asarray(r, dtype=float)
    beta_l, beta_l_prime, beta_hat_l = yosida_eval(level, r)
    Fl = params.K + beta_hat_l - params.c * r * r
    Fl1 = beta_l - 2.0 * params.c * r
    Fl2 = beta_l_prime - 2.0 * params.c
    return Fl, Fl1, Fl2


def gauge_eval(order: GaugeOrder, r):
    """Return (G_n, G_n') with G_n(r) = (1-r^2)^(1-n) on |r| < 1."""
    r = _check_open_interval(r, "gauge_eval")
    one_m = (1.0 - r) * (1.0 + r)
    Gn = one_m ** (1 - order.n)
    Gn_prime = 2.0 * (order.n - 1) * r * one_m ** (-order.n)
    return Gn, Gn_prime
