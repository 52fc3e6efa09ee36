"""Truncated cylindrical Wiener noise and the state-dependent diffusion operator.

The diffusion coefficients are scalar profiles h_k of the state value that
vanish at +-1, so the noise shuts off at the pure phases:

    sine:      h_k(r) = sigma0 * k^(-s) * sin(k*pi*(1+r)/2)
    poly_flat: h_k(r) = sigma0 * k^(-s) * (1-r^2)^m * sin(k*pi*(1+r)/2)

With s > 3/2 the W^{1,inf} series sum_k ||h_k||^2 converges; poly_flat
additionally kills the first m derivatives at the endpoints.

mix_modes never builds the profiles one by one.  With theta = pi*(1+v)/2,
sin(k*theta) = sin(theta) * U_{k-1}(cos(theta)) (Chebyshev, second kind),
so sum_k h_k(v) dW_k is sin(theta) times a Clenshaw sum in cos(theta).
sin(theta) comes from _sinpi, which is exactly 0 at v = +-1, so the noise
is an exact 0.0 at the pure phases whatever the recurrence rounds to.

Increments come from a counter-based generator (Philox) keyed by
(seed, replicate, step, mode), so coupled runs across regularization
levels or data perturbations consume bit-identical noise and parallel
execution order can never change results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .potential import YosidaLevel, resolvent

SINE = "sine"
POLY_FLAT = "poly_flat"

# second Philox key word: 0x9E3779B97F4A7C15 rounded to float64, the
# value every existing stream (and every pinned digest) was keyed with
_KEY_SALT = 0x9E3779B97F4A8000
# counter[1] tags the purpose of a stream so independent consumers never collide
CTR_INCREMENTS = 0
CTR_INITIAL_DATUM = 1


@dataclass(frozen=True)
class NoiseSpec:
    family: str
    modes: int
    decay_exponent: float
    amplitude: float
    flatness: int = 1

    def __post_init__(self):
        if self.family not in (SINE, POLY_FLAT):
            raise ValueError(f"noise family must be 'sine' or 'poly_flat', got {self.family!r}")
        if int(self.modes) != self.modes or self.modes < 0:
            raise ValueError(f"noise modes must be an integer >= 0, got {self.modes}")
        if not self.decay_exponent > 1.5:
            raise ValueError(
                f"noise decay_exponent must exceed 3/2 for a summable W^(1,inf) series, got {self.decay_exponent}"
            )
        if not self.amplitude >= 0.0:
            raise ValueError(f"noise amplitude must be >= 0, got {self.amplitude}")
        if self.family == POLY_FLAT and (int(self.flatness) != self.flatness or self.flatness < 1):
            raise ValueError(f"noise flatness must be an integer >= 1, got {self.flatness}")


def _sinpi(y):
    # sin(pi*y) with exact zeros at integer y
    y = np.asarray(y, dtype=float)
    n = np.round(y)
    s = np.sin(np.pi * (y - n))
    return np.where(n.astype(np.int64) % 2 == 0, s, -s)


def _cospi(y):
    y = np.asarray(y, dtype=float)
    n = np.round(y)
    c = np.cos(np.pi * (y - n))
    return np.where(n.astype(np.int64) % 2 == 0, c, -c)


def _mode_indices(spec: NoiseSpec, ndim: int):
    return np.arange(1, spec.modes + 1, dtype=float).reshape((-1,) + (1,) * ndim)


def mode_values(spec: NoiseSpec, v):
    """h_k(v) for k = 1..modes, stacked on a new leading axis."""
    v = np.asarray(v, dtype=float)
    k = _mode_indices(spec, v.ndim)
    h = spec.amplitude * k ** (-spec.decay_exponent) * _sinpi(k * (1.0 + v) / 2.0)
    if spec.family == POLY_FLAT:
        h = h * (1.0 - v * v) ** spec.flatness
    return h


def mode_derivatives(spec: NoiseSpec, v):
    """h_k'(v), same layout as mode_values."""
    v = np.asarray(v, dtype=float)
    k = _mode_indices(spec, v.ndim)
    amp = spec.amplitude * k ** (-spec.decay_exponent)
    y = k * (1.0 + v) / 2.0
    if spec.family == SINE:
        return amp * (k * np.pi / 2.0) * _cospi(y)
    m = spec.flatness
    flat = (1.0 - v * v) ** m
    return amp * (flat * (k * np.pi / 2.0) * _cospi(y) - 2.0 * m * v * (1.0 - v * v) ** (m - 1) * _sinpi(y))


def mode_w1inf_bounds(spec: NoiseSpec) -> np.ndarray:
    """Per-mode analytic upper bounds for ||h_k||_{W^{1,inf}} = sup|h| + sup|h'|.

    sine: both sups are attained, so the bound is exact.  poly_flat gets the
    coarse but safe sup|h'| <= sigma0 k^(-s) (k pi/2 + 2m).
    """
    if spec.modes == 0:
        return np.zeros(0)
    k = np.arange(1, spec.modes + 1, dtype=float)
    extra = 0.0 if spec.family == SINE else 2.0 * spec.flatness
    return spec.amplitude * k ** (-spec.decay_exponent) * (1.0 + extra + k * np.pi / 2.0)


def cb_tail_bound(spec: NoiseSpec) -> float:
    """Integral bound on sum_{k > modes} ||h_k||^2 for the untruncated family."""
    if spec.modes == 0:
        return 0.0
    s = spec.decay_exponent
    a = 1.0 + (0.0 if spec.family == SINE else 2.0 * spec.flatness)
    b = np.pi / 2.0
    # ||h_k||^2 <= sigma0^2 k^(2-2s) (b + a/k)^2, decreasing beyond the cutoff
    coef = spec.amplitude**2 * (b + a / (spec.modes + 1)) ** 2
    return float(coef * spec.modes ** (3.0 - 2.0 * s) / (2.0 * s - 3.0))


def cb_bound(spec: NoiseSpec) -> float:
    """Upper bound on C_B = sum_k ||h_k||^2_{W^{1,inf}}.

    Exact partial sum over the active modes plus the analytic tail bound;
    zero when the family is empty (modes = 0, deterministic dynamics).
    """
    if spec.modes == 0:
        return 0.0
    partial = float(np.sum(mode_w1inf_bounds(spec) ** 2))
    return partial + cb_tail_bound(spec)


def counter_normals(seed: int, purpose: int, index_a: int, index_b: int, n: int) -> np.ndarray:
    """n standard normals from the Philox stream keyed (seed, purpose, index_a, index_b).

    Each variate is the inverse normal CDF of one 53-bit uniform, so the
    k-th value is a pure function of the key and k.
    """
    if n == 0:
        return np.zeros(0)
    # an explicit uint64 key: a plain list would round seeds above 2^53 through float64
    key = np.array([seed, _KEY_SALT], dtype=np.uint64)
    bg = np.random.Philox(counter=[0, purpose, index_a, index_b], key=key)
    raw = bg.random_raw(n)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u)


def sample_increment_block(seed: int, replicates: int, step: int, spec: NoiseSpec, dt: float) -> np.ndarray:
    """Increments ~ Normal(0, dt) for replicates 0..M-1 at one step, shape (M, modes).

    Row rep holds modes 1..K of the stream keyed (seed, rep, step).
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    out = np.empty((replicates, spec.modes))
    for rep in range(replicates):
        out[rep] = counter_normals(seed, CTR_INCREMENTS, step, rep, spec.modes)
    return np.sqrt(dt) * out


def _mapped_state(spec: NoiseSpec, u, level: YosidaLevel | None):
    u = np.asarray(u, dtype=float)
    if level is not None:
        return resolvent(level, u)
    if np.any(np.abs(u) > 1.0):
        raise ValueError("diffusion operator without a Yosida level requires ||u||_inf <= 1")
    return u


def mix_modes(spec: NoiseSpec, v, dw, field_ndim: int):
    """sum_k h_k(v) dW_k for an already-mapped state v in [-1, 1] (the scheme uses v = J_lam(u)).

    dw must have shape v.shape[:-field_ndim] + (modes,): one increment
    vector per leading batch entry, broadcast over the field axes.

    The sum is sin(theta) * sum_k c_k U_{k-1}(cos(theta)), c_k = sigma0 k^(-s) dW_k,
    summed by Clenshaw's recurrence in Reinsch's form: theta is folded into
    t in [0, pi/2] (sin(k(pi - t)) = (-1)^(k+1) sin(kt) flips the even modes
    where v > 0), and with mu = 2cos(t) - 2 = -4 sin^2(t/2) taken without
    cancellation, d_k = c_k + mu b_{k+1} + d_{k+1}, b_k = d_k + b_{k+1}, from
    b = d = 0 down to b_1.  Rounding then grows like k*eps, as in the direct
    sum, where the plain recurrence in cos(t) ~ 1 grows like k^2*eps.  Only a
    few field-sized buffers are used, never a modes x field tensor.
    """
    v = np.asarray(v, dtype=float)
    if spec.modes == 0:
        return np.zeros_like(v)
    y = 0.5 * (1.0 - np.abs(v))  # t = pi*y, the folded theta
    sin_t = _sinpi(y)
    mu = -2.0 * sin_t * sin_t / (1.0 + _cospi(y))
    flip = np.where(v > 0.0, -1.0, 1.0)
    k = _mode_indices(spec, 0)
    coef = np.asarray(dw, dtype=float) * (spec.amplitude * k ** (-spec.decay_exponent))
    coef = np.moveaxis(coef, -1, 0)
    coef = coef.reshape(coef.shape + (1,) * field_ndim)
    shape = np.broadcast_shapes(v.shape, coef.shape[1:])
    b, d, tmp = np.zeros(shape), np.zeros(shape), np.empty(shape)
    for j in range(spec.modes - 1, -1, -1):  # mode k = j + 1, even when j is odd
        np.multiply(mu, b, out=tmp)
        d += tmp
        if j % 2:
            np.multiply(flip, coef[j], out=tmp)
            d += tmp
        else:
            d += coef[j]
        b += d
    b *= sin_t
    if spec.family == POLY_FLAT:
        b *= (1.0 - v * v) ** spec.flatness
    return b


def hs_norm_sq(spec: NoiseSpec, grid, u, level: YosidaLevel | None = None):
    """Squared Hilbert-Schmidt norm sum_k ||h_k(v)||_H^2 in the discrete H-norm."""
    u = np.asarray(u, dtype=float)
    if spec.modes == 0:
        return np.zeros(u.shape[: u.ndim - grid.dim]) if u.ndim > grid.dim else 0.0
    v = _mapped_state(spec, u, level)
    h = mode_values(spec, v)
    axes = (0,) + tuple(range(h.ndim - grid.dim, h.ndim))
    return np.sum(h * h, axis=axes) * grid.cell_volume
