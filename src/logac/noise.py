"""Truncated cylindrical Wiener noise and the state-dependent diffusion operator.

The diffusion coefficients are scalar profiles h_k of the state value that
vanish at +-1, so the noise shuts off at the pure phases:

    sine:      h_k(r) = sigma0 * k^(-s) * sin(k*pi*(1+r)/2)
    poly_flat: h_k(r) = sigma0 * k^(-s) * (1-r^2)^m * sin(k*pi*(1+r)/2)

With s > 3/2 the W^{1,inf} series sum_k ||h_k||^2 converges (NoiseSpec
rejects any smaller s); poly_flat additionally kills the first m
derivatives at the endpoints.

mix_modes never builds the profiles one by one.  With theta = pi*(1+v)/2,
sin(k*theta) = sin(theta) * U_{k-1}(cos(theta)) (Chebyshev, second kind),
so sum_k h_k(v) dW_k is sin(theta) times a Clenshaw sum in cos(theta).
theta is folded into t = pi*(1-|v|)/2 in [0, pi/2], and sin(t) = sin(0) is
exactly 0 at v = +-1, so the noise is an exact 0.0 at the pure phases
whatever the recurrence rounds to.

Increments come from counter streams: the stream keyed (seed, purpose, a, b)
is numpy's Philox4x64-10 with key (seed, _KEY_SALT), started at counter
(0, purpose, a, b).  Philox is a pure function of (counter, key) (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so
_philox4x64 evaluates it for every stream of a step in one array pass,
bit for bit what numpy's Philox bit generator returns from random_raw.
Increments are keyed (seed, step, replicate), so coupled runs across
regularization levels or data perturbations consume bit-identical noise
and execution order can never change results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

# not called here: perfbench/spans.py traces the resolvent as nz.resolvent
from .potential import resolvent_map as resolvent  # noqa: F401

SINE = "sine"
POLY_FLAT = "poly_flat"

# second Philox key word: 0x9E3779B97F4A7C15 rounded to float64, the
# value every existing stream (and every pinned digest) was keyed with
_KEY_SALT = 0x9E3779B97F4A8000
# counter[1] tags the purpose of a stream so independent consumers never collide
CTR_INCREMENTS = 0
CTR_INITIAL_DATUM = 1

# Philox4x64 round multipliers and Weyl key increments (Random123, as in numpy)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _S32


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
        if self.modes < 0:
            raise ValueError(f"noise modes must be >= 0, got {self.modes}")
        if not self.decay_exponent > 1.5:
            raise ValueError(
                f"noise decay_exponent must exceed 3/2 for a summable W^(1,inf) series, got {self.decay_exponent}"
            )
        if not self.amplitude >= 0.0:
            raise ValueError(f"noise amplitude must be >= 0, got {self.amplitude}")
        if self.family == POLY_FLAT and self.flatness < 1:
            raise ValueError(f"noise flatness must be >= 1, got {self.flatness}")


def _mode_indices(spec: NoiseSpec, ndim: int):
    return np.arange(1, spec.modes + 1, dtype=float).reshape((-1,) + (1,) * ndim)


def _philox4x64(ctr, key):
    """Philox4x64-10 of counters ctr (4 words x L streams) under key (2 x 1), as (4, L) uint64.

    Words 0 and 2 are multiplied, words 1 and 3 are xored in, so each round
    works on the (2, L) pairs x02 and x13.  The high halves of the 64x64-bit
    products come from 32-bit halves, whose partial products and carry sums
    fit in uint64; the low halves are the wrapping uint64 products.
    """
    x02, x13 = ctr[0::2], ctr[1::2]
    for r in range(_PHILOX_ROUNDS):
        if r:
            key = key + _PHILOX_W
        lo, hi = x02 & _LO32, x02 >> _S32
        lo_m_lo = lo * _M_LO
        hi_m_lo = hi * _M_LO
        mid = (lo_m_lo >> _S32) + (hi_m_lo & _LO32) + lo * _M_HI
        mul_hi = hi * _M_HI + (hi_m_lo >> _S32) + (mid >> _S32)
        x02, x13 = mul_hi[::-1] ^ x13 ^ key, (x02 * _PHILOX_M)[::-1]
    return np.stack((x02[0], x13[0], x02[1], x13[1]))


def counter_normals(seed: int, purpose: int, index_a: int, index_b, n: int) -> np.ndarray:
    """n standard normals from each stream keyed (seed, purpose, index_a, b), b in index_b.

    Returns index_b.shape + (n,).  numpy's Philox increments counter word 0
    before each block of 4 outputs, so the k-th raw output (k = 0..n-1) is
    word k % 4 of block counter (k // 4 + 1, purpose, index_a, b).  Each
    variate is the inverse normal CDF of one 53-bit uniform, so the k-th
    value is a pure function of the key and k.
    """
    b = np.asarray(index_b, dtype=np.uint64)
    blocks = -(-n // 4)
    ctr = np.empty((4, b.size, blocks), dtype=np.uint64)
    ctr[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    ctr[1] = purpose
    ctr[2] = index_a
    ctr[3] = b.reshape(-1, 1)
    # an explicit uint64 key: a plain list would round seeds above 2^53 through float64
    key = np.array([[seed], [_KEY_SALT]], dtype=np.uint64)
    raw = _philox4x64(ctr.reshape(4, -1), key).reshape(4, b.size, blocks)
    raw = raw.transpose(1, 2, 0).reshape(b.size, 4 * blocks)[:, :n]
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u).reshape(b.shape + (n,))


def sample_increment_block(seed: int, replicates: int, step: int, spec: NoiseSpec, dt: float) -> np.ndarray:
    """Increments ~ Normal(0, dt) for replicates 0..M-1 at one step, shape (M, modes).

    Row rep holds modes 1..K of the stream keyed (seed, step, rep).
    """
    return np.sqrt(dt) * counter_normals(seed, CTR_INCREMENTS, step, np.arange(replicates), spec.modes)


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
    t = np.pi * (0.5 * (1.0 - np.abs(v)))  # the folded theta
    sin_t = np.sin(t)
    mu = -2.0 * sin_t * sin_t / (1.0 + np.cos(t))
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
