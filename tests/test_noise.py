import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtri

from helpers import measure, mode_values
from logac import noise as nz
from logac.grid import Grid
from logac.potential import resolvent_map


def spec_sine(modes=4, s=2.0, sigma0=1.0):
    return nz.NoiseSpec(family="sine", modes=modes, decay_exponent=s, amplitude=sigma0)


def spec_flat(modes=4, s=2.0, sigma0=1.0, m=2):
    return nz.NoiseSpec(family="poly_flat", modes=modes, decay_exponent=s, amplitude=sigma0, flatness=m)


class TestSpecValidation:
    def test_decay_exponent_floor(self):
        with pytest.raises(ValueError, match="3/2"):
            nz.NoiseSpec(family="sine", modes=4, decay_exponent=1.5, amplitude=1.0)

    def test_bad_family(self):
        with pytest.raises(ValueError):
            nz.NoiseSpec(family="white", modes=4, decay_exponent=2.0, amplitude=1.0)

    def test_negative_modes(self):
        with pytest.raises(ValueError):
            nz.NoiseSpec(family="sine", modes=-1, decay_exponent=2.0, amplitude=1.0)


def draw(seed, replicate, step, spec, dt):
    """Increments of one replicate: row `replicate` of the step's block."""
    return nz.sample_increment_block(seed, replicate + 1, step, spec, dt)[replicate]


class TestIncrements:
    def test_empty(self):
        assert nz.sample_increment_block(1, 3, 0, spec_sine(modes=0), 0.1).shape == (3, 0)

    def test_deterministic(self):
        spec = spec_sine(modes=8)
        a = nz.sample_increment_block(123, 5, 17, spec, 1e-3)
        b = nz.sample_increment_block(123, 5, 17, spec, 1e-3)
        assert np.array_equal(a, b)

    def test_keys_separate_streams(self):
        spec = spec_sine(modes=8)
        base = draw(123, 4, 17, spec, 1e-3)
        assert not np.array_equal(draw(124, 4, 17, spec, 1e-3), base)
        assert not np.array_equal(draw(123, 5, 17, spec, 1e-3), base)
        assert not np.array_equal(draw(123, 4, 18, spec, 1e-3), base)

    def test_seeds_above_2_53_separate_streams(self):
        # 2^53 and 2^53 + 1 collide if the Philox key passes through float64
        spec = spec_sine(modes=8)
        a = nz.sample_increment_block(2**53, 3, 0, spec, 1e-3)
        b = nz.sample_increment_block(2**53 + 1, 3, 0, spec, 1e-3)
        assert not np.array_equal(a, b)

    def test_block_matches_single_draws(self):
        # row rep is the counter stream keyed (seed, rep, step), scaled by sqrt(dt)
        spec = spec_sine(modes=5)
        block = nz.sample_increment_block(7, 6, 3, spec, 0.25)
        for rep in range(6):
            z = nz.counter_normals(7, nz.CTR_INCREMENTS, 3, rep, spec.modes)
            assert np.array_equal(block[rep], np.sqrt(0.25) * z)
            assert np.array_equal(draw(7, rep, 3, spec, 0.25), block[rep])

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        purpose=st.sampled_from([nz.CTR_INCREMENTS, nz.CTR_INITIAL_DATUM]),
        index_a=st.integers(0, 2**63),
        first_b=st.integers(0, 2**63),
        reps=st.integers(1, 70),
        n=st.integers(0, 17),
    )
    def test_array_kernel_matches_numpy_philox(self, seed, purpose, index_a, first_b, reps, n):
        # every stream of the block is what numpy's own Philox4x64-10 draws for its key
        index_b = first_b + np.arange(reps, dtype=np.uint64)
        got = nz.counter_normals(seed, purpose, index_a, index_b, n)
        assert got.shape == (reps, n)
        key = np.array([seed, nz._KEY_SALT], dtype=np.uint64)
        for row, b in zip(got, index_b):
            ctr = np.array([0, purpose, index_a, b], dtype=np.uint64)
            raw = np.random.Philox(counter=ctr, key=key).random_raw(n)
            ref = ndtri((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54)
            assert np.array_equal(row, ref)

    @pytest.mark.parametrize("replicates", [1, 2, 7])
    def test_blocks_are_c_ordered(self, replicates):
        # the engine hashes each block's buffer as it lies, so every mode count must come C-ordered
        for modes in range(1, 18):
            block = nz.sample_increment_block(1, replicates, 3, spec_sine(modes=modes), 1e-3)
            assert block.shape == (replicates, modes)
            assert block.flags.c_contiguous, modes

    def test_moments(self):
        # 1e5 draws of Normal(0, dt): mean and variance inside 4-sigma bands
        spec = nz.NoiseSpec(family="sine", modes=10, decay_exponent=2.0, amplitude=1.0)
        dt = 0.3
        draws = np.concatenate(
            [nz.sample_increment_block(2024, 1000, step, spec, dt).ravel() for step in range(10)]
        )
        n = draws.size
        assert n == 100000
        se_mean = math.sqrt(dt / n)
        assert abs(np.mean(draws)) < 4 * se_mean
        var = np.var(draws)
        se_var = dt * math.sqrt(2.0 / (n - 1))
        assert abs(var - dt) < 4 * se_var


class TestDiffusionField:
    # the noise field of one step is mix_modes(spec, J_lam(u), dW); v = u at the pure phases
    def test_shutoff_at_extremes(self):
        spec = spec_sine(modes=6)
        dw = draw(0, 0, 0, spec, 1e-2)
        u = np.ones(12)
        out = nz.mix_modes(spec, u, dw, 1)
        assert np.all(out == 0.0)
        u[3] = -1.0
        u[7] = 0.4
        out = nz.mix_modes(spec, u, dw, 1)
        assert out[3] == 0.0 and out[0] == 0.0
        assert out[7] != 0.0

    def test_no_modes_zero_field(self):
        for spec in (spec_sine(modes=0), spec_flat(modes=0)):
            for v in (np.zeros(5), np.array([-1.0, -0.5, -0.0, 0.5, 1.0])):
                out = nz.mix_modes(spec, v, np.zeros(0), 1)
                assert out.shape == (5,)
                assert np.all(out == 0.0)
                assert not np.any(np.signbit(out))  # +0.0 zeros, as from np.zeros

    def test_single_mode_closed_form(self):
        spec = spec_sine(modes=1, sigma0=0.7)
        delta = 0.321
        out = nz.mix_modes(spec, np.zeros(9), np.array([delta]), 1)
        # h_1(0) = sigma0 sin(pi/2) = sigma0 exactly
        assert np.all(out == 0.7 * delta)

    def test_level_maps_state_inside(self):
        spec = spec_sine()
        u = np.array([0.0, 3.5, -8.0])
        v = resolvent_map(0.2, u)
        assert np.all(np.abs(v) < 1.0)
        assert np.all(np.isfinite(nz.mix_modes(spec, v, draw(0, 0, 0, spec, 1e-2), 1)))

    def test_batched_alignment(self):
        spec = spec_sine(modes=3)
        u = np.zeros((2, 5))
        dw = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        out = nz.mix_modes(spec, u, dw, 1)
        assert np.all(out[1] == 0.0)
        assert np.all(out[0] == spec.amplitude)


def direct_sum(spec, v, dw, field_ndim):
    """sum_k h_k(v) dW_k with every profile h_k materialised."""
    w = np.moveaxis(dw, -1, 0)
    return np.sum(mode_values(spec, v) * w.reshape(w.shape + (1,) * field_ndim), axis=0)


@st.composite
def mixing_cases(draw):
    spec = nz.NoiseSpec(
        family=draw(st.sampled_from([nz.SINE, nz.POLY_FLAT])),
        modes=draw(st.integers(1, 32)),
        decay_exponent=draw(st.floats(1.6, 4.0)),
        amplitude=draw(st.floats(0.05, 2.0)),
        flatness=draw(st.integers(1, 3)),
    )
    batch = (draw(st.integers(1, 3)), draw(st.integers(1, 4)))  # lanes x replicates
    field = draw(st.sampled_from([(9,), (4, 5)]))
    ends = st.sampled_from([-1.0, 1.0])
    v = draw(hnp.arrays(float, batch + field, elements=st.one_of(ends, st.floats(-1.0, 1.0))))
    # increments are N(0, dt) draws: zero or at least 1e-6 in size, never subnormal
    sizes = st.just(0.0) | st.floats(1e-6, 3.0) | st.floats(-3.0, -1e-6)
    dw = draw(hnp.arrays(float, batch + (spec.modes,), elements=sizes))
    return spec, v, dw, len(field)


class TestClenshawMixing:
    @settings(max_examples=150, deadline=None)
    @given(mixing_cases())
    def test_matches_direct_sum(self, case):
        spec, v, dw, field_ndim = case
        out = nz.mix_modes(spec, v, dw, field_ndim)
        ref = direct_sum(spec, v, dw, field_ndim)
        assert out.shape == ref.shape
        # 1e-14 per unit of a_k |dW_k|, growing like k beyond mode 8: the direct
        # sum rounds the phase k(1+v)/2 itself, which costs it up to about
        # 3.5e-16 k a_k |dW_k| (1.1e-14 a_31 against a 30-digit evaluation)
        k = np.arange(1, spec.modes + 1)
        a = spec.amplitude * k ** (-spec.decay_exponent)
        tol = 1e-14 * np.sum(np.maximum(1.0, k / 8.0) * a * np.abs(dw), axis=-1)
        assert np.all(np.abs(out - ref) <= tol.reshape(tol.shape + (1,) * field_ndim))
        assert np.all(out[np.abs(v) == 1.0] == 0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double")
    def test_rounding_grows_like_k(self):
        # against sin(k theta) in long double, mode k errs by at most 6e-16 k a_k
        # (4.1e-16 k measured), like the direct sum; the plain three-term
        # recurrence reaches 1.0e-15 k a_k at k = 32
        spec = spec_sine(modes=32)
        v = np.random.default_rng(5).uniform(-1.0, 1.0, 20000)
        pi = 4.0 * np.arctan(np.longdouble(1.0))
        for k in range(1, 33):
            y = k * (1.0 + v.astype(np.longdouble)) / 2.0
            n = np.round(y)
            exact = np.where(n % 2 == 0, 1.0, -1.0) * np.sin(pi * (y - n))
            dw = np.zeros(32)
            dw[k - 1] = 1.0
            a_k = spec.amplitude * k ** (-spec.decay_exponent)
            err = np.max(np.abs(nz.mix_modes(spec, v, dw, 1) - a_k * exact))
            assert err <= 6e-16 * k * a_k

    @pytest.mark.parametrize("modes", [16, 64])
    def test_peak_memory_is_a_few_field_batches(self, modes):
        # the reference block: 4 lanes x 64 replicates x 128 cells; materialising
        # the profiles would take modes field batches at the least
        rng = np.random.default_rng(0)
        v = rng.uniform(-1.0, 1.0, size=(4, 64, 128))
        dw = np.broadcast_to(rng.normal(size=(64, modes)), (4, 64, modes))
        spec = spec_flat(modes=modes, m=2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nz.mix_modes(spec, v, dw, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 12 * v.nbytes


def hs_norm_sq(spec, g, v):
    """Squared Hilbert-Schmidt norm sum_k ||h_k(v)||_H^2 in the discrete H-norm."""
    return np.sum(mode_values(spec, v) ** 2) * g.cell_volume


def lipschitz_sq(spec):
    """sum_k sup|h_k'|^2 from sup|h_k'| <= sigma0 k^(-s) (k pi/2 + 2m), m = 0 for sine."""
    k = np.arange(1, spec.modes + 1)
    extra = 0.0 if spec.family == nz.SINE else 2.0 * spec.flatness
    return float(np.sum((spec.amplitude * k ** (-spec.decay_exponent) * (k * np.pi / 2.0 + extra)) ** 2))


class TestHsNorm:
    def test_zero_at_pure_phases(self):
        g = Grid(extent=(2.0,), cells=(16,))
        spec = spec_sine(modes=5)
        assert hs_norm_sq(spec, g, np.ones(16)) == 0.0
        assert hs_norm_sq(spec, g, -np.ones(16)) == 0.0

    def test_single_mode_value(self):
        g = Grid(extent=(2.0,), cells=(16,))
        spec = spec_sine(modes=1, sigma0=0.5)
        val = hs_norm_sq(spec, g, np.zeros(16))
        assert val == pytest.approx(0.25 * measure(g), rel=1e-14)

    def test_lipschitz_in_state(self):
        # ||B(x) - B(y)||_HS <= L ||x - y||_H on random pairs, L^2 = sum_k sup|h_k'|^2
        g = Grid(extent=(1.0,), cells=(64,))
        rng = np.random.default_rng(42)
        for spec in (spec_sine(modes=10, sigma0=0.6), spec_flat(modes=10, sigma0=0.6, m=2)):
            lip_sq = lipschitz_sq(spec)
            for _ in range(25):
                x = rng.uniform(-1, 1, size=64)
                y = rng.uniform(-1, 1, size=64)
                hs = np.sum((mode_values(spec, x) - mode_values(spec, y)) ** 2) * g.cell_volume
                assert hs <= lip_sq * np.sum((x - y) ** 2) * g.cell_volume * (1 + 1e-12)


class TestFlatness:
    @pytest.mark.parametrize("m", [2, 3])
    def test_derivatives_vanish_at_extremes(self, m):
        # central differences of h_k at +-1 of orders 0..m-1 vanish as O(h^2)
        spec = spec_flat(modes=3, m=m)

        def fd(order, r0, h):
            offsets = np.arange(-order, order + 1, 2) if order else np.array([0])
            # simple binomial central stencil
            coeffs = np.array([math.comb(order, i) * (-1) ** i for i in range(order + 1)])
            pts = r0 + (order / 2 - np.arange(order + 1)) * 2 * h / max(order, 1)
            if order == 0:
                return mode_values(spec, np.array([r0]))[:, 0]
            vals = mode_values(spec, pts)
            return vals @ coeffs / (2 * h / max(order, 1)) ** order

        for r0 in (1.0, -1.0):
            for order in range(m):
                e1 = np.max(np.abs(fd(order, r0, 1e-2)))
                e2 = np.max(np.abs(fd(order, r0, 5e-3)))
                assert e1 < 1e-2
                if e1 > 1e-12:
                    assert e2 < 0.5 * e1

    def test_flat_value_and_slope_zero_at_extremes(self):
        # h_k = O(eps^3) at distance eps from +-1: (1 - r^2)^2 = O(eps^2), sin = O(eps)
        spec = spec_flat(modes=4, m=2)
        assert np.all(mode_values(spec, np.array([1.0, -1.0])) == 0.0)
        for eps in (1e-2, 1e-3):
            h = mode_values(spec, np.array([1.0 - eps, -1.0 + eps]))
            assert np.all(np.abs(h) <= 10.0 * eps**3)
