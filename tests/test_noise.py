import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logac import noise as nz
from logac.grid import Grid
from logac.potential import YosidaLevel, resolvent_map


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


class TestCbBound:
    def test_empty_family(self):
        assert nz.cb_bound(spec_sine(modes=0)) == 0.0

    def test_single_sine_mode_partial_sum(self):
        # sup|h_1| = sigma0, sup|h_1'| = sigma0 pi/2, so the active-mode
        # contribution is exactly (1 + pi/2)^2
        spec = spec_sine(modes=1, s=2.0, sigma0=1.0)
        partial = float(np.sum(nz.mode_w1inf_bounds(spec) ** 2))
        assert partial == pytest.approx((1.0 + math.pi / 2.0) ** 2, rel=1e-14)
        assert nz.cb_bound(spec) == pytest.approx(partial + nz.cb_tail_bound(spec), rel=1e-14)
        assert nz.cb_tail_bound(spec) > 0.0

    def test_bound_dominates_sampled_series(self):
        # per-mode bounds must dominate dense-grid sups of |h| + |h'|
        r = np.linspace(-1.0, 1.0, 20001)
        for spec in (spec_sine(modes=6), spec_flat(modes=6, m=3)):
            h = nz.mode_values(spec, r)
            hp = nz.mode_derivatives(spec, r)
            sampled = np.max(np.abs(h), axis=1) + np.max(np.abs(hp), axis=1)
            assert np.all(nz.mode_w1inf_bounds(spec) >= sampled - 1e-12)

    @given(st.floats(min_value=0.1, max_value=4.0))
    def test_amplitude_homogeneity(self, sigma0):
        base = nz.cb_bound(spec_sine(sigma0=1.0))
        scaled = nz.cb_bound(spec_sine(sigma0=sigma0))
        assert scaled == pytest.approx(sigma0**2 * base, rel=1e-12)

    def test_tail_dominates_truncated_remainder(self):
        # bound computed with K modes must dominate the partial sum with many more
        spec_small = spec_sine(modes=8)
        spec_large = spec_sine(modes=4096)
        far_sum = float(np.sum(nz.mode_w1inf_bounds(spec_large) ** 2))
        assert nz.cb_bound(spec_small) >= far_sum


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

    def test_block_matches_single_draws(self):
        # row rep is the counter stream keyed (seed, rep, step), scaled by sqrt(dt)
        spec = spec_sine(modes=5)
        block = nz.sample_increment_block(7, 6, 3, spec, 0.25)
        for rep in range(6):
            z = nz.counter_normals(7, nz.CTR_INCREMENTS, 3, rep, spec.modes)
            assert np.array_equal(block[rep], np.sqrt(0.25) * z)
            assert np.array_equal(draw(7, rep, 3, spec, 0.25), block[rep])

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
        out = nz.mix_modes(spec_sine(modes=0), np.zeros(5), np.zeros(0), 1)
        assert out.shape == (5,)
        assert np.all(out == 0.0)

    def test_single_mode_closed_form(self):
        spec = spec_sine(modes=1, sigma0=0.7)
        delta = 0.321
        out = nz.mix_modes(spec, np.zeros(9), np.array([delta]), 1)
        # h_1(0) = sigma0 sin(pi/2) = sigma0 exactly
        assert np.all(out == 0.7 * delta)

    def test_domain_error_without_level(self):
        g = Grid(extent=(1.0,), cells=(2,))
        with pytest.raises(ValueError, match="inf"):
            nz.hs_norm_sq(spec_sine(), g, np.array([0.0, 1.2]), None)

    def test_level_maps_state_inside(self):
        spec = spec_sine()
        u = np.array([0.0, 3.5, -8.0])
        v = resolvent_map(0.2, u)
        assert np.all(np.abs(v) < 1.0)
        assert np.all(np.isfinite(nz.mix_modes(spec, v, draw(0, 0, 0, spec, 1e-2), 1)))
        g = Grid(extent=(1.0,), cells=(3,))
        assert nz.hs_norm_sq(spec, g, u, YosidaLevel(0.2)) == nz.hs_norm_sq(spec, g, v, None)

    def test_batched_alignment(self):
        spec = spec_sine(modes=3)
        u = np.zeros((2, 5))
        dw = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        out = nz.mix_modes(spec, u, dw, 1)
        assert np.all(out[1] == 0.0)
        assert np.all(out[0] == spec.amplitude)


class TestHsNorm:
    def test_zero_at_pure_phases(self):
        g = Grid(extent=(2.0,), cells=(16,))
        spec = spec_sine(modes=5)
        assert nz.hs_norm_sq(spec, g, np.ones(16), None) == 0.0
        assert nz.hs_norm_sq(spec, g, -np.ones(16), None) == 0.0

    def test_single_mode_value(self):
        g = Grid(extent=(2.0,), cells=(16,))
        spec = spec_sine(modes=1, sigma0=0.5)
        val = nz.hs_norm_sq(spec, g, np.zeros(16), None)
        assert val == pytest.approx(0.25 * g.measure, rel=1e-14)

    def test_dominated_by_cb_bound(self):
        g = Grid(extent=(1.5,), cells=(32,))
        rng = np.random.default_rng(0)
        spec = spec_sine(modes=12, sigma0=0.8)
        bound = nz.cb_bound(spec) * g.measure
        for _ in range(20):
            u = rng.uniform(-1, 1, size=32)
            assert nz.hs_norm_sq(spec, g, u, None) <= bound

    def test_lipschitz_in_state(self):
        # ||B(x) - B(y)||_HS <= sqrt(C_B) ||x - y||_H on random pairs
        g = Grid(extent=(1.0,), cells=(64,))
        rng = np.random.default_rng(42)
        for spec in (spec_sine(modes=10, sigma0=0.6), spec_flat(modes=10, sigma0=0.6, m=2)):
            cb = nz.cb_bound(spec)
            for _ in range(25):
                x = rng.uniform(-1, 1, size=64)
                y = rng.uniform(-1, 1, size=64)
                hs = np.sum((nz.mode_values(spec, x) - nz.mode_values(spec, y)) ** 2) * g.cell_volume
                assert hs <= cb * np.sum((x - y) ** 2) * g.cell_volume * (1 + 1e-12)


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
                return nz.mode_values(spec, np.array([r0]))[:, 0]
            vals = nz.mode_values(spec, pts)
            return vals @ coeffs / (2 * h / max(order, 1)) ** order

        for r0 in (1.0, -1.0):
            for order in range(m):
                e1 = np.max(np.abs(fd(order, r0, 1e-2)))
                e2 = np.max(np.abs(fd(order, r0, 5e-3)))
                assert e1 < 1e-2
                if e1 > 1e-12:
                    assert e2 < 0.5 * e1

    def test_flat_value_and_slope_zero_at_extremes(self):
        spec = spec_flat(modes=4, m=2)
        h = nz.mode_values(spec, np.array([1.0, -1.0]))
        hp = nz.mode_derivatives(spec, np.array([1.0, -1.0]))
        assert np.all(h == 0.0)
        assert np.all(hp == 0.0)
