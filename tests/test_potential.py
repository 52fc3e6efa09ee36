import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from logac import potential as pot

LN3 = 1.0986122886681098


def bisect_resolvent(lam, x, iters=200):
    """Independent oracle: plain bisection for r + lam*beta(r) = x on (-1, 1)."""
    beta = lambda r: math.log1p(r) - math.log1p(-r)
    lo, hi = np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid + lam * beta(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBetaFamily:
    def test_at_zero(self):
        beta, beta_prime, beta_hat = pot.beta_family_eval(0.0)
        assert beta == 0.0
        assert beta_prime == 2.0
        assert beta_hat == 0.0

    def test_at_half(self):
        beta, beta_prime, beta_hat = pot.beta_family_eval(0.5)
        assert beta == pytest.approx(LN3, abs=1e-15)
        assert beta_prime == pytest.approx(8.0 / 3.0, abs=1e-15)
        # primitive checked against quadrature of beta
        q, _ = quad(lambda s: math.log1p(s) - math.log1p(-s), 0.0, 0.5)
        assert beta_hat == pytest.approx(q, abs=1e-12)
        assert beta_hat == pytest.approx(0.2616240718822739, abs=1e-15)

    @given(st.floats(min_value=1e-6, max_value=0.999999))
    def test_symmetry(self, r):
        bp, _, bhp = pot.beta_family_eval(r)
        bm, _, bhm = pot.beta_family_eval(-r)
        assert bm == -bp
        assert bhm == bhp

    @given(st.floats(min_value=-0.999, max_value=0.999))
    def test_primitive_derivative(self, r):
        eps = 1e-6
        if abs(r) > 0.998:
            return
        _, _, hp = pot.beta_family_eval(r + eps)
        _, _, hm = pot.beta_family_eval(r - eps)
        beta, _, _ = pot.beta_family_eval(r)
        assert (hp - hm) / (2 * eps) == pytest.approx(beta, abs=1e-8 * (1 + abs(beta)))

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.5, np.inf])
    def test_domain_error(self, r):
        with pytest.raises(ValueError):
            pot.beta_family_eval(r)


class TestPotentialEval:
    def test_logarithmic_at_zero(self):
        params = pot.logarithmic_params(c=2.0)
        F, F1, F2 = pot.potential_eval(params, 0.0)
        assert F == params.K
        assert F1 == 0.0
        assert F2 == 2.0 - 2.0 * params.c

    def test_logarithmic_slope_value(self):
        params = pot.PotentialParams(kind="logarithmic", c=2.0, K=pot.default_offset(2.0))
        _, F1, _ = pot.potential_eval(params, 0.9)
        assert F1 == pytest.approx(math.log(19.0) - 3.6, abs=1e-14)

    def test_default_offset_normalizes(self):
        params = pot.logarithmic_params(c=2.0)
        assert params.K == pytest.approx(0.6530477748538479, abs=1e-13)
        r = np.linspace(-0.99999, 0.99999, 20001)
        F, _, _ = pot.potential_eval(params, r)
        assert np.min(F) >= -1e-10
        assert np.min(F) <= 1e-6  # the well bottoms touch zero

    def test_insufficient_offset_rejected(self):
        with pytest.raises(ValueError, match="leaves F negative"):
            pot.PotentialParams(kind="logarithmic", c=2.0, K=0.1)

    def test_c_must_exceed_one(self):
        with pytest.raises(ValueError, match="c must be > 1"):
            pot.PotentialParams(kind="logarithmic", c=0.5, K=0.0)


class TestResolvent:
    def test_zero_fixed_point(self):
        for lam in (0.9, 0.3, 0.01, 1e-4):
            assert pot.resolvent(pot.YosidaLevel(lam), 0.0) == 0.0

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lam = float(rng.uniform(0.05, 0.9))
            x = float(rng.uniform(-3.0, 3.0))
            r = pot.resolvent(pot.YosidaLevel(lam), x)
            assert r == pytest.approx(bisect_resolvent(lam, x), abs=1e-12)

    def test_frozen_value(self):
        r = pot.resolvent(pot.YosidaLevel(0.5), 1.0)
        assert r == pytest.approx(0.478701542999721, abs=1e-12)
        assert r == pytest.approx(bisect_resolvent(0.5, 1.0), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=0.9),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_graph_residual_and_range(self, lam, x):
        level = pot.YosidaLevel(lam)
        r, b = pot.resolvent_graph(level, x)
        assert abs(r + lam * b - x) <= 1e-10
        assert abs(r) < 1.0

    def test_nonexpansive(self):
        rng = np.random.default_rng(11)
        lam = rng.uniform(1e-4, 0.9, size=1000)
        x = rng.uniform(-10, 10, size=1000)
        y = rng.uniform(-10, 10, size=1000)
        for la in (0.3, 0.01):
            level = pot.YosidaLevel(la)
            rx = pot.resolvent(level, x)
            ry = pot.resolvent(level, y)
            assert np.all(np.abs(rx - ry) <= np.abs(x - y) * (1 + 1e-12) + 1e-14)
        rx = pot.resolvent_map(lam, x)
        ry = pot.resolvent_map(lam, y)
        assert np.all(np.abs(rx - ry) <= np.abs(x - y) * (1 + 1e-12) + 1e-14)

    def test_pointwise_convergence_monotone(self):
        # J_lam(r) -> r and beta_lam(r) -> beta(r), monotonically as lam halves
        for r0 in (0.7, -0.3, 0.95):
            beta_exact = math.log1p(r0) - math.log1p(-r0)
            lams = [0.4 / 2**j for j in range(12)]
            res = [float(pot.resolvent(pot.YosidaLevel(la), r0)) for la in lams]
            bets = [float(pot.yosida_eval(pot.YosidaLevel(la), r0)[0]) for la in lams]
            gaps = [abs(r0 - r) for r in res]
            assert all(a >= b - 1e-14 for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-3
            mags = [abs(b) for b in bets]
            assert all(a <= b + 1e-12 for a, b in zip(mags, mags[1:]))
            # leading-order Yosida bias is lam * beta(r) * beta'(r)
            bias = lams[-1] * abs(beta_exact) * 2.0 / (1.0 - r0 * r0)
            assert abs(bets[-1] - beta_exact) < 2.0 * bias + 1e-12


class TestYosida:
    def test_at_zero(self):
        for lam in (0.5, 0.1, 0.01):
            beta_l, beta_l_prime, beta_hat_l = pot.yosida_eval(pot.YosidaLevel(lam), 0.0)
            assert beta_l == 0.0
            assert beta_l_prime == pytest.approx(2.0 / (1.0 + 2.0 * lam), rel=1e-14)
            assert beta_hat_l == 0.0

    def test_frozen_value(self):
        beta_l, _, _ = pot.yosida_eval(pot.YosidaLevel(0.5), 1.0)
        J = bisect_resolvent(0.5, 1.0)
        assert beta_l == pytest.approx((1.0 - J) / 0.5, abs=1e-11)
        assert beta_l == pytest.approx(1.042596914000558, abs=1e-11)

    def test_equals_beta_of_resolvent(self):
        rng = np.random.default_rng(3)
        for lam in (0.7, 0.2, 0.02):
            level = pot.YosidaLevel(lam)
            x = rng.uniform(-0.95, 0.95, size=64)
            beta_l, _, _ = pot.yosida_eval(level, x)
            r = pot.resolvent(level, x)
            beta_at_r, _, _ = pot.beta_family_eval(r)
            assert np.allclose(beta_l, beta_at_r, atol=1e-9)

    def test_ordering_in_lambda(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-5, 5, size=1000)
        big, _, _ = pot.yosida_eval(pot.YosidaLevel(0.4), x)
        small, _, _ = pot.yosida_eval(pot.YosidaLevel(0.1), x)
        assert np.all(np.abs(big) <= np.abs(small) + 1e-10)

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(9)
        for lam in (0.5, 0.05):
            level = pot.YosidaLevel(lam)
            x = rng.uniform(-5, 5, size=500)
            y = rng.uniform(-5, 5, size=500)
            bx, _, _ = pot.yosida_eval(level, x)
            by, _, _ = pot.yosida_eval(level, y)
            assert np.all(np.abs(bx - by) <= np.abs(x - y) / lam * (1 + 1e-10) + 1e-14)

    def test_moreau_primitive_matches_quadrature(self):
        # integral of beta_lam from 0 to x vs the closed form, on [-5, 5]
        for lam in (0.3, 0.05):
            level = pot.YosidaLevel(lam)
            for x in (-5.0, -1.7, 0.4, 0.9, 2.5, 5.0):
                q, _ = quad(lambda s: float(pot.yosida_eval(level, s)[0]), 0.0, x, limit=200)
                _, _, beta_hat_l = pot.yosida_eval(level, x)
                assert abs(beta_hat_l - q) <= 1e-8

    def test_derivative_matches_finite_difference(self):
        level = pot.YosidaLevel(0.2)
        for x in (-2.0, -0.5, 0.0, 0.8, 3.0):
            eps = 1e-6
            bp, _, _ = pot.yosida_eval(level, x + eps)
            bm, _, _ = pot.yosida_eval(level, x - eps)
            _, blp, _ = pot.yosida_eval(level, x)
            assert (bp - bm) / (2 * eps) == pytest.approx(blp, rel=1e-6)

    def test_primitive_nonnegative(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-8, 8, size=2000)
        _, _, bh = pot.yosida_eval(pot.YosidaLevel(0.15), x)
        assert np.all(bh >= 0.0)


class TestRegularizedPotential:
    def test_at_zero(self):
        params = pot.logarithmic_params(c=2.0)
        for lam in (0.5, 0.05):
            Fl, Fl1, Fl2 = pot.regularized_potential_eval(params, pot.YosidaLevel(lam), 0.0)
            assert Fl == params.K
            assert Fl1 == 0.0
            assert Fl2 == pytest.approx(2.0 / (1.0 + 2.0 * lam) - 4.0, rel=1e-14)

    def test_below_sharp_potential(self):
        params = pot.logarithmic_params(c=2.0)
        r = np.linspace(-0.9999, 0.9999, 1001)
        F, _, _ = pot.potential_eval(params, r)
        for lam in (0.5, 0.1, 0.01):
            Fl, _, _ = pot.regularized_potential_eval(params, pot.YosidaLevel(lam), r)
            assert np.all(Fl <= F + 1e-12)

    def test_frozen_slope_value(self):
        params = pot.PotentialParams(kind="logarithmic", c=2.0, K=pot.default_offset(2.0))
        _, Fl1, _ = pot.regularized_potential_eval(params, pot.YosidaLevel(0.5), 1.0)
        J = bisect_resolvent(0.5, 1.0)
        assert Fl1 == pytest.approx((1.0 - J) / 0.5 - 4.0, abs=1e-11)
        assert Fl1 == pytest.approx(-2.957403085999442, abs=1e-11)

    def test_monotone_part_positive(self):
        # Fl2 + 2c = beta_lam' > 0 everywhere
        params = pot.logarithmic_params(c=2.0)
        x = np.linspace(-6, 6, 501)
        for lam in (0.9, 0.3, 0.01):
            _, _, Fl2 = pot.regularized_potential_eval(params, pot.YosidaLevel(lam), x)
            assert np.all(Fl2 + 2.0 * params.c > 0.0)


class TestGauge:
    def test_base_point(self):
        Gn, Gnp = pot.gauge_eval(pot.GaugeOrder(2), 0.0)
        assert (Gn, Gnp) == (1.0, 0.0)

    def test_closed_form(self):
        Gn, _ = pot.gauge_eval(pot.GaugeOrder(3), 0.5)
        assert Gn == pytest.approx(16.0 / 9.0, rel=1e-15)

    @given(st.floats(min_value=1e-6, max_value=0.999))
    def test_parity(self, r):
        for n in (2, 4):
            gp, gpp = pot.gauge_eval(pot.GaugeOrder(n), r)
            gm, gmp = pot.gauge_eval(pot.GaugeOrder(n), -r)
            assert gm == gp
            assert gmp == -gpp

    def test_derivative_consistency(self):
        for n in (2, 3):
            for r in (-0.6, 0.1, 0.8):
                eps = 1e-7
                gp, _ = pot.gauge_eval(pot.GaugeOrder(n), r + eps)
                gm, _ = pot.gauge_eval(pot.GaugeOrder(n), r - eps)
                _, gprime = pot.gauge_eval(pot.GaugeOrder(n), r)
                assert (gp - gm) / (2 * eps) == pytest.approx(gprime, rel=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            pot.GaugeOrder(1)
        with pytest.raises(ValueError):
            pot.gauge_eval(pot.GaugeOrder(2), 1.0)


class TestLevelValidation:
    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.1, 1.5])
    def test_lambda_range(self, lam):
        with pytest.raises(ValueError):
            pot.YosidaLevel(lam)
