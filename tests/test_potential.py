import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import beta_family_eval, default_offset, potential_eval, regularized_potential_eval
from logac import cli
from logac import experiments as ex
from logac import grid as gr
from logac import noise as nz
from logac import potential as pot
from logac import stepper

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
        beta, beta_prime, beta_hat = beta_family_eval(0.0)
        assert beta == 0.0
        assert beta_prime == 2.0
        assert beta_hat == 0.0

    def test_at_half(self):
        beta, beta_prime, beta_hat = beta_family_eval(0.5)
        assert beta == pytest.approx(LN3, abs=1e-15)
        assert beta_prime == pytest.approx(8.0 / 3.0, abs=1e-15)
        # primitive checked against quadrature of beta
        q, _ = quad(lambda s: math.log1p(s) - math.log1p(-s), 0.0, 0.5)
        assert beta_hat == pytest.approx(q, abs=1e-12)
        assert beta_hat == pytest.approx(0.2616240718822739, abs=1e-15)

    @given(st.floats(min_value=1e-6, max_value=0.999999))
    def test_symmetry(self, r):
        bp, _, bhp = beta_family_eval(r)
        bm, _, bhm = beta_family_eval(-r)
        assert bm == -bp
        assert bhm == bhp

    @given(st.floats(min_value=-0.999, max_value=0.999))
    def test_primitive_derivative(self, r):
        eps = 1e-6
        if abs(r) > 0.998:
            return
        _, _, hp = beta_family_eval(r + eps)
        _, _, hm = beta_family_eval(r - eps)
        beta, _, _ = beta_family_eval(r)
        assert (hp - hm) / (2 * eps) == pytest.approx(beta, abs=1e-8 * (1 + abs(beta)))

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.5, np.inf])
    def test_domain_error(self, r):
        with pytest.raises(ValueError):
            beta_family_eval(r)


class TestPotentialEval:
    def test_logarithmic_at_zero(self):
        params = pot.PotentialParams(c=2.0)
        F, F1, F2 = potential_eval(params, 0.0)
        assert F == default_offset(2.0)
        assert F1 == 0.0
        assert F2 == 2.0 - 2.0 * params.c

    def test_logarithmic_slope_value(self):
        params = pot.PotentialParams(c=2.0)
        _, F1, _ = potential_eval(params, 0.9)
        assert F1 == pytest.approx(math.log(19.0) - 3.6, abs=1e-14)

    def test_default_offset_normalizes(self):
        params = pot.PotentialParams(c=2.0)
        assert default_offset(2.0) == pytest.approx(0.6530477748538479, abs=1e-13)
        r = np.linspace(-0.99999, 0.99999, 20001)
        F, _, _ = potential_eval(params, r)
        assert np.min(F) >= -1e-10
        assert np.min(F) <= 1e-6  # the well bottoms touch zero

    @pytest.mark.parametrize("c", [0.5, 1.0, math.inf, math.nan])
    def test_c_must_exceed_one(self, c):
        with pytest.raises(ValueError, match="c must be > 1"):
            pot.PotentialParams(c=c)


class TestResolvent:
    def test_zero_fixed_point(self):
        for lam in (0.9, 0.3, 0.01, 1e-4):
            assert pot.resolvent_map(lam, 0.0) == 0.0

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lam = float(rng.uniform(0.05, 0.9))
            x = float(rng.uniform(-3.0, 3.0))
            r = pot.resolvent_map(lam, x)
            assert r == pytest.approx(bisect_resolvent(lam, x), abs=1e-12)

    def test_frozen_value(self):
        r = pot.resolvent_map(0.5, 1.0)
        assert r == pytest.approx(0.478701542999721, abs=1e-12)
        assert r == pytest.approx(bisect_resolvent(0.5, 1.0), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=0.9),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_graph_residual_and_range(self, lam, x):
        b = pot._graph_solve(lam, x, pot.NEWTON_TOL, pot.NEWTON_MAX_ITER)[0]
        r = pot.resolvent_map(lam, x)
        assert abs(r + lam * b - x) <= 1e-10
        assert abs(r) < 1.0

    def test_nonexpansive(self):
        rng = np.random.default_rng(11)
        lam = rng.uniform(1e-4, 0.9, size=1000)
        x = rng.uniform(-10, 10, size=1000)
        y = rng.uniform(-10, 10, size=1000)
        for la in (0.3, 0.01):
            rx = pot.resolvent_map(la, x)
            ry = pot.resolvent_map(la, y)
            assert np.all(np.abs(rx - ry) <= np.abs(x - y) * (1 + 1e-12) + 1e-14)
        rx = pot.resolvent_map(lam, x)
        ry = pot.resolvent_map(lam, y)
        assert np.all(np.abs(rx - ry) <= np.abs(x - y) * (1 + 1e-12) + 1e-14)

    def test_pointwise_convergence_monotone(self):
        # J_lam(r) -> r and beta_lam(r) -> beta(r), monotonically as lam halves
        for r0 in (0.7, -0.3, 0.95):
            beta_exact = math.log1p(r0) - math.log1p(-r0)
            lams = [0.4 / 2**j for j in range(12)]
            res = [float(pot.resolvent_map(la, r0)) for la in lams]
            bets = [float(pot.yosida_eval(la, r0)[0]) for la in lams]
            gaps = [abs(r0 - r) for r in res]
            assert all(a >= b - 1e-14 for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-3
            mags = [abs(b) for b in bets]
            assert all(a <= b + 1e-12 for a, b in zip(mags, mags[1:]))
            # leading-order Yosida bias is lam * beta(r) * beta'(r)
            bias = lams[-1] * abs(beta_exact) * 2.0 / (1.0 - r0 * r0)
            assert abs(bets[-1] - beta_exact) < 2.0 * bias + 1e-12


class TestIterationCap:
    def test_exhausted_cap_raises_with_the_worst_residual(self):
        # the cold start b = |x|/(lam + 1/2) = 1 leaves tanh(1/2) + 1/2 - 1 = -3.788e-02
        with pytest.raises(RuntimeError) as err:
            pot._graph_solve(0.5, np.array([1.0]), 1e-12, 0)
        assert str(err.value) == "resolvent solve failed: residual 3.788e-02 above max(1e-12, 4eps|x|) in 0 iterations"


class TestLargeArguments:
    @pytest.mark.parametrize("lam", [0.2, 0.025])
    def test_converges_to_the_rounding_floor(self, lam):
        # lam*b - |x| alone rounds by about eps*|x|, beyond 1e-12 once |x| exceeds ~1e4
        x = np.outer([2e4, 1e6, 1e9, -2e4, -1e6, -1e9], np.linspace(1.0, 1.01, 64))
        b, t = pot._graph_solve(lam, x, pot.NEWTON_TOL, pot.NEWTON_MAX_ITER)
        floor = 4.0 * np.finfo(float).eps * np.abs(x)
        assert np.all(np.abs(t + lam * b - x) <= floor)
        assert np.all(np.sign(b) == np.sign(x))


class TestWarmStart:
    def cases(self, seed, x_max, size=4000):
        rng = np.random.default_rng(seed)
        return rng.uniform(1e-4, 0.9, size=size), rng.uniform(-x_max, x_max, size=size)

    def test_any_start_returns_the_cold_root(self):
        # starts of either sign and far out in the flat tails of tanh all reach the root
        lam, x = self.cases(13, 1.0)
        cold = pot._graph_solve(lam, x, pot.NEWTON_TOL, pot.NEWTON_MAX_ITER)[0]
        rng = np.random.default_rng(1)
        for b0 in (cold + 1e-3, -cold, np.full_like(x, 1e9), np.full_like(x, -1e9), rng.normal(size=x.size) * 1e6):
            warm = pot._graph_solve(lam, x, pot.NEWTON_TOL, pot.NEWTON_MAX_ITER, b0)[0]
            assert np.max(np.abs(np.tanh(0.5 * warm) + lam * warm - x)) <= pot.NEWTON_TOL
            # f' >= lam, so two points within tol of the root lie within 2*tol/lam of each other
            assert np.all(np.abs(warm - cold) <= 2.0 * pot.NEWTON_TOL / lam)

    def test_nearby_start_converges_in_few_iterations(self):
        # beyond 1 + 37*lam the root sits where tanh rounds to 1
        lam, x = self.cases(29, 3.0)
        b0 = pot._graph_solve(lam, x, pot.NEWTON_TOL, pot.NEWTON_MAX_ITER)[0]
        shift = 1e-3 * np.random.default_rng(2).choice([-1.0, 1.0], size=x.size)
        b = pot._graph_solve(lam, x + shift, pot.NEWTON_TOL, 3, b0)[0]
        assert np.max(np.abs(np.tanh(0.5 * b) + lam * b - x - shift)) <= pot.NEWTON_TOL

    def test_converged_points_do_not_move(self):
        lam, x = self.cases(31, 3.0)
        b = pot._graph_solve(lam, x, pot.NEWTON_TOL, pot.NEWTON_MAX_ITER)[0]
        x2 = x.copy()
        x2[::2] += 0.5
        again = pot._graph_solve(lam, x2, pot.NEWTON_TOL, pot.NEWTON_MAX_ITER, b)[0]
        assert np.array_equal(again[1::2], b[1::2])

    @pytest.mark.parametrize("lam", [0.5, 0.2, 0.05, 0.01, 1e-4])
    def test_pair_is_idempotent_from_its_own_beta(self, lam):
        # a converged batch member's Newton trials re-evaluate beta_lam from itself and must not move it
        x = np.array([0.0, 0.3, -0.3, 0.97, -0.97, 1.0 - 1e-15, -(1.0 - 1e-15), 1.0, -1.0, 1.5, -1.5, 50.0, -50.0])
        beta, slope = pot.yosida_pair(lam, x)
        again, slope_again = pot.yosida_pair(lam, x, b0=beta)
        assert np.array_equal(again, beta)
        assert np.array_equal(slope_again, slope)


# updates the folded solve may take, fixed from the measured maximum of 10 over 6M
# random cases (lam in [1e-4, 0.9]; cold, +-1e9, noisy-root and wrong-sign starts)
FOLDED_UPDATE_CAP = 12


def solve_recording_iterates(lam, x, b0):
    """_graph_solve(lam, x, b0) and the folded iterate |b| at each residual evaluation.

    Each evaluation takes exactly one tanh, of b/2, which a spy records.
    """
    seen = []
    tanh = np.tanh

    def spy(h, out=None):
        seen.append(2.0 * float(h))
        return tanh(h, out=out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pot.np, "tanh", spy)
        b, t = pot._graph_solve(lam, x, pot.NEWTON_TOL, FOLDED_UPDATE_CAP, b0)
    return b, t, seen


class TestFoldedSolve:
    SPECIAL_X = [1.0, -1.0, 1.0 + 1e-6, 1.0 - 1e-6, -(1.0 + 1e-6), -(1.0 - 1e-6), 0.0]

    @settings(max_examples=400, deadline=None)
    @given(
        lam=st.floats(min_value=1e-4, max_value=0.9),
        x=st.one_of(st.sampled_from(SPECIAL_X), st.floats(min_value=-1e2, max_value=1e2)),
        start=st.sampled_from(["cold", "+1e9", "-1e9", "wrong sign", "noisy root"]),
        noise=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_converges_monotonically_and_is_odd(self, lam, x, start, noise):
        root = float(pot._graph_solve(lam, x, pot.NEWTON_TOL, pot.NEWTON_MAX_ITER)[0])
        b0 = {
            "cold": None,
            "+1e9": 1e9,
            "-1e9": -1e9,
            "wrong sign": -root - math.copysign(abs(noise), x),
            "noisy root": root * (1.0 + 1e-3 * noise) + noise,
        }[start]
        b, t, iterates = solve_recording_iterates(lam, x, b0)
        # within the cap (the call raises beyond it), to the resolvent tolerance
        assert abs(np.tanh(0.5 * b) + lam * b - x) <= pot.NEWTON_TOL
        assert len(iterates) - 1 <= FOLDED_UPDATE_CAP
        assert t == np.tanh(0.5 * b)
        # |b| never decreases after the first update
        assert all(later >= earlier for earlier, later in zip(iterates[1:], iterates[2:]))
        # odd bit for bit, signed zeros included
        b_neg, t_neg = pot._graph_solve(lam, -x, pot.NEWTON_TOL, FOLDED_UPDATE_CAP, None if b0 is None else -b0)
        assert np.float64(b_neg).tobytes() == np.float64(-b).tobytes()
        assert np.float64(t_neg).tobytes() == np.float64(-t).tobytes()


class TestYosida:
    def test_at_zero(self):
        for lam in (0.5, 0.1, 0.01):
            beta_l, beta_l_prime, beta_hat_l = pot.yosida_eval(lam, 0.0)
            assert beta_l == 0.0
            assert beta_l_prime == pytest.approx(2.0 / (1.0 + 2.0 * lam), rel=1e-14)
            assert beta_hat_l == 0.0

    def test_frozen_value(self):
        beta_l, _, _ = pot.yosida_eval(0.5, 1.0)
        J = bisect_resolvent(0.5, 1.0)
        assert beta_l == pytest.approx((1.0 - J) / 0.5, abs=1e-11)
        assert beta_l == pytest.approx(1.042596914000558, abs=1e-11)

    def test_equals_beta_of_resolvent(self):
        rng = np.random.default_rng(3)
        for lam in (0.7, 0.2, 0.02):
            x = rng.uniform(-0.95, 0.95, size=64)
            beta_l, _, _ = pot.yosida_eval(lam, x)
            r = pot.resolvent_map(lam, x)
            beta_at_r, _, _ = beta_family_eval(r)
            assert np.allclose(beta_l, beta_at_r, atol=1e-9)

    def test_ordering_in_lambda(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-5, 5, size=1000)
        big, _, _ = pot.yosida_eval(0.4, x)
        small, _, _ = pot.yosida_eval(0.1, x)
        assert np.all(np.abs(big) <= np.abs(small) + 1e-10)

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(9)
        for lam in (0.5, 0.05):
            x = rng.uniform(-5, 5, size=500)
            y = rng.uniform(-5, 5, size=500)
            bx, _, _ = pot.yosida_eval(lam, x)
            by, _, _ = pot.yosida_eval(lam, y)
            assert np.all(np.abs(bx - by) <= np.abs(x - y) / lam * (1 + 1e-10) + 1e-14)

    def test_moreau_primitive_matches_quadrature(self):
        # integral of beta_lam from 0 to x vs the closed form, on [-5, 5]
        for lam in (0.3, 0.05):
            for x in (-5.0, -1.7, 0.4, 0.9, 2.5, 5.0):
                q, _ = quad(lambda s: float(pot.yosida_eval(lam, s)[0]), 0.0, x, limit=200)
                _, _, beta_hat_l = pot.yosida_eval(lam, x)
                assert abs(beta_hat_l - q) <= 1e-8

    def test_derivative_matches_finite_difference(self):
        lam = 0.2
        for x in (-2.0, -0.5, 0.0, 0.8, 3.0):
            eps = 1e-6
            bp, _, _ = pot.yosida_eval(lam, x + eps)
            bm, _, _ = pot.yosida_eval(lam, x - eps)
            _, blp, _ = pot.yosida_eval(lam, x)
            assert (bp - bm) / (2 * eps) == pytest.approx(blp, rel=1e-6)

    def test_primitive_nonnegative(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-8, 8, size=2000)
        _, _, bh = pot.yosida_eval(0.15, x)
        assert np.all(bh >= 0.0)


class TestNoisePoint:
    # stepper.step evaluates the noise at J_lam(u) = tanh(beta_lam(u)/2), from the
    # beta_lam(u) the previous step returned, with no resolvent solve of its own
    @pytest.mark.parametrize("lam", [0.5, 0.2, 0.05, 0.01, 1e-4])
    def test_matches_resolvent_map(self, lam):
        u = np.array([1.0 - 1e-15, -(1.0 - 1e-15), 1.0, -1.0, 1.5, -1.5, 50.0, -50.0, 0.0, 0.3, -0.97])
        beta_u, _ = pot.yosida_pair(lam, u)
        point = np.tanh(0.5 * beta_u)
        assert np.all(np.abs(point) <= 1.0)
        assert np.max(np.abs(point - pot.resolvent_map(lam, u))) <= 1e-12

    def test_step_mixes_exactly_zero_noise_where_the_point_rounds_to_a_pure_phase(self, monkeypatch):
        lam, u = 1e-4, np.array([50.0, -50.0, 1.5, -1.5])
        g, scfg = gr.Grid(extent=(1.0,), cells=(4,)), stepper.StepperConfig(dt=1e-3, t_end=1e-3)
        spec = nz.NoiseSpec(family="sine", modes=8, decay_exponent=2.0, amplitude=1.0)
        mixed, mix = [], nz.mix_modes

        def spy_mix(*args):
            mixed.append(mix(*args))
            return mixed[-1]

        monkeypatch.setattr(nz, "mix_modes", spy_mix)
        beta_u = pot.yosida_pair(lam, u)[0]
        a_u = stepper.implicit_operator(g, scfg.dt, u, beta_u)
        stepper.step(g, lam, 2.0, spec, u, beta_u, a_u, np.random.default_rng(3).normal(size=8), np.zeros(4), scfg)
        assert len(mixed) == 1 and np.all(mixed[0] == 0.0)


class TestRegularizedPotential:
    def test_at_zero(self):
        params = pot.PotentialParams(c=2.0)
        for lam in (0.5, 0.05):
            Fl, Fl1, Fl2 = regularized_potential_eval(params, lam, 0.0)
            assert Fl == default_offset(2.0)
            assert Fl1 == 0.0
            assert Fl2 == pytest.approx(2.0 / (1.0 + 2.0 * lam) - 4.0, rel=1e-14)

    def test_below_sharp_potential(self):
        params = pot.PotentialParams(c=2.0)
        r = np.linspace(-0.9999, 0.9999, 1001)
        F, _, _ = potential_eval(params, r)
        for lam in (0.5, 0.1, 0.01):
            Fl, _, _ = regularized_potential_eval(params, lam, r)
            assert np.all(Fl <= F + 1e-12)

    def test_frozen_slope_value(self):
        params = pot.PotentialParams(c=2.0)
        _, Fl1, _ = regularized_potential_eval(params, 0.5, 1.0)
        J = bisect_resolvent(0.5, 1.0)
        assert Fl1 == pytest.approx((1.0 - J) / 0.5 - 4.0, abs=1e-11)
        assert Fl1 == pytest.approx(-2.957403085999442, abs=1e-11)

    def test_monotone_part_positive(self):
        # Fl2 + 2c = beta_lam' > 0 everywhere
        params = pot.PotentialParams(c=2.0)
        x = np.linspace(-6, 6, 501)
        for lam in (0.9, 0.3, 0.01):
            _, _, Fl2 = regularized_potential_eval(params, lam, x)
            assert np.all(Fl2 + 2.0 * params.c > 0.0)


class TestGauge:
    def test_base_point(self):
        Gn, Gnp = pot.gauge_eval(2, 0.0)
        assert (Gn, Gnp) == (1.0, 0.0)

    def test_closed_form(self):
        Gn, _ = pot.gauge_eval(3, 0.5)
        assert Gn == pytest.approx(16.0 / 9.0, rel=1e-15)

    @given(st.floats(min_value=1e-6, max_value=0.999))
    def test_parity(self, r):
        for n in (2, 4):
            gp, gpp = pot.gauge_eval(n, r)
            gm, gmp = pot.gauge_eval(n, -r)
            assert gm == gp
            assert gmp == -gpp

    def test_derivative_consistency(self):
        for n in (2, 3):
            for r in (-0.6, 0.1, 0.8):
                eps = 1e-7
                gp, _ = pot.gauge_eval(n, r + eps)
                gm, _ = pot.gauge_eval(n, r - eps)
                _, gprime = pot.gauge_eval(n, r)
                assert (gp - gm) / (2 * eps) == pytest.approx(gprime, rel=1e-5)

    def test_validation(self):
        # the order n >= 2 is checked where it arrives, in derivative_study
        with pytest.raises(ValueError):
            pot.gauge_eval(2, 1.0)


class TestLevelValidation:
    # a level is a plain number here; its range is checked where levels arrive
    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.1, 1.5])
    def test_lambda_range(self, lam):
        with pytest.raises(ValueError, match="lambda levels must lie in"):
            cli.config_from_dict({"version": 1, "ensemble": {"lambda_levels": [lam]}})


def run_fresh(code):
    """Run code in a new interpreter that imports logac from this checkout; returns its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImports:
    def test_numerical_layers_load_no_optimize_or_integrate(self):
        # the grid, potential, noise and stepper layers need numpy and scipy's special and linalg alone
        run_fresh(
            "import sys\n"
            "import logac.grid\n"
            "assert 'logac.potential' not in sys.modules, 'logac.grid imports logac.potential'\n"
            "import logac.potential, logac.noise, logac.stepper\n"
            "loaded = [m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )

    def test_cli_loads_no_integrate_optimize_or_fft(self):
        # only the oracles need scipy.integrate and only the Helmholtz solve scipy.fft; they import them on first use
        run_fresh(
            "import sys\n"
            "import logac.cli\n"
            "loaded = [m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.fft') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )

    def test_lazy_imports_give_the_in_process_results(self):
        # the first call imports scipy.fft or scipy.integrate itself and must give the numbers of a warm process
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "from logac import grid as gr\n"
            "assert 'scipy.fft' not in sys.modules\n"
            "g = gr.Grid(extent=(1.0, 2.0), cells=(8, 6))\n"
            "f = np.random.default_rng(3).standard_normal((2, 8, 6))\n"
            "w = gr.helmholtz_solve(g, f, 0.3)\n"
            "v = gr.vstar_norm_sq(g, f)\n"
            "from logac import cli, experiments as ex\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "csv = ex.heat_and_ode_oracles(cli.default_config().ensemble).to_csv_text()\n"
            "print(json.dumps({'w': w.tolist(), 'v': v.tolist(), 'csv': csv}))\n"
        )
        fresh = json.loads(run_fresh(code))
        g = gr.Grid(extent=(1.0, 2.0), cells=(8, 6))
        f = np.random.default_rng(3).standard_normal((2, 8, 6))
        assert np.array_equal(fresh["w"], gr.helmholtz_solve(g, f, 0.3))
        assert np.array_equal(fresh["v"], gr.vstar_norm_sq(g, f))
        assert fresh["csv"] == ex.heat_and_ode_oracles(cli.default_config().ensemble).to_csv_text()
