import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from logac import experiments as ex
from logac import grid as gr
from logac import noise as nz
from logac import potential as pot
from logac import stepper as st

QUIET = nz.NoiseSpec(family="sine", modes=0, decay_exponent=2.0, amplitude=0.0)


def scalar_implicit_oracle(lam, dt, rho, iters=200):
    """Bisection for w + dt*beta_lam(w) = rho (spatially constant states)."""
    level = pot.YosidaLevel(lam)

    def f(w):
        bl, _, _ = pot.yosida_eval(level, w)
        return w + dt * float(bl) - rho

    lo, hi = rho - dt * abs(rho) / lam - 1.0, rho + dt * abs(rho) / lam + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dense_implicit_oracle(g, lam, rhs, dt, iters=60):
    """Newton with dense linear algebra, independent of the CG path."""
    level = pot.YosidaLevel(lam)
    n = rhs.size
    L = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        L[:, i] = gr.laplacian_neumann(g, e)
    w = rhs.copy()
    for _ in range(iters):
        bl, blp, _ = pot.yosida_eval(level, w)
        F = w - dt * (L @ w) + dt * bl - rhs
        if np.max(np.abs(F)) < 1e-13:
            break
        J = np.eye(n) - dt * L + dt * np.diag(blp)
        w = w - np.linalg.solve(J, F)
    return w


def solve(g, lam, rhs, dt, cfg):
    w, _ = st._monotone_solve(g, lam, np.asarray(rhs, dtype=float), dt, cfg)
    return w


def run_path(u0, lam, cfg, g, params, spec=QUIET, seed=0, gauge=None):
    """One lane of the engine; u0 is a (replicates, *grid) batch."""
    return ex._run_lanes([ex.Lane(lam, u0, None)], spec, cfg, g, params, seed, gauge=gauge)


def record_path(g, params, level, spec, u0, cfg, increments):
    """Step u0 through the given per-step increments, keeping every state."""
    lam = None if level is None else level.lam
    c = 0.0 if params is None else params.c
    u, states, stoch = u0, [u0], np.zeros_like(u0)
    for dw in increments:
        if spec.modes:
            stoch = stoch + nz.mix_modes(spec, pot.resolvent_map(lam, u), dw, g.dim)
        u, _ = st.step(g, lam, c, spec, u, dw, None, cfg)
        states.append(u)
    return st.TrajectoryRecord(g, params, level, cfg.dt, np.asarray(states), stoch, None)


class TestImplicitSolve:
    def test_zero_rhs(self):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        cfg = st.StepperConfig(dt=1e-2, t_end=1.0)
        w = solve(g, 0.1, np.zeros(16), 1e-2, cfg)
        assert np.all(w == 0.0)

    def test_constant_rhs_matches_scalar_oracle(self):
        g = gr.Grid(extent=(1.0,), cells=(8,))
        cfg = st.StepperConfig(dt=1e-2, t_end=1.0, outer_newton_tol=1e-12)
        for lam, dt, rho in ((0.2, 0.05, 0.8), (0.05, 0.01, -1.4), (0.5, 0.3, 2.0)):
            w = solve(g, lam, np.full(8, rho), dt, cfg)
            expected = scalar_implicit_oracle(lam, dt, rho)
            assert np.allclose(w, expected, atol=1e-10)
            assert np.ptp(w) < 1e-12  # constant in, constant out

    def test_matches_dense_newton_and_preserves_order(self):
        g = gr.Grid(extent=(1.0,), cells=(8,))
        cfg = st.StepperConfig(dt=1e-2, t_end=1.0, outer_newton_tol=1e-12)
        rng = np.random.default_rng(17)
        lam, dt = 0.1, 0.04
        for _ in range(10):
            rhs2 = rng.uniform(-1.5, 1.5, size=8)
            rhs1 = rhs2 + rng.uniform(0.0, 1.0, size=8)
            w1 = solve(g, lam, rhs1, dt, cfg)
            w2 = solve(g, lam, rhs2, dt, cfg)
            assert np.allclose(w1, dense_implicit_oracle(g, lam, rhs1, dt), atol=1e-9)
            assert np.allclose(w2, dense_implicit_oracle(g, lam, rhs2, dt), atol=1e-9)
            assert np.all(w1 >= w2 - 1e-11)

    def test_unconditional_solvability(self):
        # strict monotonicity of the implicit map: any dt with any lam
        g = gr.Grid(extent=(1.0,), cells=(32,))
        rng = np.random.default_rng(23)
        rhs = rng.uniform(-3, 3, size=32)
        for dt in (1e-3, 1e-2, 1e-1, 1.0):
            cfg = st.StepperConfig(dt=dt, t_end=dt, outer_newton_tol=1e-10)
            for lam in (1e-3, 1e-2, 1e-1, 0.9):
                level = pot.YosidaLevel(lam)
                w = solve(g, lam, rhs, dt, cfg)
                bl, _, _ = pot.yosida_eval(level, w)
                resid = w - dt * gr.laplacian_neumann(g, w) + dt * bl - rhs
                assert np.max(np.abs(resid)) <= 1e-10

    def test_backtracking_exhaustion_raises(self, monkeypatch):
        # a wrong-sign Jacobian solve gives an ascent direction, so every damping raises the residual
        g = gr.Grid(extent=(1.0,), cells=(16,))
        cfg = st.StepperConfig(dt=1e-2, t_end=1.0)
        pcg = st._pcg
        monkeypatch.setattr(st, "_pcg", lambda *args: -pcg(*args))
        rhs = np.random.default_rng(3).uniform(-2.0, 2.0, size=16)
        with pytest.raises(RuntimeError, match="backtracking exhausted"):
            solve(g, 0.1, rhs, 1e-2, cfg)


class TestStep:
    def test_origin_is_fixed_point(self):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        params = pot.logarithmic_params(c=2.0)
        cfg = st.StepperConfig(dt=1e-3, t_end=0.01)
        u, _ = st.step(g, 0.1, params.c, QUIET, np.zeros(16), None, None, cfg)
        assert np.all(u == 0.0)

    def test_heat_limit(self):
        # potential off, noise off: first Neumann cosine mode decays analytically
        g = gr.Grid(extent=(1.0,), cells=(64,))
        x = g.cell_centers()
        u0 = 0.5 * np.cos(np.pi * x)
        cfg = st.StepperConfig(dt=1e-3, t_end=0.05)
        u = run_path(u0[None], None, cfg, g, None)["final"][0, 0]
        exact = 0.5 * math.exp(-np.pi**2 * 0.05) * np.cos(np.pi * x)
        assert np.max(np.abs(u - exact)) < 2e-3

    def test_zero_dimensional_reduction(self):
        # spatially constant states follow u' = -F'_lam(u); mirror ghosts kill the Laplacian
        params = pot.logarithmic_params(c=2.0)
        level = pot.YosidaLevel(0.1)
        g = gr.Grid(extent=(1.0,), cells=(2,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.5)
        u = run_path(np.full((1, 2), 0.1), level.lam, cfg, g, params)["final"][0, 0]

        def rhs(_t, y):
            bl, _, _ = pot.yosida_eval(level, y)
            return -(bl - 2.0 * params.c * y)

        ref = solve_ivp(rhs, (0.0, 0.5), [0.1], method="DOP853", rtol=1e-11, atol=1e-13)
        assert np.ptp(u) < 1e-13
        assert abs(float(u[0]) - float(ref.y[0, -1])) < 2e-3

    def test_energy_dissipation_deterministic(self):
        params = pot.logarithmic_params(c=2.0)
        level = pot.YosidaLevel(0.05)
        g = gr.Grid(extent=(1.0,), cells=(64,))
        u = 0.5 * np.cos(np.pi * g.cell_centers())
        cfg = st.StepperConfig(dt=1e-3, t_end=0.2)
        e_prev = gr.energy(g, params, level, u)
        slack = 10 * cfg.outer_newton_tol * g.measure
        for _ in range(cfg.n_steps):
            u, _ = st.step(g, level.lam, params.c, QUIET, u, None, None, cfg)
            e = float(gr.energy(g, params, level, u))
            assert e <= e_prev + slack
            e_prev = e

    def test_bit_reproducible(self):
        params = pot.logarithmic_params(c=2.0)
        spec = nz.NoiseSpec(family="sine", modes=8, decay_exponent=2.0, amplitude=0.5)
        g = gr.Grid(extent=(1.0,), cells=(32,))
        u0 = np.broadcast_to(0.3 * np.cos(np.pi * g.cell_centers()), (4, 32)).copy()
        cfg = st.StepperConfig(dt=1e-3, t_end=0.05)
        a = run_path(u0, 0.1, cfg, g, params, spec=spec, seed=99)
        b = run_path(u0, 0.1, cfg, g, params, spec=spec, seed=99)
        assert np.array_equal(a["final"], b["final"])
        assert a["increments_digest"] == b["increments_digest"]
        assert np.array_equal(a["stats"]["sup_h_sq"], b["stats"]["sup_h_sq"])

    def test_zero_horizon_stats_from_datum(self):
        params = pot.logarithmic_params(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(16,))
        u0 = 0.4 * np.cos(np.pi * g.cell_centers())
        cfg = st.StepperConfig(dt=1e-3, t_end=0.0)
        out = run_path(u0[None], 0.1, cfg, g, params, gauge=pot.GaugeOrder(2))
        assert out["n_steps"] == 0
        assert out["stats"]["sup_h_sq"][0, 0] == pytest.approx(gr.h_norm_sq(g, u0))
        assert out["stats"]["int_grad_sq"][0, 0] == 0.0
        assert out["gauge_series"].shape == (1, 1, 1)
        assert np.array_equal(out["final"][0, 0], u0)

    def test_excursion_recorded_not_fatal(self):
        # at lam = 0.2 and c = 2 the regularized well sits outside [-1, 1],
        # so a datum near the boundary is driven across it
        params = pot.logarithmic_params(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(8,))
        cfg = st.StepperConfig(dt=1e-2, t_end=0.5)
        out = run_path(np.full((1, 8), 0.9), 0.2, cfg, g, params)
        assert out["excursion_fraction"][0, 0] > 0.0
        assert np.all(np.isfinite(out["final"]))

    def test_stable_with_dt_far_above_lambda(self):
        # the implicit monotone split needs no dt <= lam restriction
        params = pot.logarithmic_params(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(32,))
        u0 = 0.5 * np.cos(np.pi * g.cell_centers())
        cfg = st.StepperConfig(dt=0.1, t_end=1.0)
        u = run_path(u0[None], 1e-3, cfg, g, params)["final"]
        assert np.all(np.isfinite(u))
        assert float(np.max(np.abs(u))) < 1.5

    def test_admissibility_enforced(self):
        params = pot.logarithmic_params(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(8,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError, match="u0"):
            run_path(np.ones((1, 8)), 0.1, cfg, g, params)


class TestWeakResidual:
    SPEC = nz.NoiseSpec(family="sine", modes=4, decay_exponent=2.0, amplitude=0.4)

    def _run(self, dt, increments):
        params = pot.logarithmic_params(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(32,))
        u0 = 0.4 * np.cos(np.pi * g.cell_centers())
        cfg = st.StepperConfig(dt=dt, t_end=0.04)
        return record_path(g, params, pot.YosidaLevel(0.1), self.SPEC, u0, cfg, increments)

    def _draws(self, dt):
        n = st.StepperConfig(dt=dt, t_end=0.04).n_steps
        return np.stack([nz.sample_increment_block(5, 1, m, self.SPEC, dt)[0] for m in range(n)])

    def test_mass_conservation_heat_part(self):
        # zero noise, zero potential, v = 1: the defect is pure round-off
        g = gr.Grid(extent=(1.0,), cells=(32,))
        u0 = 0.4 * np.cos(np.pi * g.cell_centers())
        cfg = st.StepperConfig(dt=1e-3, t_end=0.02)
        record = record_path(g, None, None, QUIET, u0, cfg, [None] * cfg.n_steps)
        defect = st.weak_residual_check(record, np.ones(32))
        assert defect < 1e-12

    def test_zero_test_function(self):
        record = self._run(2e-3, self._draws(2e-3))
        assert st.weak_residual_check(record, np.zeros(32)) == 0.0

    def test_defect_halves_with_dt(self):
        # couple the paths through aggregated increments of the finest level
        fine = self._draws(1e-3)
        mid = fine.reshape(20, 2, self.SPEC.modes).sum(axis=1)
        coarse = fine.reshape(10, 4, self.SPEC.modes).sum(axis=1)

        v = np.cos(2 * np.pi * gr.Grid(extent=(1.0,), cells=(32,)).cell_centers()) + 0.5
        defects = []
        for dt, inc in ((4e-3, coarse), (2e-3, mid), (1e-3, fine)):
            defects.append(st.weak_residual_check(self._run(dt, inc), v))
        r1 = defects[0] / defects[1]
        r2 = defects[1] / defects[2]
        assert 1.6 <= r1 <= 2.4
        assert 1.6 <= r2 <= 2.4


class TestGateaux:
    def _setup(self):
        params = pot.logarithmic_params(c=2.0)
        level = pot.YosidaLevel(0.1)
        g = gr.Grid(extent=(1.0,), cells=(24,))
        rng = np.random.default_rng(31)
        u = rng.uniform(-0.6, 0.6, size=24)
        h = rng.uniform(-1, 1, size=24)
        k = rng.uniform(-1, 1, size=24)
        return g, params, level, u, h, k

    def test_zero_direction(self):
        g, params, level, u, _, k = self._setup()
        d1, d2 = st.gateaux_check(g, params, level, u, np.zeros(24), np.zeros(24))
        assert d1 == 0.0 and d2 == 0.0

    def test_quadratic_eps_convergence(self):
        g, params, level, u, h, k = self._setup()
        errs = [st.gateaux_check(g, params, level, u, h, k, eps=e) for e in (8e-3, 4e-3, 2e-3)]
        for i in range(2):
            assert 3.0 <= errs[i][0] / errs[i + 1][0] <= 5.0
            assert 3.0 <= errs[i][1] / errs[i + 1][1] <= 5.0

    def test_second_form_symmetric(self):
        g, params, level, u, h, k = self._setup()
        _, d2_hk = st.gateaux_check(g, params, level, u, h, k, eps=1e-4)
        _, d2_kh = st.gateaux_check(g, params, level, u, k, h, eps=1e-4)
        # both differences approximate the same symmetric bilinear form
        assert d2_hk == pytest.approx(d2_kh, rel=0.2, abs=1e-10)


class TestConfigValidation:
    def test_dt_bounds(self):
        with pytest.raises(ValueError):
            st.StepperConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            st.StepperConfig(dt=2.0, t_end=1.0)

    def test_step_count(self):
        assert st.StepperConfig(dt=1e-3, t_end=0.5).n_steps == 500
        assert st.StepperConfig(dt=3e-3, t_end=0.01).n_steps == 4
