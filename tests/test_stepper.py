import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import energy, gateaux_check, measure, regularized_potential_eval
from logac import experiments as ex
from logac import grid as gr
from logac import noise as nz
from logac import potential as pot
from logac import stepper as st

QUIET = nz.NoiseSpec(family="sine", modes=0, decay_exponent=2.0, amplitude=0.0)


def scalar_implicit_oracle(lam, dt, rho, iters=200):
    """Bisection for w + dt*beta_lam(w) = rho (spatially constant states)."""

    def f(w):
        bl, _, _ = pot.yosida_eval(lam, w)
        return w + dt * float(bl) - rho

    lo, hi = rho - dt * abs(rho) / lam - 1.0, rho + dt * abs(rho) / lam + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dense_laplacian(g):
    return np.stack([gr.laplacian_neumann(g, e) for e in np.eye(g.cells[0])], axis=1)


def dense_implicit_oracle(g, lam, rhs, dt, iters=60):
    """Newton with dense linear algebra, independent of the stepper's linear solves."""
    n = rhs.size
    L = dense_laplacian(g)
    w = rhs.copy()
    for _ in range(iters):
        bl, blp, _ = pot.yosida_eval(lam, w)
        F = w - dt * (L @ w) + dt * bl - rhs
        if np.max(np.abs(F)) < 1e-13:
            break
        J = np.eye(n) - dt * L + dt * np.diag(blp)
        w = w - np.linalg.solve(J, F)
    return w


def solve(g, lam, rhs, dt):
    """The implicit solve started at rhs itself."""
    rhs = np.asarray(rhs, dtype=float)
    return st._monotone_solve(g, lam, rhs, dt, *carried(g, lam, rhs, dt))[0]


def carried(g, lam, w0, dt):
    """(w0, beta_lam(w0), A(w0)): the state a solve starts from, as a step's caller carries it."""
    b0 = pot.yosida_pair(lam, w0)[0]
    return w0, b0, st.implicit_operator(g, dt, w0, b0)


def run_path(u0, lam, cfg, g, params, spec=QUIET, seed=0, hooks=()):
    """One lane of the engine and its path statistics; u0 is a (replicates, *grid) batch."""
    stats_hook, stats = ex._path_statistics(g, cfg, params.c, (1, u0.shape[0]))
    out = ex._run_lanes([lam], u0, np.zeros(g.shape), spec, cfg, g, params.c, seed, hooks=(stats_hook, *hooks))
    return {**out, "stats": stats}


def heat_path(g, cfg, u0):
    """Every state of the heat oracle's implicit Euler path: each step is one solve of I - dt*lap_h."""
    states = [u0]
    for _ in range(cfg.n_steps):
        states.append(st._tridiag_solve(g, cfg.dt, 0.0, states[-1]))
    return np.asarray(states)


@dataclass
class TrajectoryRecord:
    """A stored path for after-the-fact weak-form checks."""

    grid: gr.Grid
    params: pot.PotentialParams | None
    lam: float | None
    dt: float
    states: np.ndarray  # (n_steps+1, *field shape)
    stoch_integral: np.ndarray  # sum of the noise fields over the steps
    g_force: np.ndarray


def grad_inner(g: gr.Grid, u, v):
    """Face-gradient inner product <grad u, grad v>_h."""
    total = 0.0
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for ax in range(g.dim):
        a = u.ndim - g.dim + ax
        du = np.diff(u, axis=a) / g.spacing[ax]
        dv = np.diff(v, axis=a if v.ndim == u.ndim else v.ndim - g.dim + ax) / g.spacing[ax]
        total = total + np.sum(du * dv, axis=tuple(range(u.ndim - g.dim, u.ndim))) * g.cell_volume
    return total


def weak_residual_check(record: TrajectoryRecord, v) -> float:
    """Absolute defect of the tested weak form along a recorded path.

    All time integrals use the left-endpoint rule, so the defect of the
    scheme-consistent identity shrinks like O(dt) for a fixed test field.
    """
    g = record.grid
    v = np.asarray(v, dtype=float)
    us = record.states
    n = us.shape[0] - 1
    u0, uT = us[0], us[-1]
    dt = record.dt

    acc = gr.h_inner(g, uT, v) - gr.h_inner(g, u0, v)
    for m in range(n):
        um = us[m]
        acc += dt * grad_inner(g, um, v)
        if record.params is not None:
            _, f1, _ = regularized_potential_eval(record.params, record.lam, um)
            acc += dt * gr.h_inner(g, f1, v)
        acc -= dt * gr.h_inner(g, record.g_force, v)
    acc -= gr.h_inner(g, record.stoch_integral, v)
    return float(np.abs(acc))


def record_path(g, params, lam, spec, u0, cfg, increments):
    """Step u0 through the given per-step increments, keeping every state."""
    u, states, stoch, g_force = u0, [u0], np.zeros_like(u0), np.zeros(g.shape)
    beta_u = pot.yosida_pair(lam, u0)[0]
    a_u = st.implicit_operator(g, cfg.dt, u, beta_u)
    for dw in increments:
        if spec.modes:
            stoch = stoch + nz.mix_modes(spec, pot.resolvent_map(lam, u), dw, g.dim)
        u, beta_u, a_u = st.step(g, lam, params.c, spec, u, beta_u, a_u, dw, g_force, cfg.dt)
        states.append(u)
    return TrajectoryRecord(g, params, lam, cfg.dt, np.asarray(states), stoch, g_force)


class TestImplicitSolve:
    def test_zero_rhs(self):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        w = solve(g, 0.1, np.zeros(16), 1e-2)
        assert np.all(w == 0.0)

    def test_constant_rhs_matches_scalar_oracle(self, monkeypatch):
        g = gr.Grid(extent=(1.0,), cells=(8,))
        monkeypatch.setattr(st, "NEWTON_TOL", 1e-12)
        for lam, dt, rho in ((0.2, 0.05, 0.8), (0.05, 0.01, -1.4), (0.5, 0.3, 2.0)):
            w = solve(g, lam, np.full(8, rho), dt)
            expected = scalar_implicit_oracle(lam, dt, rho)
            assert np.allclose(w, expected, atol=1e-10)
            assert np.ptp(w) < 1e-12  # constant in, constant out

    def test_matches_dense_newton_and_preserves_order(self, monkeypatch):
        g = gr.Grid(extent=(1.0,), cells=(8,))
        monkeypatch.setattr(st, "NEWTON_TOL", 1e-12)
        rng = np.random.default_rng(17)
        lam, dt = 0.1, 0.04
        for _ in range(10):
            rhs2 = rng.uniform(-1.5, 1.5, size=8)
            rhs1 = rhs2 + rng.uniform(0.0, 1.0, size=8)
            w1 = solve(g, lam, rhs1, dt)
            w2 = solve(g, lam, rhs2, dt)
            assert np.allclose(w1, dense_implicit_oracle(g, lam, rhs1, dt), atol=1e-9)
            assert np.allclose(w2, dense_implicit_oracle(g, lam, rhs2, dt), atol=1e-9)
            assert np.all(w1 >= w2 - 1e-11)

    def test_unconditional_solvability(self):
        # strict monotonicity of the implicit map: any dt with any lam
        g = gr.Grid(extent=(1.0,), cells=(32,))
        rng = np.random.default_rng(23)
        rhs = rng.uniform(-3, 3, size=32)
        for dt in (1e-3, 1e-2, 1e-1, 1.0):
            for lam in (1e-3, 1e-2, 1e-1, 0.9):
                w = solve(g, lam, rhs, dt)
                bl, _, _ = pot.yosida_eval(lam, w)
                resid = w - dt * gr.laplacian_neumann(g, w) + dt * bl - rhs
                assert np.max(np.abs(resid)) <= 1e-10

    @pytest.mark.parametrize("cells", [(16,), (8, 8)])
    def test_converged_member_keeps_its_state(self, cells):
        # member 0 starts at its own solution; member 1 needs Newton iterations
        g = gr.Grid(extent=(1.0,) * len(cells), cells=cells)
        rhs = np.random.default_rng(7).uniform(-1.5, 1.5, size=(2, *cells))
        alone = solve(g, 0.1, rhs[0], 1e-2)
        w0 = np.stack([alone, rhs[1]])
        w = st._monotone_solve(g, 0.1, rhs, 1e-2, *carried(g, 0.1, w0, 1e-2))[0]
        assert np.array_equal(w[0], alone)

    def test_first_residual_takes_the_given_beta(self, monkeypatch):
        # with b0 = beta_lam(w0) and a0 = A(w0) given, yosida_pair and the Laplacian run once per trial, never at w0
        g = gr.Grid(extent=(1.0,), cells=(16,))
        rng = np.random.default_rng(5)
        lam = np.array([0.2, 0.01, 1e-3]).reshape(3, 1, 1)
        u = np.concatenate([rng.uniform(-0.99, 0.99, size=(3, 2, 12)), np.full((3, 2, 4), 1.3)], axis=-1)
        beta_u, slope_u = pot.yosida_pair(lam, u)
        a_u = st.implicit_operator(g, 1e-2, u, beta_u)
        rhs = u + 0.05 * rng.normal(size=u.shape)
        points, diags, residuals = [], [], []
        pair, tridiag, lap = pot.yosida_pair, st._tridiag_solve, gr.laplacian_neumann

        def spy_pair(lam_, x, **kw):
            points.append(np.array(x))
            return pair(lam_, x, **kw)

        def spy_tridiag(g_, dt_, diag, b):
            diags.append(np.array(diag))
            return tridiag(g_, dt_, diag, b)

        def spy_lap(g_, w):
            residuals.append(1)
            return lap(g_, w)

        monkeypatch.setattr(pot, "yosida_pair", spy_pair)
        monkeypatch.setattr(st, "_tridiag_solve", spy_tridiag)
        monkeypatch.setattr(gr, "laplacian_neumann", spy_lap)
        st._monotone_solve(g, lam, rhs, 1e-2, w0=u, b0=beta_u, a0=a_u)
        assert len(points) == len(residuals) >= 1
        assert not any(np.array_equal(p, u) for p in points)
        # the first Newton system carries beta_lam'(u), taken from J = tanh(beta_lam(u)/2) as yosida_pair takes it
        assert np.array_equal(diags[0], slope_u)

    @pytest.mark.parametrize("lam", [0.05], ids=["lambda"])
    def test_refused_member_halves_its_own_direction(self, monkeypatch, lam):
        # member 0's Newton step overshoots five times, so its trials are refused until the
        # direction is halved twice; member 1 takes its full step in the same trials
        g = gr.Grid(extent=(1.0,), cells=(16,))
        rhs = np.random.default_rng(6).uniform(-1.5, 1.5, size=(2, 16))
        start = carried(g, lam, 0.5 * rhs, 1e-2)
        tridiag, operator = st._tridiag_solve, st.implicit_operator
        events = []

        def overshoot(g_, dt, diag, b):
            delta = tridiag(g_, dt, diag, b) * scale
            events.append(("delta", delta.copy()))
            return delta

        def spy_operator(g_, dt, w, bl):
            events.append(("trial", w))
            return operator(g_, dt, w, bl)

        monkeypatch.setattr(st, "_tridiag_solve", overshoot)
        monkeypatch.setattr(st, "implicit_operator", spy_operator)
        scales = scale = np.array([[5.0], [1.0]])
        batch = st._monotone_solve(g, lam, rhs, 1e-2, *start)
        # the first Newton iteration: its direction, then every trial up to the one accepted
        kinds = [kind for kind, _ in events]
        delta, trials = events[0][1], [w for _, w in events[1 : kinds.index("delta", 1)]]
        assert len(trials) == 3
        for k, w_try in enumerate(trials):
            assert np.array_equal(w_try[0], start[0][0] - 2.0**-k * delta[0])
            assert np.array_equal(w_try[1], start[0][1] - delta[1])
        # each member's (w, beta_lam, A) is that of its solve alone, bit for bit
        for i in range(2):
            scale = scales[i : i + 1]
            alone = st._monotone_solve(g, lam, rhs[i : i + 1], 1e-2, *(x[i : i + 1] for x in start))
            for got, want in zip(batch, alone):
                assert np.array_equal(got[i : i + 1], want)

    def test_trials_start_from_the_linearization(self, monkeypatch):
        # each trial's resolvent solve starts from beta_lam(w) - beta_lam'(w)*delta: member 0's
        # overshooting trials are refused twice and its guess follows the halved direction,
        # member 1 keeps its first guess, and member 2, converged, re-evaluates from beta_lam(w)
        g, lam, dt = gr.Grid(extent=(1.0,), cells=(16,)), 0.05, 1e-2
        rhs = np.random.default_rng(8).uniform(-1.5, 1.5, size=(3, 16))
        w0 = 0.5 * rhs
        w0[2] = solve(g, lam, rhs[2], dt)
        start = carried(g, lam, w0, dt)
        tridiag, pair = st._tridiag_solve, pot.yosida_pair
        deltas, guesses = [], []

        def overshoot(g_, dt_, diag, b):
            deltas.append(tridiag(g_, dt_, diag, b) * np.array([[5.0], [1.0], [1.0]]))
            return deltas[-1].copy()

        def spy_pair(lam_, x, b0):
            if len(deltas) == 1:
                guesses.append(b0.copy())
            return pair(lam_, x, b0=b0)

        monkeypatch.setattr(st, "_tridiag_solve", overshoot)
        monkeypatch.setattr(pot, "yosida_pair", spy_pair)
        st._monotone_solve(g, lam, rhs, dt, *start)
        beta, delta = start[1], deltas[0]
        slope = pot.yosida_slope(lam, np.tanh(0.5 * beta))
        assert len(guesses) == 3
        want = beta - slope * delta
        for k, guess in enumerate(guesses):
            if k > 0:
                want[0] += slope[0] * (2.0**-k * delta[0])
            assert np.array_equal(guess[:2], want[:2])
        assert np.array_equal(guesses[0][2], beta[2])

    def test_backtracking_exhaustion_raises(self, monkeypatch):
        # a wrong-sign Jacobian solve gives an ascent direction, so every damping raises the residual
        g = gr.Grid(extent=(1.0,), cells=(16,))
        tridiag = st._tridiag_solve
        monkeypatch.setattr(st, "_tridiag_solve", lambda *args: -tridiag(*args))
        rhs = np.random.default_rng(3).uniform(-2.0, 2.0, size=16)
        with pytest.raises(RuntimeError, match="backtracking exhausted"):
            solve(g, 0.1, rhs, 1e-2)

    def test_backtracking_exhaustion_raises_2d(self, monkeypatch):
        g = gr.Grid(extent=(1.0, 1.0), cells=(8, 8))
        pcg = st._pcg
        monkeypatch.setattr(st, "_pcg", lambda *args: -pcg(*args))
        rhs = np.random.default_rng(3).uniform(-2.0, 2.0, size=(8, 8))
        with pytest.raises(RuntimeError, match="backtracking exhausted"):
            solve(g, 0.1, rhs, 1e-2)

    def test_newton_iteration_cap_raises(self, monkeypatch):
        # from w = 0 (beta_lam(0) = 0, A(0) = 0) the residual against rhs = 1 is 1, and a cap of 0 leaves it there
        g = gr.Grid(extent=(1.0,), cells=(16,))
        monkeypatch.setattr(st, "NEWTON_MAX_ITER", 0)
        with pytest.raises(RuntimeError) as err:
            st._monotone_solve(g, 0.1, np.ones(16), 1e-2, *carried(g, 0.1, np.zeros(16), 1e-2))
        assert str(err.value) == "implicit step failed: residual 1.000e+00 after 0 Newton iterations"

    def test_cg_iteration_cap_raises(self, monkeypatch):
        # a varying diagonal leaves the heat preconditioner inexact, so one CG iteration does not converge
        g = gr.Grid(extent=(1.0, 1.0), cells=(8, 8))
        monkeypatch.setattr(st, "CG_MAX_ITER", 1)
        rng = np.random.default_rng(5)
        with pytest.raises(RuntimeError) as err:
            st._pcg(g, 1e-2, rng.uniform(0.0, 1e3, size=(8, 8)), rng.uniform(-1.0, 1.0, size=(8, 8)))
        assert str(err.value) == "inner linear solve stagnated after 1 iterations"


class TestCarriedOperator:
    # the A = w - dt*lap(w) + dt*beta_lam(w) a solve returns is carried into the next one as its
    # first residual plus rhs, so it must be the operator of the returned (w, beta) to the bit
    @pytest.mark.parametrize("cells", [(16,), (6, 8)], ids=["1d", "2d"])
    @pytest.mark.parametrize("levels", [(0.1, 0.005)], ids=["lambda"])
    def test_step_returns_the_operator_of_its_state(self, cells, levels):
        g = gr.Grid(extent=(1.0,) * len(cells), cells=cells)
        cfg = st.StepperConfig(dt=5e-3, t_end=0.02)
        rng = np.random.default_rng(13)
        u = rng.uniform(-0.9, 0.9, size=(2, 3, *cells))
        lam = np.array(levels).reshape((2,) + (1,) * (1 + g.dim))
        c, spec = 2.0, nz.NoiseSpec(family="sine", modes=4, decay_exponent=2.0, amplitude=0.8)
        beta_u = pot.yosida_pair(lam, u)[0]
        a_u = st.implicit_operator(g, cfg.dt, u, beta_u)
        for m in range(cfg.n_steps):
            # one (replicates, modes) block, shared by both lanes, as the engine passes it
            dw = nz.sample_increment_block(3, 3, m, spec, cfg.dt)
            u, beta_u, a_u = st.step(g, lam, c, spec, u, beta_u, a_u, dw, np.zeros(cells), cfg.dt)
            assert np.array_equal(a_u, st.implicit_operator(g, cfg.dt, u, beta_u))

    def test_solve_at_its_first_check_returns_what_it_was_given(self, monkeypatch):
        # rhs = A(w0) exactly: the first residual is 0, so no trial runs and no Laplacian is taken
        g = gr.Grid(extent=(1.0,), cells=(16,))
        w0, b0, a0 = carried(g, 0.05, np.random.default_rng(2).uniform(-0.9, 0.9, size=(3, 16)), 1e-2)
        laps = []
        lap = gr.laplacian_neumann
        monkeypatch.setattr(gr, "laplacian_neumann", lambda *args: laps.append(1) or lap(*args))
        w, bl, A = st._monotone_solve(g, 0.05, a0.copy(), 1e-2, w0, b0, a0)
        assert w is w0 and bl is b0 and A is a0
        assert laps == []

    @pytest.mark.parametrize("lam", [0.05], ids=["lambda"])
    def test_backtracked_trial_returns_its_own_operator(self, monkeypatch, lam):
        # three times the Newton step overshoots, so every iteration accepts the damping 1/2
        g = gr.Grid(extent=(1.0,), cells=(16,))
        rhs = np.random.default_rng(4).uniform(-1.5, 1.5, size=(2, 16))
        start = carried(g, lam, 0.5 * rhs, 1e-2)
        tridiag, lap = st._tridiag_solve, gr.laplacian_neumann
        newton, trials = [], []
        monkeypatch.setattr(st, "_tridiag_solve", lambda *args: newton.append(1) or 3.0 * tridiag(*args))
        monkeypatch.setattr(gr, "laplacian_neumann", lambda *args: trials.append(1) or lap(*args))
        w, bl, A = st._monotone_solve(g, lam, rhs, 1e-2, *start)
        assert len(trials) == 2 * len(newton) > 0
        monkeypatch.setattr(gr, "laplacian_neumann", lap)
        assert np.array_equal(A, st.implicit_operator(g, 1e-2, w, bl))
        assert np.abs(A - rhs).max() <= st.NEWTON_TOL


class TestTridiagSolve:
    @pytest.mark.parametrize("n", [2, 16, 128])
    @pytest.mark.parametrize("with_diag", [True, False])
    def test_matches_dense_solve(self, n, with_diag):
        g = gr.Grid(extent=(1.0,), cells=(n,))
        dt = 1e-2
        rng = np.random.default_rng(n)
        b = rng.normal(size=(3, 4, n))
        # a zero diagonal leaves the heat operator I - dt*lap
        diag = rng.uniform(0.0, 50.0, size=b.shape) if with_diag else np.zeros(b.shape)
        x = st._tridiag_solve(g, dt, diag, b)
        heat = np.eye(n) - dt * dense_laplacian(g)
        for i in np.ndindex(b.shape[:-1]):
            J = heat + dt * np.diag(diag[i])
            assert np.linalg.norm(J @ x[i] - b[i]) <= 1e-13 * np.linalg.norm(b[i])
            assert np.allclose(x[i], np.linalg.solve(J, b[i]), rtol=1e-12, atol=1e-14)

    def test_slice_alone_is_bit_identical(self):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        rng = np.random.default_rng(5)
        b = rng.normal(size=(4, 8, 16))
        diag = rng.uniform(0.0, 1e3, size=b.shape)
        full = st._tridiag_solve(g, 1e-3, diag, b)
        for i in np.ndindex(b.shape[:-1]):
            assert np.array_equal(st._tridiag_solve(g, 1e-3, diag[i], b[i]), full[i])

    def test_not_positive_definite_raises(self):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        b = np.ones((2, 16))
        # the failing solve reuses the cached stencil of a good one and leaves it intact
        good = st._tridiag_solve(g, 1e-2, np.ones(b.shape), b)
        diag = np.full((2, 16), 1.0)
        diag[1, 7] = -1e3
        with pytest.raises(RuntimeError, match="not positive definite"):
            st._tridiag_solve(g, 1e-2, diag, np.ones((2, 16)))
        assert np.array_equal(st._tridiag_solve(g, 1e-2, np.ones(b.shape), b), good)

    def test_cached_stencil_is_read_only_and_survives_solves(self):
        g = gr.Grid(extent=(1.0,), cells=(8,))
        b = np.random.default_rng(3).normal(size=(3, 8))
        st._tridiag_solve(g, 1e-2, np.zeros(b.shape), b)
        kd, e = st._tridiag_stencil(8, 1e-2 / (g.spacing[0] * g.spacing[0]))
        k = 1e-2 * 64
        assert np.array_equal(kd, [k] + [2 * k] * 6 + [k])
        assert np.array_equal(e, [-k] * 7 + [0.0])
        for arr in (kd, e):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        kept = kd.copy(), e.copy()
        st._tridiag_solve(g, 1e-2, np.full(b.shape, 5.0), b)
        assert np.array_equal(kd, kept[0]) and np.array_equal(e, kept[1])

    def test_alternating_calls_match_a_fresh_stencil(self):
        rng = np.random.default_rng(11)
        calls = [(n, m, dt) for n in (2, 3, 16) for m in (1, 4) for dt in (1e-3, 5e-2)] * 2
        calls = [calls[i] for i in rng.permutation(len(calls))]
        cached = []
        for n, m, dt in calls:
            g = gr.Grid(extent=(1.0,), cells=(n,))
            b, diag = rng.normal(size=(m, n)), rng.uniform(0.0, 20.0, size=(m, n))
            cached.append((g, dt, diag, b, st._tridiag_solve(g, dt, diag, b)))
        for g, dt, diag, b, x in cached:
            st._tridiag_stencil.cache_clear()
            assert np.array_equal(st._tridiag_solve(g, dt, diag, b), x)


class TestTridiagFactor:
    @pytest.mark.parametrize("n, dt", [(16, 8e-4), (32, 2e-4), (64, 5e-5), (32, 4e-3), (32, 2e-3), (32, 1e-3)])
    def test_heat_run_matches_per_step_solves(self, n, dt):
        # the heat oracle's runs: one factor stepped five times is five fresh solves, bit for bit
        g = gr.Grid(extent=(1.0,), cells=(n,))
        u0 = 0.5 * np.cos(np.pi * g.cell_centers())
        solve = st._tridiag_factor(g, dt, 0.0, u0.shape)
        u = v = u0
        for _ in range(5):
            u, v = solve(u), st._tridiag_solve(g, dt, 0.0, v)
            assert np.array_equal(u, v)
        # a solve leaves its right side as it was
        assert np.array_equal(u0, 0.5 * np.cos(np.pi * g.cell_centers()))

    def test_batched_factor_matches_per_step_solves(self):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        rng = np.random.default_rng(21)
        diag = rng.uniform(0.0, 50.0, size=(3, 5, 16))
        solve = st._tridiag_factor(g, 1e-2, diag, diag.shape)
        for _ in range(4):
            b = rng.normal(size=diag.shape)
            x = solve(b)
            assert x.shape == b.shape
            assert np.array_equal(x, st._tridiag_solve(g, 1e-2, diag, b))

    def test_negative_diagonal_raises_and_leaves_the_stencil_read_only(self):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        kd, e = st._tridiag_stencil(16, 1e-2 / (g.spacing[0] * g.spacing[0]))
        kept = kd.copy(), e.copy()
        st._tridiag_factor(g, 1e-2, np.full((2, 16), 5.0), (2, 16))
        diag = np.ones((2, 16))
        diag[1, 7] = -1e3
        with pytest.raises(RuntimeError, match="not positive definite"):
            st._tridiag_factor(g, 1e-2, diag, diag.shape)
        for arr, old in zip((kd, e), kept):
            assert not arr.flags.writeable
            assert np.array_equal(arr, old)


class TestStep:
    @pytest.mark.parametrize("lam", [0.025], ids=["lambda"])
    def test_enters_no_python_frame_outside_the_package(self, lam):
        # on small fields numpy's Python-level wrappers (ndarray.max/all/any, clip, empty_like)
        # cost as much as the arithmetic, so a warmed noiseless step calls ufuncs and their
        # reductions directly, and the graph solve keeps no errstate of its own
        g = gr.Grid(extent=(1.0,), cells=(32,))
        cfg = st.StepperConfig(dt=1e-3, t_end=1e-3)
        u = 0.5 * np.cos(np.pi * g.cell_centers())[None, None]
        c, beta_u = 2.0, pot.yosida_pair(lam, u)[0]
        a_u = st.implicit_operator(g, cfg.dt, u, beta_u)
        args = (g, lam, c, QUIET, u, beta_u, a_u, None, np.zeros(u.shape), cfg.dt)
        st.step(*args)  # fills the caches and cached properties
        package = os.path.dirname(st.__file__) + os.sep
        entered = []

        def profile(frame, event, arg):
            path = frame.f_code.co_filename
            if event == "call" and not path.startswith(package):
                entered.append(f"{path}:{frame.f_code.co_name}")

        sys.setprofile(profile)
        try:
            st.step(*args)
        finally:
            sys.setprofile(None)
        assert entered == []

    def test_origin_is_fixed_point(self):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        params = pot.PotentialParams(c=2.0)
        cfg = st.StepperConfig(dt=1e-3, t_end=0.01)
        u, _, _ = st.step(g, 0.1, params.c, QUIET, np.zeros(16), np.zeros(16), np.zeros(16), None, np.zeros(16), cfg.dt)
        assert np.all(u == 0.0)

    def test_heat_limit(self):
        # the heat oracle's implicit Euler path: the first Neumann cosine mode decays analytically
        g = gr.Grid(extent=(1.0,), cells=(64,))
        x = g.cell_centers()
        u = heat_path(g, st.StepperConfig(dt=1e-3, t_end=0.05), 0.5 * np.cos(np.pi * x))[-1]
        exact = 0.5 * math.exp(-np.pi**2 * 0.05) * np.cos(np.pi * x)
        assert np.max(np.abs(u - exact)) < 2e-3

    @pytest.mark.parametrize("N, dt", [(16, 8e-4), (32, 2e-4), (64, 5e-5)])
    def test_heat_step_inverts_the_residual_operator(self, N, dt):
        # the oracle's heat step solves the step's own residual A(w) = w - dt*lap_h(w) = u, with the
        # Laplacian the Newton residual and the path statistics take, to round-off
        g = gr.Grid(extent=(1.0,), cells=(N,))
        states = heat_path(g, st.StepperConfig(dt=dt, t_end=0.1), 0.5 * np.cos(np.pi * g.cell_centers()))
        for u, u_next in zip(states, states[1:]):
            residual = st.implicit_operator(g, dt, u_next, 0.0) - u
            assert np.max(np.abs(residual)) <= 8 * np.finfo(float).eps * np.max(np.abs(u))

    def test_zero_dimensional_reduction(self):
        # spatially constant states follow u' = -F'_lam(u); mirror ghosts kill the Laplacian
        params = pot.PotentialParams(c=2.0)
        lam = 0.1
        g = gr.Grid(extent=(1.0,), cells=(2,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.5)
        u = run_path(np.full((1, 2), 0.1), lam, cfg, g, params)["final"][0, 0]

        def rhs(_t, y):
            bl, _, _ = pot.yosida_eval(lam, y)
            return -(bl - 2.0 * params.c * y)

        ref = solve_ivp(rhs, (0.0, 0.5), [0.1], method="DOP853", rtol=1e-11, atol=1e-13)
        assert np.ptp(u) < 1e-13
        assert abs(float(u[0]) - float(ref.y[0, -1])) < 2e-3

    def test_energy_dissipation_deterministic(self):
        params = pot.PotentialParams(c=2.0)
        lam = 0.05
        g = gr.Grid(extent=(1.0,), cells=(64,))
        u = 0.5 * np.cos(np.pi * g.cell_centers())
        cfg = st.StepperConfig(dt=1e-3, t_end=0.2)
        e_prev = energy(g, params, lam, u)
        slack = 10 * st.NEWTON_TOL * measure(g)
        beta_u = pot.yosida_pair(lam, u)[0]
        a_u = st.implicit_operator(g, cfg.dt, u, beta_u)
        for _ in range(cfg.n_steps):
            u, beta_u, a_u = st.step(g, lam, params.c, QUIET, u, beta_u, a_u, None, np.zeros(64), cfg.dt)
            e = float(energy(g, params, lam, u))
            assert e <= e_prev + slack
            e_prev = e

    def test_bit_reproducible(self):
        params = pot.PotentialParams(c=2.0)
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
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(16,))
        u0 = 0.4 * np.cos(np.pi * g.cell_centers())
        cfg = st.StepperConfig(dt=1e-3, t_end=0.0)
        seen = []
        out = run_path(u0[None], 0.1, cfg, g, params, hooks=(lambda m, u, beta_u: seen.append(m),))
        assert out["stats"]["sup_h_sq"][0, 0] == pytest.approx(gr.h_norm_sq(g, u0))
        assert out["stats"]["int_grad_sq"][0, 0] == 0.0
        assert seen == [0]
        assert np.array_equal(out["final"][0, 0], u0)

    def test_excursion_recorded_not_fatal(self):
        # at lam = 0.2 and c = 2 the regularized well sits outside [-1, 1],
        # so a datum near the boundary is driven across it
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(8,))
        cfg = st.StepperConfig(dt=1e-2, t_end=0.5)
        out = run_path(np.full((1, 8), 0.9), 0.2, cfg, g, params)
        assert out["stats"]["excursion_fraction"][0, 0] > 0.0
        assert np.all(np.isfinite(out["final"]))

    def test_stable_with_dt_far_above_lambda(self):
        # the implicit monotone split needs no dt <= lam restriction
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(32,))
        u0 = 0.5 * np.cos(np.pi * g.cell_centers())
        cfg = st.StepperConfig(dt=0.1, t_end=1.0)
        u = run_path(u0[None], 1e-3, cfg, g, params)["final"]
        assert np.all(np.isfinite(u))
        assert float(np.max(np.abs(u))) < 1.5

    def test_admissibility_enforced(self):
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(8,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError, match="u0"):
            run_path(np.ones((1, 8)), 0.1, cfg, g, params)

    def test_nan_datum_refused(self):
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(8,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.01)
        u0 = np.zeros((1, 8))
        u0[0, 3] = np.nan
        with pytest.raises(ValueError, match="u0"):
            run_path(u0, 0.1, cfg, g, params)


class TestWeakResidual:
    SPEC = nz.NoiseSpec(family="sine", modes=4, decay_exponent=2.0, amplitude=0.4)

    def _run(self, dt, increments):
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(32,))
        u0 = 0.4 * np.cos(np.pi * g.cell_centers())
        cfg = st.StepperConfig(dt=dt, t_end=0.04)
        return record_path(g, params, 0.1, self.SPEC, u0, cfg, increments)

    def _draws(self, dt):
        n = st.StepperConfig(dt=dt, t_end=0.04).n_steps
        return np.stack([nz.sample_increment_block(5, 1, m, self.SPEC, dt)[0] for m in range(n)])

    def test_mass_conservation_heat_part(self):
        # the heat oracle's path, with no noise, potential or forcing, and v = 1: the defect is pure round-off
        g = gr.Grid(extent=(1.0,), cells=(32,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.02)
        states = heat_path(g, cfg, 0.4 * np.cos(np.pi * g.cell_centers()))
        record = TrajectoryRecord(g, None, None, cfg.dt, states, np.zeros(32), np.zeros(32))
        defect = weak_residual_check(record, np.ones(32))
        assert defect < 1e-12

    def test_zero_test_function(self):
        record = self._run(2e-3, self._draws(2e-3))
        assert weak_residual_check(record, np.zeros(32)) == 0.0

    def test_defect_halves_with_dt(self):
        # couple the paths through aggregated increments of the finest level
        fine = self._draws(1e-3)
        mid = fine.reshape(20, 2, self.SPEC.modes).sum(axis=1)
        coarse = fine.reshape(10, 4, self.SPEC.modes).sum(axis=1)

        v = np.cos(2 * np.pi * gr.Grid(extent=(1.0,), cells=(32,)).cell_centers()) + 0.5
        defects = []
        for dt, inc in ((4e-3, coarse), (2e-3, mid), (1e-3, fine)):
            defects.append(weak_residual_check(self._run(dt, inc), v))
        r1 = defects[0] / defects[1]
        r2 = defects[1] / defects[2]
        assert 1.6 <= r1 <= 2.4
        assert 1.6 <= r2 <= 2.4


class TestGateaux:
    def _setup(self):
        params = pot.PotentialParams(c=2.0)
        lam = 0.1
        g = gr.Grid(extent=(1.0,), cells=(24,))
        rng = np.random.default_rng(31)
        u = rng.uniform(-0.6, 0.6, size=24)
        h = rng.uniform(-1, 1, size=24)
        k = rng.uniform(-1, 1, size=24)
        return g, params, lam, u, h, k

    def test_zero_direction(self):
        g, params, lam, u, _, k = self._setup()
        d1, d2 = gateaux_check(g, params, lam, u, np.zeros(24), np.zeros(24))
        assert d1 == 0.0 and d2 == 0.0

    def test_quadratic_eps_convergence(self):
        g, params, lam, u, h, k = self._setup()
        errs = [gateaux_check(g, params, lam, u, h, k, eps=e) for e in (8e-3, 4e-3, 2e-3)]
        for i in range(2):
            assert 3.0 <= errs[i][0] / errs[i + 1][0] <= 5.0
            assert 3.0 <= errs[i][1] / errs[i + 1][1] <= 5.0

    def test_second_form_symmetric(self):
        g, params, lam, u, h, k = self._setup()
        _, d2_hk = gateaux_check(g, params, lam, u, h, k, eps=1e-4)
        _, d2_kh = gateaux_check(g, params, lam, u, k, h, eps=1e-4)
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
