"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py -v` to see one printed
PASS/FAIL line per criterion alongside the measured numbers.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (
    drift_apply,
    energy,
    gateaux_check,
    measure,
    potential_eval,
    regularized_potential_eval,
    report_row,
)
from logac import cli
from logac import datagen as dg
from logac import experiments as ex
from logac import grid as gr
from logac import noise as nz
from logac import potential as pot
from logac import stepper as st


def report(num, name, ok, detail):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def reference_ensemble():
    # 1-d, L=1, N=128, dt=1e-3, T=0.5, c=2, sine s=2 sigma0=0.5 K=16, M=64,
    # u0 = 0.5 cos(pi x), levels 0.2/0.1/0.05/0.025
    return cli.default_config().ensemble


def test_criterion_01_yosida_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    lam = rng.uniform(1e-4, 0.9, size=10_000)
    x = rng.uniform(-10.0, 10.0, size=10_000)
    level_tol = 1e-12
    b = pot._graph_solve(lam, x, level_tol, 0.0)[0]
    r = np.clip(np.tanh(0.5 * b), np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0))
    worst_resid = float(np.max(np.abs(r + lam * b - x)))
    range_ok = bool(np.all(np.abs(r) < 1.0))

    y = rng.uniform(-10.0, 10.0, size=10_000)
    ry = pot.resolvent_map(lam, y)
    nonexp_ok = bool(np.all(np.abs(r - ry) <= np.abs(x - y) * (1 + 1e-12) + 1e-13))

    rs = rng.uniform(-8.0, 8.0, size=1_000)
    big, _ = pot.yosida_pair(0.31, rs)
    small, _ = pot.yosida_pair(0.07, rs)
    order_ok = bool(np.all(np.abs(big) <= np.abs(small) + 1e-10))

    beta_exact = math.log(3.0)
    errs = []
    for j in range(6):
        bl, _, _ = pot.yosida_eval(0.05 / 2**j, 0.5)
        errs.append(beta_exact - float(bl))
    ratios = [a / bnext for a, bnext in zip(errs, errs[1:])]
    conv_ok = all(rat >= 1.8 for rat in ratios)

    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-10 and range_ok and nonexp_ok and order_ok and conv_ok and elapsed < 5.0
    report(
        1,
        "yosida suite",
        ok,
        f"max residual {worst_resid:.2e} (<=1e-10), |J|<1 {range_ok}, non-expansive {nonexp_ok}, "
        f"|beta_lam|<=|beta_eps| {order_ok}, halving ratios {[round(r, 3) for r in ratios]} (>=1.8), "
        f"{elapsed:.2f}s (<5s)",
    )
    assert worst_resid <= 1e-10
    assert range_ok and nonexp_ok and order_ok and conv_ok
    assert elapsed < 5.0


def test_criterion_02_moreau_energy_suite():
    t0 = time.perf_counter()
    worst_quad = 0.0
    for lam in (0.3, 0.05):
        for xv in np.linspace(-5.0, 5.0, 21):
            q, _ = quad(lambda s: float(pot.yosida_eval(lam, s)[0]), 0.0, float(xv), limit=200)
            _, _, bh = pot.yosida_eval(lam, float(xv))
            worst_quad = max(worst_quad, abs(float(bh) - q))

    params = pot.PotentialParams(c=2.0)
    rng = np.random.default_rng(2)
    dominated = True
    for lam in (0.2, 0.1, 0.05, 0.025):
        pts = rng.uniform(-0.999999, 0.999999, size=1_000)
        F, _, _ = potential_eval(params, pts)
        Fl, _, _ = regularized_potential_eval(params, lam, pts)
        dominated = dominated and bool(np.all(Fl <= F + 1e-12))

    elapsed = time.perf_counter() - t0
    ok = worst_quad <= 1e-8 and dominated and elapsed < 5.0
    report(
        2,
        "moreau/energy suite",
        ok,
        f"quadrature gap {worst_quad:.2e} (<=1e-8), F_lam<=F {dominated}, {elapsed:.2f}s (<5s)",
    )
    assert worst_quad <= 1e-8
    assert dominated
    assert elapsed < 5.0


def test_criterion_03_operator_suite():
    t0 = time.perf_counter()
    g = gr.Grid(extent=(1.0,), cells=(64,))
    params = pot.PotentialParams(c=2.0)
    rng = np.random.default_rng(3)
    slack = 1e-9
    violations = 0
    for lam in (0.4, 0.1, 0.04, 0.012):
        C = 1.0 / lam + 2.0 * params.c
        u = rng.uniform(-2.0, 2.0, size=(250, 64))
        v = rng.uniform(-2.0, 2.0, size=(250, 64))
        gf = rng.uniform(-1.0, 1.0, size=(250, 64))
        Au = drift_apply(g, params, lam, u, gf)
        Av = drift_apply(g, params, lam, v, gf)
        mono = gr.h_inner(g, Au - Av, u - v) + C * gr.h_norm_sq(g, u - v)
        violations += int(np.sum(mono < -slack))
        hsq, gsq, _ = gr.norms(g, u)
        coer = gr.h_inner(g, Au, u) - ((hsq + gsq) - (C + 1.5) * hsq - 0.5 * gr.h_norm_sq(g, gf))
        violations += int(np.sum(coer < -slack))
        vnorm = np.sqrt(hsq + gsq)
        dual = np.sqrt(gr.vstar_norm_sq(g, Au))
        bound = (1.0 + C) * vnorm + np.sqrt(gr.h_norm_sq(g, gf)) - dual
        violations += int(np.sum(bound < -slack))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    report(
        3,
        "operator suite",
        ok,
        f"monotonicity/coercivity/boundedness violations {violations} over 1000 instances, "
        f"{elapsed:.2f}s (<10s)",
    )
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_04_discretization_oracles(reference_ensemble):
    t0 = time.perf_counter()
    rep = ex.heat_and_ode_oracles(reference_ensemble)
    spatial = report_row(rep, "heat_spatial_order", math.nan).mean
    temporal = report_row(rep, "heat_temporal_order", math.nan).mean
    ode = report_row(rep, "ode_order", reference_ensemble.lambda_levels[-1]).mean
    elapsed = time.perf_counter() - t0
    ok = spatial >= 1.6 and temporal >= 0.8 and ode >= 0.8 and not rep.failures and elapsed < 30.0
    report(
        4,
        "discretization oracles",
        ok,
        f"spatial order {spatial:.3f} (>=1.6), heat temporal {temporal:.3f} (>=0.8), "
        f"0-d temporal {ode:.3f} (>=0.8), {elapsed:.1f}s (<30s)",
    )
    assert rep.failures == []
    assert spatial >= 1.6
    assert temporal >= 0.8
    assert ode >= 0.8
    assert elapsed < 30.0


def test_criterion_05_gradient_flow_and_gateaux():
    t0 = time.perf_counter()
    params = pot.PotentialParams(c=2.0)
    lam = 0.05
    g = gr.Grid(extent=(1.0,), cells=(64,))
    u0 = 0.5 * np.cos(np.pi * g.cell_centers())
    cfg = st.StepperConfig(dt=1e-3, t_end=1.0)
    quiet = nz.NoiseSpec(family="sine", modes=0, decay_exponent=2.0, amplitude=0.0)
    u = u0
    slack = 10.0 * st.NEWTON_TOL * measure(g)
    e_prev = float(energy(g, params, lam, u0))
    worst_rise = -math.inf
    beta_u = pot.yosida_pair(lam, u)[0]
    a_u = st.implicit_operator(g, cfg.dt, u, beta_u)
    for _ in range(cfg.n_steps):
        u, beta_u, a_u = st.step(g, lam, params.c, quiet, u, beta_u, a_u, None, np.zeros(64), cfg.dt)
        e = float(energy(g, params, lam, u))
        worst_rise = max(worst_rise, e - e_prev)
        e_prev = e
    decay_ok = worst_rise <= slack

    rng = np.random.default_rng(5)
    u = rng.uniform(-0.6, 0.6, size=64)
    hdir = rng.uniform(-1, 1, size=64)
    kdir = rng.uniform(-1, 1, size=64)
    errs = [gateaux_check(g, params, lam, u, hdir, kdir, eps=e) for e in (8e-3, 4e-3, 2e-3)]
    r1 = [errs[i][0] / errs[i + 1][0] for i in range(2)]
    r2 = [errs[i][1] / errs[i + 1][1] for i in range(2)]
    gateaux_ok = all(3.0 <= r <= 5.0 for r in r1 + r2)

    elapsed = time.perf_counter() - t0
    ok = decay_ok and gateaux_ok and elapsed < 10.0
    report(
        5,
        "gradient flow + gateaux",
        ok,
        f"worst per-step energy rise {worst_rise:.2e} (<= {slack:.1e}) over {cfg.n_steps} steps, "
        f"derivative ratios {[round(r, 2) for r in r1 + r2]} (~4), {elapsed:.1f}s (<10s)",
    )
    assert decay_ok
    assert gateaux_ok
    assert elapsed < 10.0


def test_criterion_06_cauchy_in_lambda(reference_ensemble):
    t0 = time.perf_counter()
    rep = ex.cauchy_study(reference_ensemble)
    elapsed = time.perf_counter() - t0
    deltas = rep.metadata["deltas"]
    ratios = rep.metadata["successive_ratios"]
    decreasing = all(b < a for a, b in zip(deltas, deltas[1:]))
    ratio_ok = all(r <= 0.75 for r in ratios)
    ok = decreasing and ratio_ok and not rep.failures and elapsed < 600.0
    report(
        6,
        "cauchy in lambda",
        ok,
        f"deltas {[f'{d:.3e}' for d in deltas]}, ratios {[round(r, 3) for r in ratios]} (<=0.75), "
        f"{elapsed:.0f}s (<600s)",
    )
    assert rep.failures == []
    assert decreasing
    assert ratio_ok
    assert elapsed < 600.0


def test_criterion_07_uniform_bounds(reference_ensemble):
    t0 = time.perf_counter()
    rep = ex.uniform_bounds_study(reference_ensemble)
    elapsed = time.perf_counter() - t0
    spreads = rep.metadata["spread_max_over_min"]
    cis_ok = all(r.se > 0.0 for r in rep.rows)
    band_ok = all(s <= 1.2 for s in spreads.values())
    ok = band_ok and cis_ok
    report(
        7,
        "uniform bounds",
        ok,
        f"max/min spreads {({k: round(v, 3) for k, v in spreads.items()})} (<=1.2 required), "
        f"CIs non-degenerate {cis_ok}, {elapsed:.0f}s",
    )
    assert cis_ok
    assert band_ok, (
        "lambda-uniformity band exceeded: the regularized slope at 0 varies as 2/(1+2*lam) "
        f"across the prescribed levels, measured spreads {spreads}"
    )


def test_criterion_08_continuous_dependence(reference_ensemble):
    t0 = time.perf_counter()
    cfg = replace(
        reference_ensemble,
        grid=gr.Grid(extent=(1.0,), cells=(64,)),
        stepper=st.StepperConfig(dt=1e-3, t_end=0.25),
        noise=nz.NoiseSpec(family="sine", modes=16, decay_exponent=2.0, amplitude=0.25),
    )
    rep = ex.dependence_study(cfg, (0.1, 0.01, 0.001))  # each size shifts the datum, then the forcing
    fams = rep.metadata["ratio_families"]
    finite = all(math.isfinite(r) for rs in fams.values() for r in rs)
    stable = not rep.failures
    elapsed = time.perf_counter() - t0
    ok = finite and stable and elapsed < 600.0
    report(
        8,
        "continuous dependence",
        ok,
        f"ratios u0 {[round(r, 3) for r in fams['u0']]}, g {[round(r, 3) for r in fams['g']]} "
        f"(each within +-50% of family center), {elapsed:.0f}s (<600s)",
    )
    assert finite
    assert stable
    assert elapsed < 600.0


def test_criterion_09_strong_solution(reference_ensemble):
    t0 = time.perf_counter()
    rep = ex.strong_solution_study(reference_ensemble)
    elapsed = time.perf_counter() - t0
    spreads = rep.metadata["spread_max_over_min"]
    band_ok = all(s <= 1.2 for s in spreads.values())
    ok = band_ok and not rep.failures and elapsed < 600.0
    report(
        9,
        "strong solution",
        ok,
        f"max/min spreads {({k: round(v, 4) for k, v in spreads.items()})} (<=1.2), {elapsed:.0f}s (<600s)",
    )
    assert rep.failures == []
    assert band_ok
    assert elapsed < 600.0


def test_criterion_10_derivative_estimates(reference_ensemble):
    t0 = time.perf_counter()
    results = {}
    for n in (2, 3):
        cfg = replace(
            reference_ensemble,
            grid=gr.Grid(extent=(1.0,), cells=(64,)),
            stepper=st.StepperConfig(dt=1e-3, t_end=0.25),
            noise=nz.NoiseSpec(
                family="poly_flat", modes=16, decay_exponent=2.0, amplitude=0.25, flatness=n + 1
            ),
            u0=dg.U0Spec(kind="constant", m0=0.2),
        )
        rep = ex.derivative_study(cfg)
        lam_small = rep.metadata["levels"][-1]
        excursion = report_row(rep, "excursion_fraction", lam_small).mean
        results[n] = (rep, excursion)
    elapsed = time.perf_counter() - t0
    stable = all(not rep.failures for rep, _ in results.values())
    excursions_ok = all(exc < 0.01 for _, exc in results.values())
    finite = all(
        math.isfinite(r.mean) for rep, _ in results.values() for r in rep.rows
    )
    ok = stable and excursions_ok and finite and elapsed < 600.0
    detail = ", ".join(
        f"n={n}: sup gauge {report_row(rep, 'sup_t_mean_gauge', rep.metadata['levels'][0]).mean:.4g}, "
        f"excursions {exc:.2%}"
        for n, (rep, exc) in results.items()
    )
    report(10, "derivative estimates", ok, f"{detail}; stability<=30% {stable}, {elapsed:.0f}s (<600s)")
    assert finite
    assert stable
    assert excursions_ok
    assert elapsed < 600.0


def test_criterion_11_reproducibility(tmp_path):
    payload = {
        "version": 1,
        "grid": {"extent": [1.0], "cells": [32]},
        "stepper": {"dt": 1e-3, "t_end": 0.05},
        "ensemble": {"replicates": 8, "seed": 77, "lambda_levels": [0.2, 0.1, 0.05]},
        "noise": {"modes": 8, "amplitude": 0.4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    identical = True
    for study in ("uniform", "cauchy"):
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{study}-{run}"
            code = cli.main([study, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0
            blobs.append((out / f"{study}.csv").read_bytes())
        identical = identical and blobs[0] == blobs[1]
    report(11, "reproducibility", identical, "CSV bytes identical across two runs for uniform and cauchy")
    assert identical
