"""Monte Carlo studies that turn the scheme's a-priori bounds into checks.

Every path of the regularized equation, from a Monte Carlo ensemble down
to the 0-d oracle or the simulate command, is integrated by _run_lanes:
one lane per level x replicates, stepped in lockstep by stepper.step from
a datum and a forcing that broadcast over the lanes.  The engine is the
time loop only.  Every study is a function of its EnsembleConfig that
runs its levels on cfg's datum and forcing, or on a stack of a datum and
its shifts, with only the hooks it reads: _path_statistics per lane,
_lane_differences per coupled lane pair, or a hook of its own; the first
two fill arrays of shape (lanes or pairs, replicates).
Each study is a pure function of (EnsembleConfig, seed): replicates are
integrated as one vectorized batch in a fixed order, noise increments come
from counter streams keyed (seed, replicate, step, mode), and coupled
comparisons run on the identical increments, so reruns give identical bytes.

Expectations are empirical means over the replicates; spreads are reported
as replicate standard errors with normal-approximation 95% intervals.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import datagen as dg
from . import grid as gr
from . import noise as nz
from . import potential as pot
from . import stepper as st

Z95 = 1.959963984540054


@dataclass(frozen=True)
class EnsembleConfig:
    replicates: int
    seed: int
    lambda_levels: tuple[float, ...]
    grid: gr.Grid
    stepper: st.StepperConfig
    noise: nz.NoiseSpec
    potential: pot.PotentialParams
    u0: dg.U0Spec
    g: dg.GSpec

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError(f"ensemble replicates must be >= 2, got {self.replicates}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"ensemble seed must lie in [0, 2^64), got {self.seed}")
        if len(self.lambda_levels) == 0:
            raise ValueError("ensemble needs at least one lambda level")
        if any(not 0.0 < v < 1.0 for v in self.lambda_levels):
            raise ValueError(f"lambda levels must lie in (0, 1), got {self.lambda_levels}")
        if any(a <= b for a, b in zip(self.lambda_levels, self.lambda_levels[1:])):
            raise ValueError(f"lambda levels must be strictly decreasing, got {self.lambda_levels}")


@dataclass
class ReportRow:
    quantity: str
    lam: float
    mean: float
    se: float
    ci_lo: float
    ci_hi: float


@dataclass
class EstimateReport:
    study: str
    rows: list[ReportRow]
    metadata: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def to_csv_text(self) -> str:
        # csv quotes the names that hold commas, such as dep_ratio[du0=0,dg=0.001]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["quantity", "lambda", "mean", "se", "ci_lo", "ci_hi"])
        for r in self.rows:
            writer.writerow([r.quantity] + [repr(x) for x in (r.lam, r.mean, r.se, r.ci_lo, r.ci_hi)])
        return out.getvalue()


def _mc_row(quantity: str, lam: float, values) -> ReportRow:
    values = np.asarray(values, dtype=float)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return ReportRow(quantity, lam, mean, se, mean - Z95 * se, mean + Z95 * se)


def _data(cfg: EnsembleConfig):
    """cfg's datum batch, (replicates, *grid shape), and forcing field, which every level shares."""
    return dg.make_u0_batch(cfg.u0, cfg.grid, cfg.seed, cfg.replicates), dg.make_g(cfg.g, cfg.grid)


def _gauge_slice(g: gr.Grid, n: int, u):
    """(masked integral of G_n, masked integral of |G_n'|, count of samples outside).

    G_n is evaluated only where |u| < 1; the samples outside are left out
    of the integrals and counted.
    """
    inside = np.abs(u) < 1.0
    Gn, Gnp = pot.gauge_eval(n, np.where(inside, u, 0.0))
    axes = gr._grid_axes(g, u)
    ig = np.sum(np.where(inside, Gn, 0.0), axis=axes) * g.cell_volume
    igp = np.sum(np.where(inside, np.abs(Gnp), 0.0), axis=axes) * g.cell_volume
    return ig, igp, np.sum(~inside, axis=axes)


def _run_lanes(
    levels,
    u0,
    g_force,
    spec: nz.NoiseSpec,
    scfg: st.StepperConfig,
    g: gr.Grid,
    c: float,
    seed: int,
    *,
    hooks=(),
) -> dict:
    """Lockstep integration of one lane per level on shared noise increments, with concave coefficient c.

    This is the time loop of every path of the regularized equation; a
    single path is one lane of one replicate.  The datum u0 broadcasts to
    (lanes, replicates, *grid shape) and the forcing g_force to (lanes, *grid
    shape), so lanes that share one pass it once.  The engine computes no
    statistic: each hook(m, u, beta_u) sees the state batch after m steps,
    m = 0..n_steps, and beta_lam(u), before stepping.  It returns the last
    state batch ("final") and the sha256 of the increments ("increments_digest").
    """
    shape = (len(levels),) + np.shape(u0)[-1 - g.dim :]  # (lanes, replicates, *grid shape)
    u = np.array(np.broadcast_to(u0, shape), dtype=float, order="C")  # copied lane-innermost without "C"
    if not np.all(np.abs(u) < 1.0):  # a NaN datum fails too
        raise ValueError("lane initial data must satisfy ||u0||_inf < 1")
    lam = np.array(levels, dtype=float).reshape(shape[:1] + (1,) * (1 + g.dim))
    beta_u = pot.yosida_pair(lam, u)[0]
    g_force = np.array(np.broadcast_to(g_force, shape[:1] + g.shape), dtype=float, order="C")[:, None]

    a_u = st.implicit_operator(g, scfg.dt, u, beta_u)
    hasher = hashlib.sha256()
    n_steps = scfg.n_steps
    for m in range(n_steps + 1):
        for hook in hooks:
            hook(m, u, beta_u)
        if m == n_steps:
            break
        dw = None
        if spec.modes > 0:
            dw = nz.sample_increment_block(seed, shape[1], m, spec, scfg.dt)
            hasher.update(dw)
        u, beta_u, a_u = st.step(g, lam, c, spec, u, beta_u, a_u, dw, g_force, scfg.dt)

    return {"final": u, "increments_digest": hasher.hexdigest()}


def _path_statistics(g: gr.Grid, scfg: st.StepperConfig, c: float, shape):
    """A _run_lanes hook and the path statistics it fills per (lane, replicate) of shape.

    Every norm of a state is taken once: the sups see m = 0..n_steps, the
    left-endpoint integrals m < n_steps.  The last call sets
    excursion_fraction, the share of samples with |u| >= 1.
    """
    names = ("sup_h_sq", "sup_grad_sq", "int_grad_sq", "int_f1_sq", "int_beta_sq", "int_lap_sq", "excursion_count")
    stats = {q: np.zeros(shape) for q in names + ("excursion_fraction",)}

    def hook(m, u, beta_u):
        hsq, gsq = gr.h_norm_sq(g, u), gr.grad_norm_sq(g, u)
        stats["sup_h_sq"] = np.maximum(stats["sup_h_sq"], hsq)
        stats["sup_grad_sq"] = np.maximum(stats["sup_grad_sq"], gsq)
        stats["excursion_count"] += np.sum(np.abs(u) >= 1.0, axis=gr._grid_axes(g, u))
        if m == scfg.n_steps:
            stats["excursion_fraction"] = stats["excursion_count"] / ((m + 1) * int(np.prod(g.shape)))
            return
        stats["int_grad_sq"] += scfg.dt * gsq
        stats["int_beta_sq"] += scfg.dt * gr.h_norm_sq(g, beta_u)
        stats["int_f1_sq"] += scfg.dt * gr.h_norm_sq(g, beta_u - 2.0 * c * u)
        stats["int_lap_sq"] += scfg.dt * gr.h_norm_sq(g, gr.laplacian_neumann(g, u))

    return hook, stats


def _lane_differences(g: gr.Grid, scfg: st.StepperConfig, reps: int, pairs: list[tuple[int, int]]):
    """A _run_lanes hook and the statistics it fills per (pair, replicate), from one u[i] - u[j] per state.

    Row k is pairs[k] = (i, j), d = u_i - u_j: sup_diff_h_sq = sup_t ||d||_H^2
    over m = 0..n_steps, and int_diff_h_sq, int_diff_grad_sq the left-endpoint
    integrals of ||d||_H^2 and ||grad d||^2 over m < n_steps.
    """
    first, second = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2).T
    stats = {q: np.zeros((len(pairs), reps)) for q in ("sup_diff_h_sq", "int_diff_h_sq", "int_diff_grad_sq")}

    def hook(m, u, beta_u):
        d = u[first] - u[second]
        dh = gr.h_norm_sq(g, d)
        stats["sup_diff_h_sq"] = np.maximum(stats["sup_diff_h_sq"], dh)
        if m < scfg.n_steps:
            stats["int_diff_h_sq"] += scfg.dt * dh
            stats["int_diff_grad_sq"] += scfg.dt * gr.grad_norm_sq(g, d)

    return hook, stats


_UNIFORM_QUANTITIES = ("sup_h_sq", "int_grad_sq", "int_f1_sq", "int_beta_sq")


def _spread(means: list[float]) -> float:
    lo, hi = min(means), max(means)
    if hi == 0.0:
        return 1.0  # identically zero across levels is perfectly uniform
    return math.inf if lo == 0.0 else hi / lo


def _level_report(study: str, cfg: EnsembleConfig, quantities) -> EstimateReport:
    """One run of every level of cfg with the path statistics alone.

    Reports one _mc_row per (quantity, level) and each quantity's spread across levels.
    """
    hook, stats = _path_statistics(cfg.grid, cfg.stepper, cfg.potential.c, (len(cfg.lambda_levels), cfg.replicates))
    levels = cfg.lambda_levels
    out = _run_lanes(levels, *_data(cfg), cfg.noise, cfg.stepper, cfg.grid, cfg.potential.c, cfg.seed, hooks=(hook,))
    rows = []
    spreads = {}
    for q in quantities:
        level_rows = [_mc_row(q, lam, stats[q][i]) for i, lam in enumerate(cfg.lambda_levels)]
        rows += level_rows
        spreads[q] = _spread([r.mean for r in level_rows])
    metadata = {"spread_max_over_min": spreads, "increments_digest": out["increments_digest"]}
    return EstimateReport(study, rows, metadata)


def uniform_bounds_study(cfg: EnsembleConfig) -> EstimateReport:
    """Per-level estimates of the four uniform-bound statistics, on one run of every level.

    For each lambda level: E sup_t ||u||_H^2, E int ||grad u||^2,
    E int ||F'_lam(u)||_H^2, E int ||beta_lam(u)||_H^2; the spread of each
    across levels is reported as a max/min ratio in the metadata.
    """
    return _level_report("uniform", cfg, _UNIFORM_QUANTITIES)


def cauchy_study(cfg: EnsembleConfig) -> EstimateReport:
    """Coupled differences between consecutive levels, on one run of every level.

    Delta(lam_i) = E sup_t ||u_i - u_{i+1}||_H^2 + E int ||grad(u_i - u_{i+1})||^2
    for consecutive level pairs; the study fails unless Delta decreases
    strictly along the level list, and reports the dyadic order
    log2(Delta_i / Delta_{i+1}); a zero Delta_i has the ratio nan.  The
    level count is checked before the run, which attaches only the
    differences of the pairs (i, i+1).
    """
    levels = cfg.lambda_levels
    if len(levels) < 3:
        raise ValueError("cauchy study needs at least 3 lambda levels")
    hook, diffs = _lane_differences(cfg.grid, cfg.stepper, cfg.replicates, [(i, i + 1) for i in range(len(levels) - 1)])
    out = _run_lanes(levels, *_data(cfg), cfg.noise, cfg.stepper, cfg.grid, cfg.potential.c, cfg.seed, hooks=(hook,))
    delta = diffs["sup_diff_h_sq"] + diffs["int_diff_grad_sq"]
    rows = [_mc_row("cauchy_delta", lam, row) for lam, row in zip(levels, delta)]
    deltas = [r.mean for r in rows]
    report = EstimateReport(study="cauchy", rows=rows)
    report.metadata["increments_digest"] = out["increments_digest"]
    report.metadata["deltas"] = deltas
    report.metadata["successive_ratios"] = [b / a if a != 0.0 else math.nan for a, b in zip(deltas, deltas[1:])]
    report.metadata["orders"] = _observed_orders(deltas)
    for k, (a, b) in enumerate(zip(deltas, deltas[1:])):
        if not b < a:
            report.failures.append(
                f"cauchy delta not strictly decreasing: Delta(lam={levels[k + 1]}) = {b:.4g} >= "
                f"Delta(lam={levels[k]}) = {a:.4g}"
            )
    return report


def dependence_study(cfg: EnsembleConfig, sizes: tuple[float, ...]) -> EstimateReport:
    """Continuous-dependence ratios of two families of coupled shifts at the smallest level.

    For each size d the u0 family shifts the initial datum by d, the g family
    the forcing.  LHS = sqrt(E sup_t ||u1-u2||_H^2) + sqrt(E int ||u1-u2||_V^2)
    against the unperturbed lane 0; RHS = ||d||_H for u0, sqrt(T)*||d||_{V*} for g.
    Lane 0 and the u0 and g families run, their data and forcings stacked, as
    one _run_lanes call on one noise once every datum shift is checked.  Each
    family's ratio must stay within +-50% of its geometric mean across the sizes.
    """
    lam = cfg.lambda_levels[-1]
    g = cfg.grid
    u0, g_field = _data(cfg)
    for d in sizes:
        if np.any(np.abs(u0 + d) >= 1.0):
            raise ValueError(f"a datum shift of {d:g} pushes the initial datum out of (-1, 1)")
    t_total = cfg.stepper.n_steps * cfg.stepper.dt
    shifts = [np.full(g.shape, float(d)) for d in sizes]
    data = np.stack([u0] + [u0 + s for s in shifts] + [u0] * len(sizes))  # lane 0, the u0 family, the g family
    forcings = np.stack([g_field] * (1 + len(sizes)) + [g_field + s for s in shifts])
    rhs = [[float(np.sqrt(gr.h_norm_sq(g, s))) for s in shifts]]
    rhs.append([float(np.sqrt(t_total * gr.vstar_norm_sq(g, s))) for s in shifts])
    levels = [lam] * len(data)
    hook, diffs = _lane_differences(g, cfg.stepper, cfg.replicates, [(0, i) for i in range(1, len(levels))])
    out = _run_lanes(levels, data, forcings, cfg.noise, cfg.stepper, g, cfg.potential.c, cfg.seed, hooks=(hook,))

    rows = []
    report = EstimateReport(study="dependence", rows=rows)
    families = report.metadata["ratio_families"] = {}
    # one shared run: every member was driven by the same increments
    report.metadata["increments_digests"] = [out["increments_digest"]] * (len(levels) - 1)
    per_family = (2, len(sizes), cfg.replicates)
    sup = diffs["sup_diff_h_sq"].reshape(per_family)
    integral = (diffs["int_diff_h_sq"] + diffs["int_diff_grad_sq"]).reshape(per_family)
    tags = {"u0": "du0={:g},dg=0", "g": "du0=0,dg={:g}"}
    for (name, tag), rhs_f, sup_f, int_f in zip(tags.items(), rhs, sup, integral):
        ratios = families[name] = []
        for d, rhs_d, sup_d, int_d in zip(sizes, rhs_f, sup_f, int_f):
            lhs = float(np.sqrt(np.mean(sup_d))) + float(np.sqrt(np.mean(int_d)))
            ratios.append(lhs / rhs_d if rhs_d > 0.0 else math.nan)
            member = tag.format(d)
            rows += [_mc_row(f"dep_lhs[{member}]", lam, lhs), _mc_row(f"dep_ratio[{member}]", lam, ratios[-1])]
        if len(ratios) < 2:
            continue
        # a ratio of 0 (its lhs lost to rounding) or nan (its rhs 0, as for g at T = 0) has no logarithm,
        # so the family has no geometric mean to measure against
        unmeasured = [(d, r) for d, r in zip(sizes, ratios) if not r > 0.0]
        for d, r in unmeasured:
            cause = "lost to rounding" if r == 0.0 else "its right side is 0"
            report.failures.append(f"dependence ratio is {r:g} for {name} perturbation {tag.format(d)}: {cause}")
        if unmeasured:
            continue
        center = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        for r in ratios:
            if not (0.5 * center <= r <= 1.5 * center):
                report.failures.append(
                    f"dependence ratio unstable for {name} perturbations: {r:.4g} departs more than 50% "
                    f"from the family center {center:.4g}"
                )
    return report


def strong_solution_study(cfg: EnsembleConfig) -> EstimateReport:
    """Gradient and Laplacian statistics for a V-regular datum, on one run of every level.

    Estimates E sup_t ||grad u||_H^2 and E int ||lap_h u||_H^2 per level and
    fails unless each stays inside a 1.2 max/min band across the levels.
    Every grid datum has |u0| < 1 and so a finite Dirichlet energy.
    """
    report = _level_report("strong", cfg, ("sup_grad_sq", "int_lap_sq"))
    for q, spread in report.metadata["spread_max_over_min"].items():
        if not spread <= 1.2:
            report.failures.append(f"strong-solution statistic {q} spread {spread:.4f} exceeds the 1.2 band")
    return report


def derivative_study(cfg: EnsembleConfig) -> EstimateReport:
    """Singularity-gauge statistics at the smallest level and its half.

    The gauge order is n = flatness - 1 of the noise, which must be
    poly_flat with flatness >= 3 (n >= 2); ||g||_inf <= 1.  Reports
    sup over output times of E int G_n(u) (over excursion-free samples),
    E int int |G_n'(u)|, and the excursion fraction (the share of samples
    with |u| >= 1); fails if either gauge statistic moves more than 30%
    when the level is halved.  One hook takes a _gauge_slice per state: it
    keeps the series of int G_n for the sup and, as _path_statistics does,
    accumulates the slice's outside count and the left-endpoint int |G_n'| in place.
    """
    if cfg.noise.family != nz.POLY_FLAT:
        raise ValueError("derivative study requires the poly_flat noise family")
    n = cfg.noise.flatness - 1
    if n < 2:
        raise ValueError(f"derivative study needs gauge order n = flatness - 1 >= 2, got n={n}")
    lam_min = cfg.lambda_levels[-1]
    levels = [lam_min, 0.5 * lam_min]
    u0, g_field = _data(cfg)
    if np.max(np.abs(g_field)) > 1.0:
        raise ValueError("derivative study requires ||g||_inf <= 1")
    scfg = cfg.stepper
    shape = (len(levels), cfg.replicates)
    series = np.empty((scfg.n_steps + 1,) + shape)  # int G_n per state m = 0..n_steps
    acc = {q: np.zeros(shape) for q in ("int_gauge_prime", "excursion_count")}

    def gauge_hook(m, u, beta_u):
        series[m], igp, outside = _gauge_slice(cfg.grid, n, u)
        acc["excursion_count"] += outside
        if m < scfg.n_steps:
            acc["int_gauge_prime"] += scfg.dt * igp

    out = _run_lanes(levels, u0, g_field, cfg.noise, scfg, cfg.grid, cfg.potential.c, cfg.seed, hooks=(gauge_hook,))
    excursion_fraction = acc["excursion_count"] / ((scfg.n_steps + 1) * int(np.prod(cfg.grid.shape)))

    rows = []
    report = EstimateReport(study="derivative", rows=rows)
    for i, lam in enumerate(levels):
        k_sup = int(np.argmax(np.mean(series[:, i, :], axis=1)))
        rows += [
            _mc_row("sup_t_mean_gauge", lam, series[k_sup, i, :]),
            _mc_row("int_abs_gauge_prime", lam, acc["int_gauge_prime"][i]),
            _mc_row("excursion_fraction", lam, excursion_fraction[i]),
        ]
    report.metadata["gauge_order"] = n
    report.metadata["levels"] = levels
    report.metadata["increments_digest"] = out["increments_digest"]
    for name in ("sup_t_mean_gauge", "int_abs_gauge_prime"):
        vals = [r.mean for r in rows if r.quantity == name]
        if not all(np.isfinite(v) for v in vals):
            report.failures.append(f"derivative statistic {name} is not finite: {vals}")
            continue
        if vals[0] > 0.0:
            drift = abs(vals[1] / vals[0] - 1.0)
            if not drift <= 0.30:
                report.failures.append(
                    f"derivative statistic {name} moved {100 * drift:.1f}% under lambda-halving (limit 30%)"
                )
    return report


def _observed_orders(errors: list[float]) -> list[float]:
    """log2(e_i / e_{i+1}) per refinement; an exact 0 gives the limit: -inf from 0, inf to 0, nan 0 to 0."""
    return [
        math.log2(a / b) if (a > 0 and b > 0) else -math.inf if b > 0 else math.inf if a > 0 else math.nan
        for a, b in zip(errors, errors[1:])
    ]


_ODE_NODES = 16  # Gauss-Legendre nodes per panel of the time map
_ODE_SIGMA_END = 45.0  # past it b is within e^-45 |b* - b0| of its limit b*
_EPS = np.finfo(float).eps


def _ode_reference(lam: float, c: float, y0: float, T: float):
    """(y(T), b*, Newton iterations) for y' = 2c*y - beta_lam(y), y(0) = y0 > 0, by the exact time map.

    In the graph coordinate b = beta_lam(y), y = Y(b) = tanh(b/2) + lam*b and
    b' = R(b)/Y'(b) with R = 2c*Y - b = 2c*tanh(b/2) - kappa*b, kappa = 1 - 2c*lam,
    so the time to reach b is T(b) = int_b0^b Y'(s)/R(s) ds.  R vanishes at a
    base point B: the one positive root b* of R if kappa > 0, which b tends
    to, and otherwise 0 (b* is None), which b leaves to grow without bound.
    One map runs the integral in sigma: b - B = (b0 - B)*e^(-sigma) toward
    b* and (b0 - B)*e^sigma away from 0, and R(b) = (b - B)*(secant - kappa)
    with the secant 2c*(tanh(b/2) - tanh(B/2))/(b - B) written in e^-b to
    neither cancel nor overflow.  If T lies past sigma = 45 toward b*, the
    answer is Y(b*).  Each panel is 1 long in sigma at most, and at most as
    long in b as its distance from 0 and, while b < 40, at most 2 long in
    b, as tanh(b/2) has poles pi off the real axis.  A bracketed Newton
    inverts T.
    """
    kappa = 1.0 - 2.0 * c * lam
    b0 = float(pot._graph_solve(lam, y0, 0.0, 0.0)[0])  # tol 0: to the rounding of y0
    if kappa > 0.0:
        # R <= 2c - kappa*b, and Newton on the concave R falls monotonically from there to b*
        b_star = 2.0 * c / kappa
        for _ in range(100):
            t = math.tanh(0.5 * b_star)
            step = (2.0 * c * t - kappa * b_star) / (c * (1.0 - t) * (1.0 + t) - kappa)
            b_star -= step
            if step <= 4.0 * _EPS * b_star:  # the iterates only fall; a rise is rounding
                break
        base, sign, s_end = b_star, -1.0, _ODE_SIGMA_END
    else:
        # dT/dsigma >= lam/(c - kappa), and b stays finite up to sigma = ln(1e300/b0)
        b_star, base, sign = None, 0.0, 1.0
        s_end = min(T * (c - kappa) / lam, math.log(1e300 / b0))
    d0, q = base - b0, math.exp(-base)

    def b_of(s):
        return b0 - d0 * np.expm1(sign * s)

    def rate(s):  # dT/dsigma = sign*(b - B)*Y'(b)/R(b) = Y'(b)/|kappa - secant| with b - B = -d0*e^(sign*sigma)
        e, b = -d0 * np.exp(sign * s), b_of(s)
        p, a = np.exp(-b), np.abs(e)
        # secant = 2c*sinh(e/2)/(e*cosh(b/2)*cosh(B/2)), and Y'(b) = sech(b/2)^2/2 + lam
        secant = 4.0 * c * np.exp(-np.minimum(b, base)) * (-np.expm1(-a) / a) / ((1.0 + p) * (1.0 + q))
        return (2.0 * p / ((1.0 + p) * (1.0 + p)) + lam) / np.abs(kappa - secant)

    x, w = np.polynomial.legendre.leggauss(_ODE_NODES)

    def integral(lo, hi):  # int_lo^hi rate, elementwise over panels
        half = 0.5 * (hi - lo)
        return half * (rate(np.multiply.outer(half, x + 1.0) + np.asarray(lo)[..., None]) @ w)

    edges = [0.0]
    while edges[-1] < s_end:
        s = edges[-1]
        b_lo = min(float(b_of(s)), math.inf if b_star is None else b_star)
        # the panel's length in b scales |b - B| by 1 + r, which takes sign*ln(1 + r) of sigma; r <= -1 passes b*
        r = sign * (min(2.0, b_lo) if b_lo < 40.0 else b_lo) / (abs(d0) * math.exp(sign * s))
        edges.append(min(s_end, s + (1.0 if r <= -1.0 else min(1.0, sign * math.log1p(r)))))
    edges = np.array(edges)
    cum = np.concatenate(([0.0], np.cumsum(integral(edges[:-1], edges[1:]))))
    if not T < cum[-1]:
        if b_star is None:
            raise FloatingPointError(f"the 0-d reference overflows before T = {T:g}")
        return math.tanh(0.5 * b_star) + lam * b_star, b_star, 0
    k = int(np.searchsorted(cum, T, side="right")) - 1
    lo, hi, left = edges[k], edges[k + 1], T - cum[k]
    s = lo + (hi - lo) * left / (cum[k + 1] - cum[k])
    for iters in range(1, 100):
        f = float(integral(edges[k], s)) - left
        if abs(f) <= 8.0 * _EPS * T:
            break
        lo, hi = (lo, s) if f > 0.0 else (s, hi)
        s -= f / float(rate(s))
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
    b = float(b_of(s))
    return math.tanh(0.5 * b) + lam * b, b_star, iters


def heat_and_ode_oracles(cfg: EnsembleConfig) -> EstimateReport:
    """Deterministic convergence oracles for the time stepper.

    Spatial: implicit Euler, I - dt*lap_h factored once a run, for the
    Neumann heat flow of the first cosine eigenmode against the continuum
    solution, refining (h, dt) together with dt ~ h^2.  Temporal: the first
    discrete eigenvector against the exact semi-discrete exponential at
    fixed h.  A 0-d reduction (spatially constant states) checks the
    splitting against the exact time map of u' = -F'_lam(u), _ode_reference.
    Fails at a spatial order below 1.6 or either temporal order below 0.8.
    """
    rows = []
    report = EstimateReport(study="oracles", rows=rows)
    T = 0.1

    def refinement(name, lam, runs, key, what, floor):
        """One error row per (label, error) run, then the minimum observed order and its verdict."""
        rows.extend(_mc_row(f"{name}_err[{label}]", lam, err) for label, err in runs)
        orders = _observed_orders([err for _, err in runs])
        report.metadata[key] = orders
        # an undefined order (nan: the error was 0 before and after) is the worst, and fails
        worst = min(orders, key=lambda o: -math.inf if math.isnan(o) else o)
        rows.append(_mc_row(f"{name}_order", lam, worst))
        if not worst >= floor:
            report.failures.append(f"observed {what} order {worst:.3f} < {floor}")

    def heat_error(N, dt, rate):
        """Sup error at T of the heat flow of 0.5*cos(pi x) on N cells against that mode decaying at rate."""
        g = gr.Grid(extent=(1.0,), cells=(N,))
        u = u0 = 0.5 * np.cos(np.pi * g.cell_centers())
        solve = st._tridiag_factor(g, dt, 0.0, u0.shape)  # I - dt*lap_h, factored once for the run
        for _ in range(st.StepperConfig(dt=dt, t_end=T).n_steps):
            u = solve(u)  # implicit Euler: one back-substitution
        return float(np.max(np.abs(u - math.exp(rate * T) * u0)))

    # spatial refinement against the continuum decay rate, dt tied to h^2
    runs = [(f"N={N}", heat_error(N, dt, -np.pi**2)) for N, dt in ((16, 8e-4), (32, 2e-4), (64, 5e-5))]
    refinement("heat_spatial", math.nan, runs, "spatial_orders", "spatial", 1.6)

    # temporal refinement at fixed h against the semi-discrete rate, the first eigenvalue of lap_h
    N = 32
    mu = -4.0 * N**2 * math.sin(math.pi / (2 * N)) ** 2
    dts = (4e-3, 2e-3, 1e-3)
    runs = [(f"dt={dt:g}", heat_error(N, dt, mu)) for dt in dts]
    refinement("heat_temporal", math.nan, runs, "temporal_orders", "heat temporal", 0.8)

    # 0-d reduction: spatially constant states obey u' = -F'_lam(u)
    quiet = nz.NoiseSpec(family=nz.SINE, modes=0, decay_exponent=2.0, amplitude=0.0)
    c, lam = cfg.potential.c, cfg.lambda_levels[-1]
    g0 = gr.Grid(extent=(1.0,), cells=(2,))
    u_init = 0.1
    T0 = 0.5

    ref_val, b_star, iters = _ode_reference(lam, c, u_init, T0)
    report.metadata["ode_reference"] = {"value": ref_val, "b_star": b_star, "newton_iters": iters}

    def ode_error(dt):
        scfg = st.StepperConfig(dt=dt, t_end=T0)
        out = _run_lanes([lam], np.full((1,) + g0.shape, u_init), 0.0, quiet, scfg, g0, c, seed=0)
        return abs(float(out["final"][0, 0, 0]) - ref_val)

    refinement("ode", lam, [(f"dt={dt:g}", ode_error(dt)) for dt in dts], "ode_orders", "0-d temporal", 0.8)
    return report
