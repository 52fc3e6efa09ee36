"""Monte Carlo studies that turn the scheme's a-priori bounds into checks.

Every path, from a Monte Carlo ensemble down to one deterministic oracle
run or the simulate command, is integrated by _run_lanes: lanes (levels
or perturbed data) x replicates, stepped in lockstep by stepper.step.
Every study is a pure function of (EnsembleConfig, seed): replicates are
integrated as one vectorized batch in a fixed order, noise increments come
from counter streams keyed (seed, replicate, step, mode), and coupled
comparisons run on the identical increments, so reruns produce identical
bytes.

Expectations are empirical means over the replicates; spreads are reported
as replicate standard errors with normal-approximation 95% intervals.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

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
        object.__setattr__(self, "lambda_levels", tuple(float(v) for v in self.lambda_levels))
        if int(self.replicates) != self.replicates or self.replicates < 2:
            raise ValueError(f"ensemble replicates must be an integer >= 2, got {self.replicates}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"ensemble seed must be a nonnegative integer, got {self.seed}")
        if len(self.lambda_levels) == 0:
            raise ValueError("ensemble needs at least one lambda level")
        if any(not 0.0 < v < 1.0 for v in self.lambda_levels):
            raise ValueError(f"lambda levels must lie in (0, 1), got {self.lambda_levels}")
        if any(a <= b for a, b in zip(self.lambda_levels, self.lambda_levels[1:])):
            raise ValueError(f"lambda levels must be strictly decreasing, got {self.lambda_levels}")


@dataclass(frozen=True)
class Perturbation:
    """Constant shifts applied to the initial datum and/or the forcing."""

    u0_shift: float = 0.0
    g_shift: float = 0.0


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

    def row(self, quantity: str, lam: float) -> ReportRow:
        for r in self.rows:
            if r.quantity == quantity and (r.lam == lam or (math.isnan(r.lam) and math.isnan(lam))):
                return r
        raise KeyError(f"no row ({quantity!r}, {lam})")

    def means(self, quantity: str) -> dict[float, float]:
        return {r.lam: r.mean for r in self.rows if r.quantity == quantity}

    def to_csv_text(self) -> str:
        lines = ["quantity,lambda,mean,se,ci_lo,ci_hi"]
        for r in self.rows:
            lines.append(f"{r.quantity},{r.lam!r},{r.mean!r},{r.se!r},{r.ci_lo!r},{r.ci_hi!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "study": self.study,
            "rows": [vars(r) for r in self.rows],
            "metadata": self.metadata,
            "failures": self.failures,
        }


def _mc_row(quantity: str, lam: float, values) -> ReportRow:
    values = np.asarray(values, dtype=float)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return ReportRow(quantity, lam, mean, se, mean - Z95 * se, mean + Z95 * se)


@dataclass
class Lane:
    """One coupled integration lane: a Yosida level plus its data."""

    lam: float | None
    u0: np.ndarray  # (replicates, *grid shape)
    g: np.ndarray | None


def _lane_u0(cfg: EnsembleConfig) -> np.ndarray:
    return dg.make_u0_batch(cfg.u0, cfg.grid, cfg.seed, cfg.replicates)


def _gauge_slice(g: gr.Grid, gauge: pot.GaugeOrder, u):
    """(masked integral of G_n, masked integral of |G_n'|).

    G_n is evaluated only where |u| < 1; samples outside are left out.
    """
    inside = np.abs(u) < 1.0
    Gn, Gnp = pot.gauge_eval(gauge, np.where(inside, u, 0.0))
    axes = tuple(range(u.ndim - g.dim, u.ndim))
    ig = np.sum(np.where(inside, Gn, 0.0), axis=axes) * g.cell_volume
    igp = np.sum(np.where(inside, np.abs(Gnp), 0.0), axis=axes) * g.cell_volume
    return ig, igp


def _run_lanes(
    lanes: list[Lane],
    spec: nz.NoiseSpec,
    scfg: st.StepperConfig,
    g: gr.Grid,
    params: pot.PotentialParams | None,
    seed: int,
    *,
    gauge: pot.GaugeOrder | None = None,
    pairs: tuple[tuple[int, int], ...] = (),
    on_step=None,
) -> dict:
    """Lockstep integration of several lanes on shared noise increments.

    This is the package's one time loop; a single path is one lane of one
    replicate.  params=None drops the potential (c = 0), which needs every
    lane at lam=None.  on_step(m, u), when given, sees the state batch
    after m steps, m = 0..n_steps.
    """
    n_lanes = len(lanes)
    reps = lanes[0].u0.shape[0]
    dim = g.dim
    dt = scfg.dt
    n_steps = scfg.n_steps

    u = np.stack([ln.u0 for ln in lanes]).astype(float)
    if np.any(np.abs(u) >= 1.0):
        raise ValueError("lane initial data must satisfy ||u0||_inf < 1")
    if params is None:
        lam, c = None, 0.0
        beta_u = np.zeros_like(u)
    else:
        lam = np.array([ln.lam for ln in lanes]).reshape((n_lanes,) + (1,) * (1 + dim))
        c = params.c
        beta_u, _ = pot.yosida_pair(lam, u)
    if any(ln.g is not None for ln in lanes):
        g_force = np.stack([np.zeros(g.shape) if ln.g is None else np.asarray(ln.g, dtype=float) for ln in lanes])
        g_force = g_force[:, None]
    else:
        g_force = None

    hsq, gsq, _ = gr.norms(g, u)
    zeros = np.zeros((n_lanes, reps))
    acc = {
        "sup_h_sq": np.asarray(hsq).copy(),
        "sup_grad_sq": np.asarray(gsq).copy(),
        "int_grad_sq": zeros.copy(),
        "int_f1_sq": zeros.copy(),
        "int_beta_sq": zeros.copy(),
        "int_lap_sq": zeros.copy(),
        "int_abs_gauge_prime": zeros.copy(),
        "excursion_count": zeros.copy(),
    }
    field_axes = tuple(range(2, 2 + dim))
    acc["excursion_count"] += np.sum(np.abs(u) >= 1.0, axis=field_axes)
    pair_acc = {
        (i, j): {
            "sup_diff_h_sq": np.asarray(gr.h_norm_sq(g, u[i] - u[j])).copy(),
            "int_diff_h_sq": np.zeros(reps),
            "int_diff_grad_sq": np.zeros(reps),
        }
        for (i, j) in pairs
    }
    gauge_series = None
    if gauge is not None:
        ig0, _ = _gauge_slice(g, gauge, u)
        gauge_series = [ig0]
    hasher = hashlib.sha256()
    if on_step is not None:
        on_step(0, u)

    for m in range(n_steps):
        # left-endpoint quadratures at the current state
        acc["int_grad_sq"] += dt * gr.grad_norm_sq(g, u)
        acc["int_beta_sq"] += dt * gr.h_norm_sq(g, beta_u)
        acc["int_f1_sq"] += dt * gr.h_norm_sq(g, beta_u - 2.0 * c * u)
        acc["int_lap_sq"] += dt * gr.h_norm_sq(g, gr.laplacian_neumann(g, u))
        if gauge is not None:
            _, igp = _gauge_slice(g, gauge, u)
            acc["int_abs_gauge_prime"] += dt * igp
        for (i, j), pa in pair_acc.items():
            d = u[i] - u[j]
            pa["int_diff_h_sq"] += dt * gr.h_norm_sq(g, d)
            pa["int_diff_grad_sq"] += dt * gr.grad_norm_sq(g, d)

        dw = None
        if spec.modes > 0:
            dw = nz.sample_increment_block(seed, reps, m, spec, dt)
            hasher.update(np.ascontiguousarray(dw).tobytes())
            dw = np.broadcast_to(dw, (n_lanes, reps, spec.modes))
        u, beta_u = st.step(g, lam, c, spec, u, dw, g_force, scfg)

        hsq, gsq, _ = gr.norms(g, u)
        acc["sup_h_sq"] = np.maximum(acc["sup_h_sq"], hsq)
        acc["sup_grad_sq"] = np.maximum(acc["sup_grad_sq"], gsq)
        acc["excursion_count"] += np.sum(np.abs(u) >= 1.0, axis=field_axes)
        if gauge is not None:
            ig, _ = _gauge_slice(g, gauge, u)
            gauge_series.append(ig)
        for (i, j), pa in pair_acc.items():
            pa["sup_diff_h_sq"] = np.maximum(pa["sup_diff_h_sq"], gr.h_norm_sq(g, u[i] - u[j]))
        if on_step is not None:
            on_step(m + 1, u)

    total_samples = (n_steps + 1) * int(np.prod(g.shape))
    return {
        "final": u,
        "stats": acc,
        "excursion_fraction": acc["excursion_count"] / total_samples,
        "gauge_series": None if gauge is None else np.asarray(gauge_series),
        "pairs": pair_acc,
        "increments_digest": hasher.hexdigest(),
        "n_steps": n_steps,
    }


_UNIFORM_QUANTITIES = ("sup_h_sq", "int_grad_sq", "int_f1_sq", "int_beta_sq")


def _spread(means: list[float]) -> float:
    lo, hi = min(means), max(means)
    if hi == 0.0:
        return 1.0  # identically zero across levels is perfectly uniform
    return math.inf if lo == 0.0 else hi / lo


def uniform_bounds_study(cfg: EnsembleConfig) -> EstimateReport:
    """Per-level estimates of the four uniform-bound statistics.

    For each lambda level: E sup_t ||u||_H^2, E int ||grad u||^2,
    E int ||F'_lam(u)||_H^2, E int ||beta_lam(u)||_H^2; the spread of each
    across levels is reported as a max/min ratio in the metadata.
    """
    u0 = _lane_u0(cfg)
    g_field = dg.make_g(cfg.g, cfg.grid)
    lanes = [Lane(lam, u0, g_field) for lam in cfg.lambda_levels]
    out = _run_lanes(lanes, cfg.noise, cfg.stepper, cfg.grid, cfg.potential, cfg.seed)
    rows = []
    spreads = {}
    for q in _UNIFORM_QUANTITIES:
        means = []
        for i, lam in enumerate(cfg.lambda_levels):
            row = _mc_row(q, lam, out["stats"][q][i])
            rows.append(row)
            means.append(row.mean)
        spreads[q] = _spread(means)
    report = EstimateReport(study="uniform", rows=rows)
    report.metadata["spread_max_over_min"] = spreads
    report.metadata["increments_digest"] = out["increments_digest"]
    return report


def cauchy_study(cfg: EnsembleConfig) -> EstimateReport:
    """Coupled differences between consecutive levels driven by common noise.

    Delta(lam_i) = E sup_t ||u_i - u_{i+1}||_H^2 + E int ||grad(u_i - u_{i+1})||^2
    for consecutive level pairs; the study fails unless Delta decreases
    strictly along the level list, and reports the dyadic order
    log2(Delta_i / Delta_{i+1}).
    """
    if len(cfg.lambda_levels) < 3:
        raise ValueError("cauchy study needs at least 3 lambda levels")
    u0 = _lane_u0(cfg)
    g_field = dg.make_g(cfg.g, cfg.grid)
    lanes = [Lane(lam, u0, g_field) for lam in cfg.lambda_levels]
    pairs = tuple((i, i + 1) for i in range(len(lanes) - 1))
    out = _run_lanes(lanes, cfg.noise, cfg.stepper, cfg.grid, cfg.potential, cfg.seed, pairs=pairs)

    rows = []
    deltas = []
    for (i, j) in pairs:
        pa = out["pairs"][(i, j)]
        per_rep = pa["sup_diff_h_sq"] + pa["int_diff_grad_sq"]
        row = _mc_row("cauchy_delta", cfg.lambda_levels[i], per_rep)
        rows.append(row)
        deltas.append(row.mean)
    report = EstimateReport(study="cauchy", rows=rows)
    report.metadata["increments_digest"] = out["increments_digest"]
    report.metadata["deltas"] = deltas
    ratios = [b / a for a, b in zip(deltas, deltas[1:])]
    report.metadata["successive_ratios"] = ratios
    report.metadata["orders"] = [math.log2(a / b) if b > 0 else math.inf for a, b in zip(deltas, deltas[1:])]
    for k, r in enumerate(ratios):
        if not r < 1.0:
            report.failures.append(
                f"cauchy delta not strictly decreasing: Delta(lam={cfg.lambda_levels[k + 1]}) / "
                f"Delta(lam={cfg.lambda_levels[k]}) = {r:.4f} >= 1"
            )
    return report


def dependence_study(cfg: EnsembleConfig, perturbations: list[Perturbation]) -> EstimateReport:
    """Continuous-dependence ratio for coupled perturbed runs at the smallest level.

    LHS = sqrt(E sup_t ||u1-u2||_H^2) + sqrt(E int ||u1-u2||_V^2),
    RHS = ||du0||_H + sqrt(int_0^T ||dg||_{V*}^2), both runs driven by the
    same noise.  The ratio must stay within +-50% of its geometric mean
    across the perturbation sizes, separately for u0-only and g-only
    families.
    """
    lam = cfg.lambda_levels[-1]
    g = cfg.grid
    u0 = _lane_u0(cfg)
    g_field = dg.make_g(cfg.g, cfg.grid)
    t_total = cfg.stepper.n_steps * cfg.stepper.dt

    rows = []
    families: dict[str, list[float]] = {"u0": [], "g": []}
    report = EstimateReport(study="dependence", rows=rows)
    digests = []
    for p in perturbations:
        du0 = np.full(g.shape, float(p.u0_shift))
        dg_field = np.full(g.shape, float(p.g_shift))
        u0_pert = u0 + du0
        if np.any(np.abs(u0_pert) >= 1.0):
            raise ValueError(f"perturbation {p} pushes the initial datum out of (-1, 1)")
        base_g = g_field
        pert_g = dg_field if base_g is None else base_g + dg_field
        if p.g_shift == 0.0:
            pert_g = base_g
        lanes = [Lane(lam, u0, base_g), Lane(lam, u0_pert, pert_g)]
        out = _run_lanes(lanes, cfg.noise, cfg.stepper, cfg.grid, cfg.potential, cfg.seed, pairs=((0, 1),))
        digests.append(out["increments_digest"])
        pa = out["pairs"][(0, 1)]
        lhs = float(np.sqrt(np.mean(pa["sup_diff_h_sq"]))) + float(
            np.sqrt(np.mean(pa["int_diff_h_sq"] + pa["int_diff_grad_sq"]))
        )
        rhs = float(np.sqrt(gr.h_norm_sq(g, du0))) + float(np.sqrt(t_total * gr.vstar_norm_sq(g, dg_field)))
        ratio = lhs / rhs if rhs > 0.0 else math.nan
        tag = f"du0={p.u0_shift:g},dg={p.g_shift:g}"
        rows.append(ReportRow(f"dep_lhs[{tag}]", lam, lhs, 0.0, lhs, lhs))
        rows.append(ReportRow(f"dep_ratio[{tag}]", lam, ratio, 0.0, ratio, ratio))
        if p.u0_shift != 0.0 and p.g_shift == 0.0:
            families["u0"].append(ratio)
        elif p.g_shift != 0.0 and p.u0_shift == 0.0:
            families["g"].append(ratio)
    report.metadata["ratio_families"] = families
    report.metadata["increments_digests"] = digests
    for name, ratios in families.items():
        if len(ratios) < 2:
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
    """Gradient and Laplacian statistics across levels for a V-regular datum.

    Estimates E sup_t ||grad u||_H^2 and E int ||lap_h u||_H^2 per level and
    fails unless each stays inside a 1.2 max/min band across the levels.
    """
    u0 = _lane_u0(cfg)
    if not np.all(np.isfinite(gr.grad_norm_sq(cfg.grid, u0))):
        raise ValueError("strong-solution study needs a datum with finite Dirichlet energy")
    g_field = dg.make_g(cfg.g, cfg.grid)
    lanes = [Lane(lam, u0, g_field) for lam in cfg.lambda_levels]
    out = _run_lanes(lanes, cfg.noise, cfg.stepper, cfg.grid, cfg.potential, cfg.seed)
    rows = []
    report = EstimateReport(study="strong", rows=rows)
    spreads = {}
    for q in ("sup_grad_sq", "int_lap_sq"):
        means = []
        for i, lam in enumerate(cfg.lambda_levels):
            row = _mc_row(q, lam, out["stats"][q][i])
            rows.append(row)
            means.append(row.mean)
        spreads[q] = _spread(means)
        if not spreads[q] <= 1.2:
            report.failures.append(f"strong-solution statistic {q} spread {spreads[q]:.4f} exceeds the 1.2 band")
    report.metadata["spread_max_over_min"] = spreads
    report.metadata["increments_digest"] = out["increments_digest"]
    return report


def derivative_study(cfg: EnsembleConfig, n: int | None = None) -> EstimateReport:
    """Singularity-gauge statistics at the smallest level and its half.

    Needs poly_flat noise with flatness n+1 and ||g||_inf <= 1.  Reports
    sup over output times of E int G_n(u) (over excursion-free samples),
    E int int |G_n'(u)|, and the excursion fraction; fails if either gauge
    statistic moves more than 30% when the level is halved.
    """
    if cfg.noise.family != nz.POLY_FLAT:
        raise ValueError("derivative study requires the poly_flat noise family")
    if n is None:
        n = cfg.noise.flatness - 1
    if cfg.noise.flatness != n + 1:
        raise ValueError(f"derivative study at order n={n} needs noise flatness m = n+1, got m={cfg.noise.flatness}")
    gauge = pot.GaugeOrder(n)
    g_field = dg.make_g(cfg.g, cfg.grid)
    if g_field is not None and np.max(np.abs(g_field)) > 1.0:
        raise ValueError("derivative study requires ||g||_inf <= 1")
    u0 = _lane_u0(cfg)
    lam_min = cfg.lambda_levels[-1]
    levels = [lam_min, 0.5 * lam_min]
    lanes = [Lane(lam, u0, g_field) for lam in levels]
    out = _run_lanes(lanes, cfg.noise, cfg.stepper, cfg.grid, cfg.potential, cfg.seed, gauge=gauge)

    rows = []
    report = EstimateReport(study="derivative", rows=rows)
    series = out["gauge_series"]  # (n_steps+1, lanes, reps)
    sup_means = []
    int_means = []
    for i, lam in enumerate(levels):
        mean_t = np.mean(series[:, i, :], axis=1)
        k_sup = int(np.argmax(mean_t))
        sup_val = float(mean_t[k_sup])
        se = float(np.std(series[k_sup, i, :], ddof=1) / np.sqrt(cfg.replicates))
        rows.append(ReportRow("sup_t_mean_gauge", lam, sup_val, se, sup_val - Z95 * se, sup_val + Z95 * se))
        sup_means.append(sup_val)
        row = _mc_row("int_abs_gauge_prime", lam, out["stats"]["int_abs_gauge_prime"][i])
        rows.append(row)
        int_means.append(row.mean)
        rows.append(_mc_row("excursion_fraction", lam, out["excursion_fraction"][i]))
    report.metadata["gauge_order"] = n
    report.metadata["levels"] = levels
    report.metadata["increments_digest"] = out["increments_digest"]
    for name, vals in (("sup_t_mean_gauge", sup_means), ("int_abs_gauge_prime", int_means)):
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
    return [math.log2(a / b) if (a > 0 and b > 0) else math.inf for a, b in zip(errors, errors[1:])]


def heat_and_ode_oracles(cfg: EnsembleConfig) -> EstimateReport:
    """Deterministic convergence oracles for the time stepper.

    Spatial: Neumann heat flow of the first cosine eigenmode against the
    continuum solution, refining (h, dt) together with dt ~ h^2.  Temporal:
    the first discrete eigenvector against the exact semi-discrete
    exponential at fixed h.  A 0-d reduction (spatially constant states)
    compares the splitting against a high-order adaptive integration of
    u' = -F'_lam(u).  Fails if the observed spatial order drops below 1.6
    or either temporal order drops below 0.8.
    """
    rows = []
    report = EstimateReport(study="oracles", rows=rows)
    quiet = nz.NoiseSpec(family=nz.SINE, modes=0, decay_exponent=2.0, amplitude=0.0)
    T = 0.1

    def final_state(u0, lam, scfg, g, params):
        # one noiseless path: one lane of one replicate
        out = _run_lanes([Lane(lam, u0[None], None)], quiet, scfg, g, params, seed=0)
        return out["final"][0, 0]

    # spatial refinement, dt tied to h^2
    spatial_errors = []
    for N, dt in ((16, 8e-4), (32, 2e-4), (64, 5e-5)):
        g = gr.Grid(extent=(1.0,), cells=(N,))
        x = g.cell_centers()
        u0 = 0.5 * np.cos(np.pi * x)
        u = final_state(u0, None, st.StepperConfig(dt=dt, t_end=T), g, None)
        exact = 0.5 * math.exp(-np.pi**2 * T) * np.cos(np.pi * x)
        err = float(np.max(np.abs(u - exact)))
        spatial_errors.append(err)
        rows.append(ReportRow(f"heat_spatial_err[N={N}]", math.nan, err, 0.0, err, err))
    spatial_orders = _observed_orders(spatial_errors)
    spatial_order = min(spatial_orders)
    rows.append(ReportRow("heat_spatial_order", math.nan, spatial_order, 0.0, spatial_order, spatial_order))

    # temporal refinement against the semi-discrete solution at fixed h
    N = 32
    g = gr.Grid(extent=(1.0,), cells=(N,))
    mu = -4.0 * N**2 * math.sin(math.pi / (2 * N)) ** 2
    u0 = 0.5 * np.cos(np.pi * (np.arange(N) + 0.5) / N)
    temporal_errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        u = final_state(u0, None, st.StepperConfig(dt=dt, t_end=T), g, None)
        exact = math.exp(mu * T) * u0
        err = float(np.max(np.abs(u - exact)))
        temporal_errors.append(err)
        rows.append(ReportRow(f"heat_temporal_err[dt={dt:g}]", math.nan, err, 0.0, err, err))
    temporal_orders = _observed_orders(temporal_errors)
    temporal_order = min(temporal_orders)
    rows.append(ReportRow("heat_temporal_order", math.nan, temporal_order, 0.0, temporal_order, temporal_order))

    # 0-d reduction: spatially constant states obey u' = -F'_lam(u)
    params = cfg.potential
    lam = cfg.lambda_levels[-1]
    level = pot.YosidaLevel(lam)
    g0 = gr.Grid(extent=(1.0,), cells=(2,))
    u_init = 0.1
    T0 = 0.5

    def rhs_ode(_t, y):
        bl, _, _ = pot.yosida_eval(level, y)
        return -(bl - 2.0 * params.c * y)

    ref = solve_ivp(rhs_ode, (0.0, T0), [u_init], method="DOP853", rtol=1e-11, atol=1e-13)
    ref_val = float(ref.y[0, -1])
    ode_errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        u = final_state(np.full(g0.shape, u_init), lam, st.StepperConfig(dt=dt, t_end=T0), g0, params)
        err = abs(float(u[0]) - ref_val)
        ode_errors.append(err)
        rows.append(ReportRow(f"ode_err[dt={dt:g}]", lam, err, 0.0, err, err))
    ode_orders = _observed_orders(ode_errors)
    ode_order = min(ode_orders)
    rows.append(ReportRow("ode_order", lam, ode_order, 0.0, ode_order, ode_order))

    report.metadata["spatial_orders"] = spatial_orders
    report.metadata["temporal_orders"] = temporal_orders
    report.metadata["ode_orders"] = ode_orders
    if spatial_order < 1.6:
        report.failures.append(f"observed spatial order {spatial_order:.3f} < 1.6")
    if temporal_order < 0.8:
        report.failures.append(f"observed heat temporal order {temporal_order:.3f} < 0.8")
    if ode_order < 0.8:
        report.failures.append(f"observed 0-d temporal order {ode_order:.3f} < 0.8")
    return report
