import math

import numpy as np
import pytest

from logac import datagen as dg
from logac import experiments as ex
from logac import grid as gr
from logac import noise as nz
from logac import potential as pot
from logac import stepper as st


def small_config(**overrides):
    base = dict(
        replicates=8,
        seed=2024,
        lambda_levels=(0.2, 0.1, 0.05),
        grid=gr.Grid(extent=(1.0,), cells=(16,)),
        stepper=st.StepperConfig(dt=1e-3, t_end=0.02),
        noise=nz.NoiseSpec(family="sine", modes=6, decay_exponent=2.0, amplitude=0.4),
        potential=pot.logarithmic_params(c=2.0),
        u0=dg.U0Spec(kind="cosine", amplitude=0.4),
        g=dg.GSpec(kind="zero"),
    )
    base.update(overrides)
    return ex.EnsembleConfig(**base)


def quiet_config(**overrides):
    kwargs = dict(
        noise=nz.NoiseSpec(family="sine", modes=0, decay_exponent=2.0, amplitude=0.0),
        u0=dg.U0Spec(kind="constant", m0=0.0),
    )
    kwargs.update(overrides)
    return small_config(**kwargs)


class TestEnsembleValidation:
    def test_levels_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            small_config(lambda_levels=(0.1, 0.2))

    def test_needs_two_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            small_config(replicates=1)


class TestUniformStudy:
    def test_zero_data_gives_zero_statistics(self):
        rep = ex.uniform_bounds_study(quiet_config())
        for r in rep.rows:
            assert r.mean == 0.0
            assert r.se == 0.0

    def test_standard_error_shrinks_with_replicates(self):
        r8 = ex.uniform_bounds_study(small_config(replicates=8))
        r32 = ex.uniform_bounds_study(small_config(replicates=32))
        lam = 0.05
        for q in ("sup_h_sq", "int_beta_sq"):
            se8 = r8.row(q, lam).se
            se32 = r32.row(q, lam).se
            assert se32 > 0.0
            # quadrupling M should shrink the error roughly twofold
            assert 1.2 <= se8 / se32 <= 3.5

    def test_report_shape_and_spread(self):
        rep = ex.uniform_bounds_study(small_config())
        assert len(rep.rows) == 4 * 3
        assert set(rep.metadata["spread_max_over_min"]) == {
            "sup_h_sq",
            "int_grad_sq",
            "int_f1_sq",
            "int_beta_sq",
        }
        assert rep.failures == []

    def test_csv_bytes_reproducible(self):
        a = ex.uniform_bounds_study(small_config()).to_csv_text()
        b = ex.uniform_bounds_study(small_config()).to_csv_text()
        assert a == b
        assert a.splitlines()[0] == "quantity,lambda,mean,se,ci_lo,ci_hi"


class TestCauchyStudy:
    def test_identical_levels_give_zero_delta(self):
        cfg = small_config()
        u0 = ex._lane_u0(cfg)
        lanes = [ex.Lane(0.1, u0, None), ex.Lane(0.1, u0, None)]
        out = ex._run_lanes(lanes, cfg.noise, cfg.stepper, cfg.grid, cfg.potential, cfg.seed, pairs=((0, 1),))
        pa = out["pairs"][(0, 1)]
        assert np.all(pa["sup_diff_h_sq"] == 0.0)
        assert np.all(pa["int_diff_grad_sq"] == 0.0)

    def test_deterministic_yosida_bias_decreases(self):
        cfg = quiet_config(
            u0=dg.U0Spec(kind="cosine", amplitude=0.4),
            lambda_levels=(0.2, 0.1, 0.05, 0.025),
            stepper=st.StepperConfig(dt=1e-3, t_end=0.05),
        )
        rep = ex.cauchy_study(cfg)
        assert rep.failures == []
        deltas = rep.metadata["deltas"]
        assert all(a > b > 0.0 for a, b in zip(deltas, deltas[1:]))

    def test_needs_three_levels(self):
        with pytest.raises(ValueError, match="3 lambda"):
            ex.cauchy_study(small_config(lambda_levels=(0.2, 0.1)))

    def test_common_noise_digest_stable(self):
        cfg = small_config()
        a = ex.cauchy_study(cfg)
        b = ex.cauchy_study(cfg)
        assert a.metadata["increments_digest"] == b.metadata["increments_digest"]
        assert a.metadata["deltas"] == b.metadata["deltas"]


class TestDependenceStudy:
    def test_zero_perturbation_zero_lhs(self):
        cfg = small_config()
        rep = ex.dependence_study(cfg, [ex.Perturbation()])
        lhs = [r for r in rep.rows if r.quantity.startswith("dep_lhs")][0]
        ratio = [r for r in rep.rows if r.quantity.startswith("dep_ratio")][0]
        assert lhs.mean == 0.0
        assert math.isnan(ratio.mean)

    def test_g_only_perturbation_moves_solution(self):
        cfg = small_config()
        rep = ex.dependence_study(cfg, [ex.Perturbation(g_shift=0.05)])
        lhs = [r for r in rep.rows if r.quantity.startswith("dep_lhs")][0]
        assert lhs.mean > 0.0
        assert rep.metadata["ratio_families"]["g"][0] > 0.0

    def test_coupled_runs_share_increment_stream(self):
        cfg = small_config()
        rep = ex.dependence_study(cfg, [ex.Perturbation(u0_shift=0.01), ex.Perturbation(g_shift=0.01)])
        digests = rep.metadata["increments_digests"]
        assert len(set(digests)) == 1

    def test_ratio_stability_check_runs(self):
        cfg = small_config(stepper=st.StepperConfig(dt=1e-3, t_end=0.05))
        rep = ex.dependence_study(cfg, [ex.Perturbation(u0_shift=d) for d in (0.05, 0.005)])
        assert rep.failures == []
        ratios = rep.metadata["ratio_families"]["u0"]
        assert len(ratios) == 2
        assert ratios[0] == pytest.approx(ratios[1], rel=0.25)

    def test_inadmissible_perturbation_rejected(self):
        cfg = small_config(u0=dg.U0Spec(kind="constant", m0=0.95))
        with pytest.raises(ValueError, match="out of"):
            ex.dependence_study(cfg, [ex.Perturbation(u0_shift=0.2)])


class TestStrongStudy:
    def test_zero_data_is_uniform(self):
        rep = ex.strong_solution_study(quiet_config())
        assert rep.failures == []
        for r in rep.rows:
            assert r.mean == 0.0

    def test_reports_two_quantities_per_level(self):
        cfg = small_config()
        rep = ex.strong_solution_study(cfg)
        assert len(rep.rows) == 2 * len(cfg.lambda_levels)
        assert set(rep.metadata["spread_max_over_min"]) == {"sup_grad_sq", "int_lap_sq"}

    def test_mesh_refinement_sanity(self):
        # statistics stay within 20% when the mesh is doubled at fixed (lam, dt)
        reps = {}
        for n in (16, 32):
            cfg = small_config(
                grid=gr.Grid(extent=(1.0,), cells=(n,)),
                stepper=st.StepperConfig(dt=1e-3, t_end=0.05),
                replicates=16,
            )
            reps[n] = ex.strong_solution_study(cfg)
        for q in ("sup_grad_sq", "int_lap_sq"):
            for lam in (0.2, 0.05):
                coarse = reps[16].row(q, lam).mean
                fine = reps[32].row(q, lam).mean
                assert fine == pytest.approx(coarse, rel=0.20)


class TestDerivativeStudy:
    def _cfg(self, n, **overrides):
        return small_config(
            noise=nz.NoiseSpec(family="poly_flat", modes=6, decay_exponent=2.0, amplitude=0.2, flatness=n + 1),
            u0=dg.U0Spec(kind="constant", m0=0.1),
            **overrides,
        )

    def test_requires_poly_flat(self):
        with pytest.raises(ValueError, match="poly_flat"):
            ex.derivative_study(small_config(), n=2)

    def test_flatness_must_match_order(self):
        with pytest.raises(ValueError, match="flatness"):
            ex.derivative_study(self._cfg(2), n=3)

    def test_forcing_bound_enforced(self):
        cfg = self._cfg(2, g=dg.GSpec(kind="constant", value=1.5))
        with pytest.raises(ValueError, match="inf"):
            ex.derivative_study(cfg, n=2)

    def test_zero_data_gauge_integral(self):
        # G_n(0) = 1, so the time integral of its spatial integral is |D| * T
        params = pot.logarithmic_params(c=2.0)
        level = pot.YosidaLevel(0.05)
        g = gr.Grid(extent=(1.0,), cells=(16,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.02)
        quiet = nz.NoiseSpec(family="poly_flat", modes=0, decay_exponent=2.0, amplitude=0.0, flatness=3)
        lanes = [ex.Lane(level.lam, np.zeros((1, 16)), None)]
        out = ex._run_lanes(lanes, quiet, cfg, g, params, seed=0, gauge=pot.GaugeOrder(2))
        int_gauge = cfg.dt * np.sum(out["gauge_series"][:-1])  # left-endpoint rule
        assert int_gauge == pytest.approx(g.measure * 0.02, rel=1e-12)
        assert out["stats"]["int_abs_gauge_prime"][0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_higher_order_dominates(self):
        # G_3 >= G_2 pointwise on (-1, 1), so every statistic is ordered
        cfg2 = self._cfg(2)
        cfg3 = self._cfg(2)  # same noise/flatness, evaluate both gauges on one run
        u0 = ex._lane_u0(cfg2)
        lanes = [ex.Lane(0.05, u0, None)]
        out2 = ex._run_lanes(lanes, cfg2.noise, cfg2.stepper, cfg2.grid, cfg2.potential, cfg2.seed, gauge=pot.GaugeOrder(2))
        out3 = ex._run_lanes(lanes, cfg3.noise, cfg3.stepper, cfg3.grid, cfg3.potential, cfg3.seed, gauge=pot.GaugeOrder(3))
        assert np.all(out3["gauge_series"] >= out2["gauge_series"] - 1e-14)

    def test_study_reports_and_passes(self):
        rep = ex.derivative_study(self._cfg(2), n=2)
        assert rep.failures == []
        quantities = {r.quantity for r in rep.rows}
        assert quantities == {"sup_t_mean_gauge", "int_abs_gauge_prime", "excursion_fraction"}
        assert rep.metadata["levels"][1] == pytest.approx(0.025)


class TestOracles:
    def test_orders_pass(self):
        rep = ex.heat_and_ode_oracles(small_config())
        assert rep.failures == []
        assert rep.row("heat_spatial_order", math.nan).mean >= 1.6
        assert rep.row("heat_temporal_order", math.nan).mean >= 0.8
        assert rep.row("ode_order", 0.05).mean >= 0.8

    def test_zero_initial_data_stays_zero(self):
        g = gr.Grid(extent=(1.0,), cells=(32,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.05)
        quiet = nz.NoiseSpec(family="sine", modes=0, decay_exponent=2.0, amplitude=0.0)
        out = ex._run_lanes([ex.Lane(None, np.zeros((1, 32)), None)], quiet, cfg, g, None, seed=0)
        assert np.all(out["final"] == 0.0)

    def test_deterministic_in_seed(self):
        a = ex.heat_and_ode_oracles(small_config(seed=1))
        b = ex.heat_and_ode_oracles(small_config(seed=999))
        assert a.to_csv_text() == b.to_csv_text()
