import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from helpers import measure, report_row
from logac import cli
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
        potential=pot.PotentialParams(c=2.0),
        u0=dg.U0Spec(kind="cosine", amplitude=0.4),
        g=dg.GSpec(kind="zero"),
    )
    base.update(overrides)
    return ex.EnsembleConfig(**base)


def ladder_study(study, cfg):
    """A uniform, cauchy or strong report reduced from a fresh ladder_run."""
    return study(cfg, ex.ladder_run(cfg))


def gauge_slices(lanes, spec, scfg, g, params, seed, order):
    """(int G_n, int |G_n'|) at every state of one _run_lanes run, via a hook."""
    slices = []

    def hook(m, u, beta_u):
        slices.append(ex._gauge_slice(g, order, u))

    ex._run_lanes(lanes, spec, scfg, g, params, seed, hooks=(hook,))
    return slices


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

    def test_needs_a_level(self):
        with pytest.raises(ValueError, match="^ensemble needs at least one lambda level$"):
            small_config(lambda_levels=())

    def test_seed_must_fit_the_64_bit_key(self):
        small_config(seed=2**64 - 1)
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=2**64)


class TestLadderRun:
    def test_one_run_feeds_all_three_reductions(self):
        cfg = small_config()
        run = ex.ladder_run(cfg)
        assert run["stats"]["sup_h_sq"].shape == (3, cfg.replicates)
        assert len(run["pairs"]) == 2
        reports = [study(cfg, run) for study in (ex.uniform_bounds_study, ex.cauchy_study, ex.strong_solution_study)]
        assert len({r.metadata["increments_digest"] for r in reports}) == 1

    def test_computed_afresh_on_every_call(self):
        cfg = small_config()
        a, b = ex.ladder_run(cfg), ex.ladder_run(cfg)
        assert a["final"] is not b["final"]
        assert np.array_equal(a["final"], b["final"])

    def test_peak_memory_of_the_reference_ensemble(self):
        # one ladder_run of the reference shape (128 cells, 64 replicates, 4 levels, 16 modes):
        # the solver's residuals are A - rhs temporaries, so the traced peak is 16.69 field
        # batches (16.79 when each step recomputed its first residual, 17.69 with a residual
        # field kept alongside each trial's A)
        cfg = cli.config_from_dict({"stepper": {"t_end": 0.002}}).ensemble
        field_batch = 8 * len(cfg.lambda_levels) * cfg.replicates * cfg.grid.cells[0]
        ex.ladder_run(cfg)  # caches and lazy imports are not the run's working set
        tracemalloc.start()
        try:
            ex.ladder_run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * field_batch, peak / field_batch

    def test_single_lane_has_no_pairs(self):
        cfg = small_config(lambda_levels=(0.1,))
        assert ex.ladder_run(cfg)["pairs"] == []


class TestBatchIndependence:
    # a replicate's path must not depend on which other replicates share its
    # batch: the Newton exit is per member and the 1-d linear solve is per
    # block, so the paths agree bit for bit
    @settings(max_examples=12, deadline=None)
    @given(
        cells=hst.sampled_from((16, 32, 64)),
        n_steps=hst.integers(min_value=1, max_value=20),
        reps=hst.integers(min_value=3, max_value=6),
        seed=hst.integers(min_value=0, max_value=2**32),
        data=hst.data(),
    )
    def test_leading_replicates_match_a_smaller_batch(self, cells, n_steps, reps, seed, data):
        k = data.draw(hst.integers(min_value=1, max_value=reps - 1))
        cfg = small_config(
            replicates=reps,
            seed=seed,
            grid=gr.Grid(extent=(1.0,), cells=(cells,)),
            stepper=st.StepperConfig(dt=1e-3, t_end=n_steps * 1e-3),
            u0=dg.U0Spec(kind="random_fourier", amplitude=0.5),
        )
        u0 = ex._lane_u0(cfg)

        def run(batch):
            lanes = [ex.Lane(lam, batch, np.zeros(cfg.grid.shape)) for lam in cfg.lambda_levels]
            pairs = [(i, i + 1) for i in range(len(lanes) - 1)]
            shape = (len(lanes), batch.shape[0])
            stats_hook, stats = ex._path_statistics(cfg.grid, cfg.stepper, cfg.potential.c, shape)
            pairs_hook, diffs = ex._lane_differences(cfg.grid, cfg.stepper, batch.shape[0], pairs)
            hooks = (stats_hook, pairs_hook)
            out = ex._run_lanes(lanes, cfg.noise, cfg.stepper, cfg.grid, cfg.potential, cfg.seed, hooks=hooks)
            return out, stats, diffs

        (full, full_stats, full_diffs), (head, head_stats, head_diffs) = run(u0), run(u0[:k])
        assert np.array_equal(full["final"][:, :k], head["final"])
        for name, value in full_stats.items():
            assert np.array_equal(value[:, :k], head_stats[name]), name
        for i, pa in enumerate(full_diffs):
            for name, value in pa.items():
                assert np.array_equal(value[:k], head_diffs[i][name]), (i, name)


class TestLaneIndependence:
    # a lane's path must not depend on which other lanes share its run: levels, data and
    # forcings differ across lanes, so their Newton solves take different iteration counts
    @pytest.mark.parametrize("cells", [(24,), (10, 12)], ids=["1d", "2d"])
    def test_each_lane_matches_its_run_alone(self, cells):
        g = gr.Grid(extent=(1.0,) * len(cells), cells=cells)
        scfg = st.StepperConfig(dt=2e-3, t_end=0.03)
        spec = nz.NoiseSpec(family="sine", modes=6, decay_exponent=2.0, amplitude=0.8)
        params = pot.PotentialParams(c=2.0)
        rng = np.random.default_rng(41)
        lanes = [
            ex.Lane(lam, rng.uniform(-0.9, 0.9, size=(4, *cells)), np.full(cells, force))
            for lam, force in ((0.2, 0.0), (0.02, 0.5), (0.003, -1.0))
        ]

        def run(batch):
            stats_hook, stats = ex._path_statistics(g, scfg, params.c, (len(batch), 4))
            out = ex._run_lanes(batch, spec, scfg, g, params, 9, hooks=(stats_hook,))
            return out["final"], stats

        final, stats = run(lanes)
        for i, lane in enumerate(lanes):
            alone, alone_stats = run([lane])
            assert np.array_equal(final[i], alone[0]), i
            for name, value in stats.items():
                assert np.array_equal(value[i], alone_stats[name][0]), (i, name)


class TestUniformStudy:
    def test_zero_data_gives_zero_statistics(self):
        rep = ladder_study(ex.uniform_bounds_study, quiet_config())
        for r in rep.rows:
            assert r.mean == 0.0
            assert r.se == 0.0

    def test_standard_error_shrinks_with_replicates(self):
        r8 = ladder_study(ex.uniform_bounds_study, small_config(replicates=8))
        r32 = ladder_study(ex.uniform_bounds_study, small_config(replicates=32))
        lam = 0.05
        for q in ("sup_h_sq", "int_beta_sq"):
            se8 = report_row(r8, q, lam).se
            se32 = report_row(r32, q, lam).se
            assert se32 > 0.0
            # quadrupling M should shrink the error roughly twofold
            assert 1.2 <= se8 / se32 <= 3.5

    def test_report_shape_and_spread(self):
        rep = ladder_study(ex.uniform_bounds_study, small_config())
        assert len(rep.rows) == 4 * 3
        assert set(rep.metadata["spread_max_over_min"]) == {
            "sup_h_sq",
            "int_grad_sq",
            "int_f1_sq",
            "int_beta_sq",
        }
        assert rep.failures == []

    def test_csv_bytes_reproducible(self):
        a = ladder_study(ex.uniform_bounds_study, small_config()).to_csv_text()
        b = ladder_study(ex.uniform_bounds_study, small_config()).to_csv_text()
        assert a == b
        assert a.splitlines()[0] == "quantity,lambda,mean,se,ci_lo,ci_hi"


class TestCauchyStudy:
    def test_identical_levels_give_zero_delta(self):
        cfg = small_config()
        u0 = ex._lane_u0(cfg)
        lanes = [ex.Lane(0.1, u0, np.zeros(cfg.grid.shape)), ex.Lane(0.1, u0, np.zeros(cfg.grid.shape))]
        hook, diffs = ex._lane_differences(cfg.grid, cfg.stepper, cfg.replicates, [(0, 1)])
        ex._run_lanes(lanes, cfg.noise, cfg.stepper, cfg.grid, cfg.potential, cfg.seed, hooks=(hook,))
        assert len(diffs) == 1
        pa = diffs[0]
        assert np.all(pa["sup_diff_h_sq"] == 0.0)
        assert np.all(pa["int_diff_grad_sq"] == 0.0)

    def test_deterministic_yosida_bias_decreases(self):
        cfg = quiet_config(
            u0=dg.U0Spec(kind="cosine", amplitude=0.4),
            lambda_levels=(0.2, 0.1, 0.05, 0.025),
            stepper=st.StepperConfig(dt=1e-3, t_end=0.05),
        )
        rep = ladder_study(ex.cauchy_study, cfg)
        assert rep.failures == []
        deltas = rep.metadata["deltas"]
        assert all(a > b > 0.0 for a, b in zip(deltas, deltas[1:]))

    def test_identical_paths_fail_by_name(self):
        # the origin is a fixed point, so every level runs the same path and every Delta is 0
        rep = ladder_study(ex.cauchy_study, quiet_config())
        assert rep.metadata["deltas"] == [0.0, 0.0]
        assert math.isnan(rep.metadata["successive_ratios"][0])
        assert rep.failures == ["cauchy delta not strictly decreasing: Delta(lam=0.1) = 0 >= Delta(lam=0.2) = 0"]

    def test_needs_three_levels(self):
        with pytest.raises(ValueError, match="3 lambda"):
            ladder_study(ex.cauchy_study, small_config(lambda_levels=(0.2, 0.1)))

    def test_common_noise_digest_stable(self):
        cfg = small_config()
        a = ladder_study(ex.cauchy_study, cfg)
        b = ladder_study(ex.cauchy_study, cfg)
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

    def test_unstable_family_fails_by_name(self, monkeypatch):
        # synthetic differences: lhs = sqrt(E sup ||d||_H^2) = 0.1 and 0.001 against ||du0||_H = 0.1 and 0.01
        def lane_differences(g, scfg, reps, pairs):
            zero = np.zeros(reps)
            stats = [
                {"sup_diff_h_sq": np.full(reps, lhs**2), "int_diff_h_sq": zero, "int_diff_grad_sq": zero}
                for lhs in (0.1, 0.001)
            ]
            return (lambda m, u, beta_u: None), stats

        monkeypatch.setattr(ex, "_lane_differences", lane_differences)
        rep = ex.dependence_study(small_config(), [ex.Perturbation(u0_shift=d) for d in (0.1, 0.01)])
        assert rep.metadata["ratio_families"]["u0"] == pytest.approx([1.0, 0.1], rel=1e-12)
        assert rep.failures == [
            f"dependence ratio unstable for u0 perturbations: {r} departs more than 50% from the family center 0.3162"
            for r in ("1", "0.1")
        ]

    def test_csv_reads_back(self):
        # quantity names hold commas, as in dep_ratio[du0=0.01,dg=0]
        cfg = small_config()
        rep = ex.dependence_study(cfg, [ex.Perturbation(u0_shift=0.01), ex.Perturbation(g_shift=0.01)])
        rows = list(csv.DictReader(io.StringIO(rep.to_csv_text())))
        assert any("," in r.quantity for r in rep.rows)
        assert len(rows) == len(rep.rows)
        for got, want in zip(rows, rep.rows):
            assert None not in got  # no field beyond the header's six
            assert got["quantity"] == want.quantity
            for key, value in (("lambda", want.lam), ("mean", want.mean), ("se", want.se)):
                assert float(got[key]) == value or (math.isnan(value) and math.isnan(float(got[key])))

    def test_inadmissible_perturbation_rejected(self):
        cfg = small_config(u0=dg.U0Spec(kind="constant", m0=0.95))
        with pytest.raises(ValueError, match="out of"):
            ex.dependence_study(cfg, [ex.Perturbation(u0_shift=0.2)])

    @pytest.mark.parametrize("g_spec", [dg.GSpec(kind="zero"), dg.GSpec(kind="constant", value=0.3)])
    def test_one_run_matches_separate_two_lane_runs(self, g_spec):
        cfg = small_config(g=g_spec, u0=dg.U0Spec(kind="random_fourier", amplitude=0.5))
        perturbations = [
            ex.Perturbation(u0_shift=0.01),
            ex.Perturbation(g_shift=0.02),
            ex.Perturbation(u0_shift=-0.005, g_shift=-0.01),
        ]
        rep = ex.dependence_study(cfg, perturbations)
        lam = cfg.lambda_levels[-1]
        u0 = ex._lane_u0(cfg)
        g_field = dg.make_g(cfg.g, cfg.grid)
        for p in perturbations:
            # the unperturbed lane and one perturbed lane, integrated on their own
            pert_g = g_field + np.full(cfg.grid.shape, p.g_shift)
            lanes = [ex.Lane(lam, u0, g_field), ex.Lane(lam, u0 + p.u0_shift, pert_g)]
            hook, (pa,) = ex._lane_differences(cfg.grid, cfg.stepper, cfg.replicates, [(0, 1)])
            ex._run_lanes(lanes, cfg.noise, cfg.stepper, cfg.grid, cfg.potential, cfg.seed, hooks=(hook,))
            lhs = float(np.sqrt(np.mean(pa["sup_diff_h_sq"]))) + float(
                np.sqrt(np.mean(pa["int_diff_h_sq"] + pa["int_diff_grad_sq"]))
            )
            assert lhs > 0.0
            assert report_row(rep, f"dep_lhs[du0={p.u0_shift:g},dg={p.g_shift:g}]", lam).mean == lhs

    def test_one_engine_run_of_one_plus_k_lanes(self, monkeypatch):
        lane_counts = []
        run_lanes = ex._run_lanes

        def counting_run_lanes(lanes, *args, **kwargs):
            lane_counts.append(len(lanes))
            return run_lanes(lanes, *args, **kwargs)

        monkeypatch.setattr(ex, "_run_lanes", counting_run_lanes)
        perturbations = [ex.Perturbation(u0_shift=d) for d in (0.01, 0.001)]
        perturbations += [ex.Perturbation(g_shift=d) for d in (0.01, 0.001)]
        rep = ex.dependence_study(small_config(), perturbations)
        assert lane_counts == [1 + len(perturbations)]
        assert len(set(rep.metadata["increments_digests"])) == 1
        assert len(rep.metadata["increments_digests"]) == len(perturbations)

    def test_reads_no_path_statistics(self, monkeypatch):
        def no_stats(*args, **kwargs):
            raise AssertionError("dependence attached the path statistics it never reads")

        monkeypatch.setattr(ex, "_path_statistics", no_stats)
        rep = ex.dependence_study(small_config(), [ex.Perturbation(u0_shift=0.01), ex.Perturbation(g_shift=0.01)])
        assert rep.failures == []

    def test_every_perturbation_checked_before_integrating(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("integrated before every perturbation was checked")

        monkeypatch.setattr(ex, "_run_lanes", no_run)
        cfg = small_config(u0=dg.U0Spec(kind="constant", m0=0.95))
        with pytest.raises(ValueError, match="out of"):
            ex.dependence_study(cfg, [ex.Perturbation(u0_shift=0.01), ex.Perturbation(u0_shift=0.2)])


class TestInitialDatum:
    @pytest.mark.parametrize("cells", [(16,), (8, 8)])
    @pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
    def test_random_fourier_leading_replicates_match_a_smaller_batch(self, cells, seed):
        g = gr.Grid(extent=(1.0,) * len(cells), cells=cells)
        spec = dg.U0Spec(kind="random_fourier", amplitude=0.5)
        full = dg.make_u0_batch(spec, g, seed, 8)
        assert full.shape == (8,) + g.shape
        assert np.array_equal(full[:3], dg.make_u0_batch(spec, g, seed, 3))
        assert not np.array_equal(full[0], full[1])  # each replicate draws its own stream

    @pytest.mark.parametrize("extent, cells", [((1.0,), (16,)), ((1.0, 2.0), (12, 8))])
    def test_smooth_bump_is_the_centred_gaussian_product(self, extent, cells):
        g = gr.Grid(extent=extent, cells=cells)

        def bump(amplitude):
            return dg.make_u0_batch(dg.U0Spec(kind="smooth_bump", amplitude=amplitude, width=0.2), g, 0, 2)

        batch = bump(0.6)
        assert batch.shape == (2,) + g.shape and np.array_equal(batch[0], batch[1])
        centres = np.meshgrid(*(g.cell_centers(ax) for ax in range(g.dim)), indexing="ij")
        r2 = sum(((x - 0.5 * L) / (0.2 * L)) ** 2 for x, L in zip(centres, extent))
        np.testing.assert_allclose(batch[0], 0.6 * np.exp(-0.5 * r2), rtol=1e-14)
        for ax in range(g.dim):
            np.testing.assert_allclose(batch[0], np.flip(batch[0], axis=ax), rtol=1e-14)
        # even cell counts: the peak cells lie half a cell from the centre on every axis
        peak = 0.6 * math.exp(-0.5 * sum((0.5 / (0.2 * n)) ** 2 for n in cells))
        assert math.isclose(batch[0].max(), peak, rel_tol=1e-14) and peak < 0.6
        assert all(n // 2 - 1 <= i <= n // 2 for i, n in zip(np.unravel_index(np.argmax(batch[0]), g.shape), cells))
        assert np.array_equal(bump(-0.3), -0.5 * batch)


class TestForcing:
    @pytest.mark.parametrize("cells", [(16,), (8, 8)])
    def test_zero_kind_is_a_zero_field(self, cells):
        g = gr.Grid(extent=(1.0,) * len(cells), cells=cells)
        field = dg.make_g(dg.GSpec(kind="zero"), g)
        assert field.shape == g.shape
        assert not np.any(field)

    def test_large_forcing_steps_to_finite_states(self):
        # dt*|g| = 1e6 rounds by about eps*1e6 ~ 2e-10, more than NEWTON_TOL = 1e-10; the outer Newton's
        # relative floor 4*eps*max|rhs| still converges, with no floating-point error under the CLI's rule
        g = gr.Grid(extent=(1.0,), cells=(16,))
        scfg = st.StepperConfig(dt=1e-2, t_end=0.1)
        lanes = [ex.Lane(lam=0.1, u0=np.zeros((2, 16)), g=np.full(16, 1e8))]
        quiet = nz.NoiseSpec(family="sine", modes=0, decay_exponent=2.0, amplitude=0.0)
        seen = []
        with np.errstate(all="raise", under="ignore"):
            out = ex._run_lanes(
                lanes, quiet, scfg, g, pot.PotentialParams(c=1.5), 7, hooks=[lambda m, u, b: seen.append(m)]
            )
        assert seen == list(range(scfg.n_steps + 1))
        assert np.all(np.isfinite(out["final"])) and np.all(out["final"] > 0.0)


class TestStrongStudy:
    def test_zero_data_is_uniform(self):
        rep = ladder_study(ex.strong_solution_study, quiet_config())
        assert rep.failures == []
        for r in rep.rows:
            assert r.mean == 0.0

    def test_reports_two_quantities_per_level(self):
        cfg = small_config()
        rep = ladder_study(ex.strong_solution_study, cfg)
        assert len(rep.rows) == 2 * len(cfg.lambda_levels)
        assert set(rep.metadata["spread_max_over_min"]) == {"sup_grad_sq", "int_lap_sq"}

    def test_spread_beyond_the_band_fails(self):
        # a synthetic ladder: the reduction reads only the statistics it is given
        cfg = small_config()
        levels = np.ones((len(cfg.lambda_levels), cfg.replicates))
        stats = {"sup_grad_sq": levels * [[1.0], [1.25], [1.5]], "int_lap_sq": levels}
        rep = ex.strong_solution_study(cfg, {"stats": stats, "increments_digest": ""})
        assert rep.failures == ["strong-solution statistic sup_grad_sq spread 1.5000 exceeds the 1.2 band"]

    def test_mesh_refinement_sanity(self):
        # statistics stay within 20% when the mesh is doubled at fixed (lam, dt)
        reps = {}
        for n in (16, 32):
            cfg = small_config(
                grid=gr.Grid(extent=(1.0,), cells=(n,)),
                stepper=st.StepperConfig(dt=1e-3, t_end=0.05),
                replicates=16,
            )
            reps[n] = ladder_study(ex.strong_solution_study, cfg)
        for q in ("sup_grad_sq", "int_lap_sq"):
            for lam in (0.2, 0.05):
                coarse = report_row(reps[16], q, lam).mean
                fine = report_row(reps[32], q, lam).mean
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
            ex.derivative_study(small_config())

    def test_gauge_order_below_two_rejected(self):
        # poly_flat flatness 2 gives the gauge order n = 1
        with pytest.raises(ValueError, match="n = flatness - 1 >= 2, got n=1"):
            ex.derivative_study(self._cfg(1))

    def test_forcing_bound_enforced(self):
        cfg = self._cfg(2, g=dg.GSpec(kind="constant", value=1.5))
        with pytest.raises(ValueError, match="inf"):
            ex.derivative_study(cfg)

    def test_zero_data_gauge_integral(self):
        # G_n(0) = 1, so the time integral of its spatial integral is |D| * T
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(16,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.02)
        quiet = nz.NoiseSpec(family="poly_flat", modes=0, decay_exponent=2.0, amplitude=0.0, flatness=3)
        lanes = [ex.Lane(0.05, np.zeros((1, 16)), np.zeros(16))]
        slices = gauge_slices(lanes, quiet, cfg, g, params, 0, 2)
        int_gauge = cfg.dt * sum(ig for ig, _ in slices[:-1])  # left-endpoint rule
        int_gauge_prime = cfg.dt * sum(igp for _, igp in slices[:-1])
        assert int_gauge[0, 0] == pytest.approx(measure(g) * 0.02, rel=1e-12)
        assert int_gauge_prime[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_higher_order_dominates(self):
        # G_3 >= G_2 pointwise on (-1, 1), so every statistic is ordered
        cfg = self._cfg(2)  # same noise/flatness for both gauges
        lanes = [ex.Lane(0.05, ex._lane_u0(cfg), np.zeros(cfg.grid.shape))]
        args = (lanes, cfg.noise, cfg.stepper, cfg.grid, cfg.potential, cfg.seed)
        series2 = np.asarray([ig for ig, _ in gauge_slices(*args, 2)])
        series3 = np.asarray([ig for ig, _ in gauge_slices(*args, 3)])
        assert np.all(series3 >= series2 - 1e-14)

    @pytest.mark.parametrize(
        "lane_gauge, failure",
        [
            ((1.0, 1.5), "derivative statistic sup_t_mean_gauge moved 50.0% under lambda-halving (limit 30%)"),
            ((math.nan, math.nan), "derivative statistic sup_t_mean_gauge is not finite: [nan, nan]"),
        ],
        ids=["drift", "not-finite"],
    )
    def test_gauge_verdicts_fail_by_name(self, monkeypatch, lane_gauge, failure):
        # synthetic slices: int G_n per lane as given, int |G_n'| = 0, so only the sup statistic can fail
        def gauge_slice(grid, n, u):
            return np.broadcast_to(np.array(lane_gauge)[:, None], u.shape[:2]), np.zeros(u.shape[:2])

        monkeypatch.setattr(ex, "_gauge_slice", gauge_slice)
        assert ex.derivative_study(self._cfg(2)).failures == [failure]

    def test_study_reports_and_passes(self):
        rep = ex.derivative_study(self._cfg(2))
        assert rep.failures == []
        quantities = {r.quantity for r in rep.rows}
        assert quantities == {"sup_t_mean_gauge", "int_abs_gauge_prime", "excursion_fraction"}
        assert rep.metadata["levels"][1] == pytest.approx(0.025)


class TestOracles:
    @pytest.mark.parametrize(
        "errors, orders",
        [
            ([0.0, 1e-3, 2e-3], [-math.inf, -1.0]),
            ([1e-3, 0.0], [math.inf]),
            ([0.0, 0.0], [math.nan]),
            ([4e-3, 1e-3], [2.0]),
        ],
        ids=["rises-from-0", "falls-to-0", "stays-0", "regular"],
    )
    def test_observed_orders_of_exact_zeros_take_their_limits(self, errors, orders):
        assert np.array_equal(ex._observed_orders(errors), orders, equal_nan=True)

    @pytest.mark.parametrize("exact_runs, order", [(1, -math.inf), (2, math.nan)], ids=["rises-from-0", "stays-0"])
    def test_error_rising_from_exactly_zero_fails(self, monkeypatch, exact_runs, order):
        # the first spatial runs land on the continuum solution itself, so their error is exactly 0
        run_lanes, calls = ex._run_lanes, []

        def exact_first(lanes, spec, scfg, g, params, seed, **kw):
            out = run_lanes(lanes, spec, scfg, g, params, seed, **kw)
            calls.append(1)
            if len(calls) <= exact_runs:
                x = g.cell_centers()
                out["final"] = (0.5 * math.exp(-np.pi**2 * 0.1) * np.cos(np.pi * x))[None, None]
            return out

        monkeypatch.setattr(ex, "_run_lanes", exact_first)
        rep = ex.heat_and_ode_oracles(small_config())
        row = report_row(rep, "heat_spatial_order", math.nan)
        assert np.array_equal(row.mean, order, equal_nan=True)
        assert rep.failures == [f"observed spatial order {order:.3f} < 1.6"]

    def test_orders_pass(self):
        rep = ex.heat_and_ode_oracles(small_config())
        assert rep.failures == []
        assert report_row(rep, "heat_spatial_order", math.nan).mean >= 1.6
        assert report_row(rep, "heat_temporal_order", math.nan).mean >= 0.8
        assert report_row(rep, "ode_order", 0.05).mean >= 0.8

    def test_take_no_norms(self, monkeypatch):
        # the oracles attach no hook, so they pay for no path statistic
        calls = []

        def counted(norm):
            def wrapper(*args):
                calls.append(norm.__name__)
                return norm(*args)

            return wrapper

        monkeypatch.setattr(gr, "h_norm_sq", counted(gr.h_norm_sq))
        monkeypatch.setattr(gr, "grad_norm_sq", counted(gr.grad_norm_sq))
        assert ex.heat_and_ode_oracles(small_config()).failures == []
        assert calls == []

    def test_zero_initial_data_stays_zero(self):
        g = gr.Grid(extent=(1.0,), cells=(32,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.05)
        quiet = nz.NoiseSpec(family="sine", modes=0, decay_exponent=2.0, amplitude=0.0)
        out = ex._run_lanes([ex.Lane(None, np.zeros((1, 32)), np.zeros(32))], quiet, cfg, g, None, seed=0)
        assert np.all(out["final"] == 0.0)
        # the engine is the time loop only: every statistic comes from a hook
        assert out.keys() == {"final", "increments_digest", "n_steps"}

    def test_heat_lanes_reject_noise(self):
        # the noise is evaluated at J_lam(u), which a lane without a level does not have
        g = gr.Grid(extent=(1.0,), cells=(8,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.01)
        spec = nz.NoiseSpec(family="sine", modes=4, decay_exponent=2.0, amplitude=0.5)
        with pytest.raises(ValueError, match="noise needs a Yosida level"):
            ex._run_lanes([ex.Lane(None, np.zeros((1, 8)), np.zeros(8))], spec, cfg, g, None, seed=0)

    def test_deterministic_in_seed(self):
        a = ex.heat_and_ode_oracles(small_config(seed=1))
        b = ex.heat_and_ode_oracles(small_config(seed=999))
        assert a.to_csv_text() == b.to_csv_text()
