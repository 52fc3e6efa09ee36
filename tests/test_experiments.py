import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad, solve_ivp

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


def gauge_slices(levels, u0, g_force, spec, scfg, g, c, seed, order):
    """(int G_n, int |G_n'|, outside count) at every state of one _run_lanes run, via a hook."""
    slices = []

    def hook(m, u, beta_u):
        slices.append(ex._gauge_slice(g, order, u))

    ex._run_lanes(levels, u0, g_force, spec, scfg, g, c, seed, hooks=(hook,))
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
    # the uniform, cauchy and strong studies each run every level of one config, the coupled ladder
    def test_three_level_studies_report_one_increments_digest(self):
        cfg = small_config()
        reports = [study(cfg) for study in (ex.uniform_bounds_study, ex.cauchy_study, ex.strong_solution_study)]
        assert len({r.metadata["increments_digest"] for r in reports}) == 1

    @pytest.mark.parametrize(
        "study, unread",
        [
            (ex.uniform_bounds_study, "_lane_differences"),
            (ex.strong_solution_study, "_lane_differences"),
            (ex.cauchy_study, "_path_statistics"),
        ],
        ids=["uniform", "strong", "cauchy"],
    )
    def test_attaches_only_the_hooks_it_reads(self, monkeypatch, study, unread):
        def unread_hook(*args, **kwargs):
            raise AssertionError(f"{study.__name__} attached {unread}, which it never reads")

        monkeypatch.setattr(ex, unread, unread_hook)
        assert study(small_config()).rows

    def test_peak_memory_of_the_reference_ensemble(self):
        # one study of the reference shape (128 cells, 64 replicates, 4 levels, 16 modes):
        # beta_lam'(u) is carried with the state, each evaluation's residual A - rhs is formed
        # once and its A dropped as soon as the residual is read, and each trial's resolvent
        # guess takes beta_lam(w)'s place, so the traced peak is 16.53 field batches with the
        # path statistics and 16.48 with the level differences (17.53 with the spent A kept
        # beside its residual, a stale beta_lam(w) or a slope buffer in the graph solve, 16.79
        # when each step recomputed its first residual)
        cfg = cli.config_from_dict({"stepper": {"t_end": 0.002}}).ensemble
        field_batch = 8 * len(cfg.lambda_levels) * cfg.replicates * cfg.grid.cells[0]
        for study in (ex.uniform_bounds_study, ex.cauchy_study):
            study(cfg)  # caches and lazy imports are not the run's working set
            tracemalloc.start()
            try:
                study(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 17 * field_batch, (study.__name__, peak / field_batch)

    def test_graph_solve_passes_of_the_reference_ensemble(self, monkeypatch):
        # 5 steps of one study of the reference shape: every residual check of the graph solve
        # takes one tanh, and each step takes one more, for the noise point; the first Newton
        # slope is carried from the step before.  Warm-started from the outer Newton's
        # linearization the study takes 33, one of them the cold start's check of b = 0 at the
        # datum (38 when each step took the first slope from tanh(beta/2), 47 when each trial
        # started from the latest evaluation).
        cfg = cli.config_from_dict({"stepper": {"t_end": 0.005}}).ensemble
        calls, tanh = [], np.tanh

        def spy(*args, **kwargs):
            calls.append(1)
            return tanh(*args, **kwargs)

        monkeypatch.setattr(pot.np, "tanh", spy)
        ex.cauchy_study(cfg)
        assert len(calls) <= 35, len(calls)


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
        u0 = dg.make_u0_batch(cfg.u0, cfg.grid, cfg.seed, cfg.replicates)

        def run(batch):
            levels = cfg.lambda_levels
            pairs = [(i, i + 1) for i in range(len(levels) - 1)]
            shape = (len(levels), batch.shape[0])
            stats_hook, stats = ex._path_statistics(cfg.grid, cfg.stepper, cfg.potential.c, shape)
            pairs_hook, diffs = ex._lane_differences(cfg.grid, cfg.stepper, batch.shape[0], pairs)
            hooks = (stats_hook, pairs_hook)
            args = (cfg.noise, cfg.stepper, cfg.grid, cfg.potential.c, cfg.seed)
            out = ex._run_lanes(levels, batch, np.zeros(cfg.grid.shape), *args, hooks=hooks)
            return out, stats, diffs

        (full, full_stats, full_diffs), (head, head_stats, head_diffs) = run(u0), run(u0[:k])
        assert np.array_equal(full["final"][:, :k], head["final"])
        for name, value in full_stats.items():
            assert np.array_equal(value[:, :k], head_stats[name]), name
        for name, value in full_diffs.items():
            assert np.array_equal(value[:, :k], head_diffs[name]), name


class TestLaneIndependence:
    # a lane's path must not depend on which other lanes share its run: levels, data and
    # forcings differ across lanes, so their Newton solves take different iteration counts;
    # nor may a pair's differences depend on the other pairs taken in the same pass
    @pytest.mark.parametrize("cells", [(24,), (10, 12)], ids=["1d", "2d"])
    def test_each_lane_matches_its_run_alone(self, cells):
        g = gr.Grid(extent=(1.0,) * len(cells), cells=cells)
        scfg = st.StepperConfig(dt=2e-3, t_end=0.03)
        spec = nz.NoiseSpec(family="sine", modes=6, decay_exponent=2.0, amplitude=0.8)
        params = pot.PotentialParams(c=2.0)
        rng = np.random.default_rng(41)
        levels = np.array([0.2, 0.02, 0.003])
        u0 = np.stack([rng.uniform(-0.9, 0.9, size=(4, *cells)) for _ in levels])
        g_force = np.stack([np.full(cells, force) for force in (0.0, 0.5, -1.0)])

        pairs = [(0, 1), (2, 0), (1, 2), (0, 1)]  # reversed, repeated and non-adjacent

        def run(lanes, pairs):
            stats_hook, stats = ex._path_statistics(g, scfg, params.c, (len(lanes), 4))
            pairs_hook, diffs = ex._lane_differences(g, scfg, 4, pairs)
            hooks = (stats_hook, pairs_hook)
            out = ex._run_lanes(levels[lanes], u0[lanes], g_force[lanes], spec, scfg, g, params.c, 9, hooks=hooks)
            return out["final"], stats, diffs

        final, stats, diffs = run([0, 1, 2], pairs)
        for i in range(len(levels)):
            alone, alone_stats, _ = run([i], [])
            assert np.array_equal(final[i], alone[0]), i
            for name, value in stats.items():
                assert np.array_equal(value[i], alone_stats[name][0]), (i, name)
        assert all(value.shape == (len(pairs), 4) for value in diffs.values())
        for k, (i, j) in enumerate(pairs):
            # the pair's two lanes on their own, with that one pair
            *_, pair_diffs = run([i, j], [(0, 1)])
            for name, value in diffs.items():
                assert np.array_equal(value[k], pair_diffs[name][0]), (k, name)

    def test_shared_datum_and_forcing_run_as_their_stacked_copies(self):
        # a level run passes one (replicates, *grid) datum and one grid forcing for all its lanes; the
        # engine builds from them the C-ordered state that stacking a copy per lane gives
        cfg = small_config(g=dg.GSpec(kind="constant", value=0.3), u0=dg.U0Spec(kind="random_fourier", amplitude=0.5))
        u0, g_field = dg.make_u0_batch(cfg.u0, cfg.grid, cfg.seed, cfg.replicates), dg.make_g(cfg.g, cfg.grid)
        levels = cfg.lambda_levels
        args = (cfg.noise, cfg.stepper, cfg.grid, cfg.potential.c, cfg.seed)
        first_state = []

        def hook(m, u, beta_u):
            if m == 0:
                first_state.append(u.flags.c_contiguous)

        shared = ex._run_lanes(levels, u0, g_field, *args, hooks=(hook,))
        stacked = ex._run_lanes(levels, np.stack([u0] * len(levels)), np.stack([g_field] * len(levels)), *args)
        assert shared["final"].tobytes() == stacked["final"].tobytes()
        assert shared["increments_digest"] == stacked["increments_digest"]
        assert first_state == [True]


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
            se8 = report_row(r8, q, lam).se
            se32 = report_row(r32, q, lam).se
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
        u0 = dg.make_u0_batch(cfg.u0, cfg.grid, cfg.seed, cfg.replicates)
        hook, diffs = ex._lane_differences(cfg.grid, cfg.stepper, cfg.replicates, [(0, 1)])
        args = (cfg.noise, cfg.stepper, cfg.grid, cfg.potential.c, cfg.seed)
        ex._run_lanes([0.1, 0.1], u0, np.zeros(cfg.grid.shape), *args, hooks=(hook,))
        assert diffs["sup_diff_h_sq"].shape == (1, cfg.replicates)
        assert np.all(diffs["sup_diff_h_sq"] == 0.0)
        assert np.all(diffs["int_diff_grad_sq"] == 0.0)

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

    def test_identical_paths_fail_by_name(self):
        # the origin is a fixed point, so every level runs the same path and every Delta is 0
        rep = ex.cauchy_study(quiet_config())
        assert rep.metadata["deltas"] == [0.0, 0.0]
        assert math.isnan(rep.metadata["successive_ratios"][0])
        assert rep.failures == ["cauchy delta not strictly decreasing: Delta(lam=0.1) = 0 >= Delta(lam=0.2) = 0"]

    def test_needs_three_levels(self, monkeypatch, tmp_path):
        # the level count is checked before any integration, and the CLI reports it as a usage error
        def no_run(*args, **kwargs):
            raise AssertionError("integrated before the level count was checked")

        monkeypatch.setattr(ex, "_run_lanes", no_run)
        cfg = small_config(lambda_levels=(0.2, 0.1))
        with pytest.raises(ValueError, match="^cauchy study needs at least 3 lambda levels$"):
            ex.cauchy_study(cfg)
        assert cli.run("cauchy", cli.RunConfig(ensemble=cfg, output_dir=str(tmp_path))) == 2

    def test_common_noise_digest_stable(self):
        cfg = small_config()
        a = ex.cauchy_study(cfg)
        b = ex.cauchy_study(cfg)
        assert a.metadata["increments_digest"] == b.metadata["increments_digest"]
        assert a.metadata["deltas"] == b.metadata["deltas"]


class TestDependenceStudy:
    def test_zero_perturbation_zero_lhs(self):
        # a size of 0 makes one member of each family, both tagged du0=0,dg=0
        rep = ex.dependence_study(small_config(), (0.0,))
        lhs = [r.mean for r in rep.rows if r.quantity == "dep_lhs[du0=0,dg=0]"]
        ratio = [r.mean for r in rep.rows if r.quantity == "dep_ratio[du0=0,dg=0]"]
        assert lhs == [0.0, 0.0]
        assert len(ratio) == 2 and all(math.isnan(r) for r in ratio)

    def test_g_only_perturbation_moves_solution(self):
        rep = ex.dependence_study(small_config(), (0.05,))
        assert report_row(rep, "dep_lhs[du0=0,dg=0.05]", 0.05).mean > 0.0
        assert rep.metadata["ratio_families"]["g"][0] > 0.0
        # the same size shifts the datum as well
        assert report_row(rep, "dep_lhs[du0=0.05,dg=0]", 0.05).mean > 0.0
        assert rep.metadata["ratio_families"]["u0"][0] > 0.0

    def test_coupled_runs_share_increment_stream(self):
        rep = ex.dependence_study(small_config(), (0.01,))
        digests = rep.metadata["increments_digests"]
        assert len(digests) == 2
        assert len(set(digests)) == 1

    def test_ratio_stability_check_runs(self):
        cfg = small_config(stepper=st.StepperConfig(dt=1e-3, t_end=0.05))
        rep = ex.dependence_study(cfg, (0.05, 0.005))
        assert rep.failures == []
        for name in ("u0", "g"):
            ratios = rep.metadata["ratio_families"][name]
            assert len(ratios) == 2
            assert ratios[0] == pytest.approx(ratios[1], rel=0.25)

    def test_unstable_family_fails_by_name(self, monkeypatch):
        # synthetic differences: the u0 family's lhs = sqrt(E sup ||d||_H^2) = 0.1 and 0.001 against
        # ||du0||_H = 0.1 and 0.01; the g family's lhs scales with its size, so its ratio is stable
        def lane_differences(g, scfg, reps, pairs):
            zero = np.zeros((4, reps))
            sup = np.repeat([[0.1**2], [0.001**2], [0.1**2], [0.01**2]], reps, axis=1)
            stats = {"sup_diff_h_sq": sup, "int_diff_h_sq": zero, "int_diff_grad_sq": zero}
            return (lambda m, u, beta_u: None), stats

        monkeypatch.setattr(ex, "_lane_differences", lane_differences)
        rep = ex.dependence_study(small_config(), (0.1, 0.01))
        assert rep.metadata["ratio_families"]["u0"] == pytest.approx([1.0, 0.1], rel=1e-12)
        g_ratios = rep.metadata["ratio_families"]["g"]
        assert g_ratios[0] > 0.0 and g_ratios[0] == pytest.approx(g_ratios[1], rel=1e-12)
        assert rep.failures == [
            f"dependence ratio unstable for u0 perturbations: {r} departs more than 50% from the family center 0.3162"
            for r in ("1", "0.1")
        ]

    def test_perturbation_lost_to_rounding_fails_by_name(self):
        # u0 + 1e-20 rounds to u0 at |u0| ~ 0.4, and so does u + dt*1e-20 for the forcing shift, so each
        # family has a member whose lhs and ratio are exactly 0 and no geometric mean; the study names
        # both and still returns its report
        rep = ex.dependence_study(small_config(replicates=4), (1e-20, 0.01))
        for name in ("u0", "g"):
            assert rep.metadata["ratio_families"][name][0] == 0.0
            assert rep.metadata["ratio_families"][name][1] > 0.0
        assert report_row(rep, "dep_lhs[du0=1e-20,dg=0]", 0.05).mean == 0.0
        assert report_row(rep, "dep_lhs[du0=0,dg=1e-20]", 0.05).mean == 0.0
        assert rep.failures == [
            "dependence ratio is 0 for u0 perturbation du0=1e-20,dg=0: lost to rounding",
            "dependence ratio is 0 for g perturbation du0=0,dg=1e-20: lost to rounding",
        ]

    def test_zero_horizon_fails_the_g_family_by_name(self):
        # at t_end = 0 a g-only shift has rhs sqrt(T)*||dg||_V* = 0, so its ratio is nan and has no logarithm
        cfg = small_config(replicates=4, stepper=st.StepperConfig(dt=1e-3, t_end=0.0))
        rep = ex.dependence_study(cfg, (0.01, 0.001))
        assert all(math.isnan(r) for r in rep.metadata["ratio_families"]["g"])
        assert rep.failures == [
            f"dependence ratio is nan for g perturbation du0=0,dg={d:g}: its right side is 0" for d in (0.01, 0.001)
        ]

    def test_csv_reads_back(self):
        # quantity names hold commas, as in dep_ratio[du0=0.01,dg=0]
        rep = ex.dependence_study(small_config(), (0.01,))
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
        with pytest.raises(ValueError, match=r"^a datum shift of 0.2 pushes the initial datum out of \(-1, 1\)$"):
            ex.dependence_study(cfg, (0.2,))

    @pytest.mark.parametrize("g_spec", [dg.GSpec(kind="zero"), dg.GSpec(kind="constant", value=0.3)])
    def test_one_run_matches_separate_two_lane_runs(self, g_spec):
        cfg = small_config(g=g_spec, u0=dg.U0Spec(kind="random_fourier", amplitude=0.5))
        sizes = (0.02, -0.005)
        rep = ex.dependence_study(cfg, sizes)
        lam = cfg.lambda_levels[-1]
        u0 = dg.make_u0_batch(cfg.u0, cfg.grid, cfg.seed, cfg.replicates)
        g_field = dg.make_g(cfg.g, cfg.grid)
        members = [(d, 0.0) for d in sizes] + [(0.0, d) for d in sizes]  # (du0, dg): the u0 family, the g family
        for du0, dg_shift in members:
            # the unperturbed lane and one perturbed lane, integrated on their own
            data, forcings = np.stack([u0, u0 + du0]), np.stack([g_field, g_field + dg_shift])
            hook, diffs = ex._lane_differences(cfg.grid, cfg.stepper, cfg.replicates, [(0, 1)])
            args = (cfg.noise, cfg.stepper, cfg.grid, cfg.potential.c, cfg.seed)
            ex._run_lanes([lam, lam], data, forcings, *args, hooks=(hook,))
            (sup,), (integral,) = diffs["sup_diff_h_sq"], diffs["int_diff_h_sq"] + diffs["int_diff_grad_sq"]
            lhs = float(np.sqrt(np.mean(sup))) + float(np.sqrt(np.mean(integral)))
            assert lhs > 0.0
            assert report_row(rep, f"dep_lhs[du0={du0:g},dg={dg_shift:g}]", lam).mean == lhs

    def test_one_engine_run_of_one_plus_k_lanes(self, monkeypatch):
        lane_counts = []
        run_lanes = ex._run_lanes

        def counting_run_lanes(levels, *args, **kwargs):
            lane_counts.append(len(levels))
            return run_lanes(levels, *args, **kwargs)

        monkeypatch.setattr(ex, "_run_lanes", counting_run_lanes)
        sizes = (0.01, 0.001)
        rep = ex.dependence_study(small_config(), sizes)
        assert lane_counts == [1 + 2 * len(sizes)]  # lane 0, then a u0 and a g member per size
        assert len(set(rep.metadata["increments_digests"])) == 1
        assert len(rep.metadata["increments_digests"]) == 2 * len(sizes)

    def test_reads_no_path_statistics(self, monkeypatch):
        def no_stats(*args, **kwargs):
            raise AssertionError("dependence attached the path statistics it never reads")

        monkeypatch.setattr(ex, "_path_statistics", no_stats)
        rep = ex.dependence_study(small_config(), (0.01,))
        assert rep.failures == []

    def test_every_perturbation_checked_before_integrating(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("integrated before every perturbation was checked")

        monkeypatch.setattr(ex, "_run_lanes", no_run)
        cfg = small_config(u0=dg.U0Spec(kind="constant", m0=0.95))
        with pytest.raises(ValueError, match=r"^a datum shift of 0.2 pushes"):
            ex.dependence_study(cfg, (0.01, 0.2))


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
        quiet = nz.NoiseSpec(family="sine", modes=0, decay_exponent=2.0, amplitude=0.0)
        seen = []
        with np.errstate(all="raise", under="ignore"):
            hooks = [lambda m, u, b: seen.append(m)]
            out = ex._run_lanes([0.1], np.zeros((2, 16)), np.full(16, 1e8), quiet, scfg, g, 1.5, 7, hooks=hooks)
        assert seen == list(range(scfg.n_steps + 1))
        assert np.all(np.isfinite(out["final"])) and np.all(out["final"] > 0.0)


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

    def test_spread_beyond_the_band_fails(self, monkeypatch):
        # synthetic statistics: the study reduces only what its path-statistics hook fills
        cfg = small_config()
        levels = np.ones((len(cfg.lambda_levels), cfg.replicates))
        stats = {"sup_grad_sq": levels * [[1.0], [1.25], [1.5]], "int_lap_sq": levels}
        monkeypatch.setattr(ex, "_path_statistics", lambda *args: (lambda m, u, beta_u: None, stats))
        rep = ex.strong_solution_study(cfg)
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
            reps[n] = ex.strong_solution_study(cfg)
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
        g = gr.Grid(extent=(1.0,), cells=(16,))
        cfg = st.StepperConfig(dt=1e-3, t_end=0.02)
        quiet = nz.NoiseSpec(family="poly_flat", modes=0, decay_exponent=2.0, amplitude=0.0, flatness=3)
        slices = gauge_slices([0.05], np.zeros((1, 16)), np.zeros(16), quiet, cfg, g, 2.0, 0, 2)
        int_gauge = cfg.dt * sum(ig for ig, _, _ in slices[:-1])  # left-endpoint rule
        int_gauge_prime = cfg.dt * sum(igp for _, igp, _ in slices[:-1])
        assert int_gauge[0, 0] == pytest.approx(measure(g) * 0.02, rel=1e-12)
        assert int_gauge_prime[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert all(outside[0, 0] == 0 for _, _, outside in slices)

    def test_slice_counts_the_samples_it_leaves_out(self):
        # samples with |u| >= 1 leave the integrals and are counted: replicate 0 holds 1.0 and -1.5
        g = gr.Grid(extent=(1.0,), cells=(4,))
        u = np.array([[[0.0, 1.0, -1.5, 0.0], [0.0, 0.5, -0.5, 0.0]]])  # (lanes, replicates, cells)
        ig, igp, outside = ex._gauge_slice(g, 2, u)
        assert outside.tolist() == [[2, 0]]
        assert ig[0, 0] == 2 * 0.25  # G_2(0) = 1 at the two samples inside, on cells of 1/4
        assert igp[0, 0] == 0.0  # G_2'(0) = 0

    def test_higher_order_dominates(self):
        # G_3 >= G_2 pointwise on (-1, 1), so every statistic is ordered
        cfg = self._cfg(2)  # same noise/flatness for both gauges
        u0 = dg.make_u0_batch(cfg.u0, cfg.grid, cfg.seed, cfg.replicates)
        args = ([0.05], u0, np.zeros(cfg.grid.shape), cfg.noise, cfg.stepper, cfg.grid, cfg.potential.c, cfg.seed)
        series2 = np.asarray([ig for ig, _, _ in gauge_slices(*args, 2)])
        series3 = np.asarray([ig for ig, _, _ in gauge_slices(*args, 3)])
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
        # synthetic slices: int G_n per lane as given, int |G_n'| = 0 and no sample outside,
        # so only the sup statistic can fail
        def gauge_slice(grid, n, u):
            zero = np.zeros(u.shape[:2])
            return np.broadcast_to(np.array(lane_gauge)[:, None], u.shape[:2]), zero, zero

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
        # the first spatial runs land on the continuum solution itself, so their error is exactly 0:
        # the factor of each of those runs, told apart by their time steps, solves every heat step to it
        factor, exact_dts = st._tridiag_factor, (8e-4, 2e-4)[:exact_runs]

        def exact_first(g, dt, diag, shape):
            if dt in exact_dts:
                return lambda b: 0.5 * math.exp(-np.pi**2 * 0.1) * np.cos(np.pi * g.cell_centers())
            return factor(g, dt, diag, shape)

        monkeypatch.setattr(st, "_tridiag_factor", exact_first)
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
        out = ex._run_lanes([0.05], np.zeros((1, 32)), np.zeros(32), quiet, cfg, g, 2.0, seed=0)
        assert np.all(out["final"] == 0.0)
        # the engine is the time loop only: every statistic comes from a hook
        assert out.keys() == {"final", "increments_digest"}

    def test_deterministic_in_seed(self):
        a = ex.heat_and_ode_oracles(small_config(seed=1))
        b = ex.heat_and_ode_oracles(small_config(seed=999))
        assert a.to_csv_text() == b.to_csv_text()


def ivp_reference(lam, c, y0, t_end, method, rtol):
    """y(t_end) of y' = 2c*y - beta_lam(y) by scipy's adaptive integrators; Radau takes the exact Jacobian."""
    jac = {"jac": lambda _t, y: np.atleast_2d(2.0 * c - pot.yosida_pair(lam, y)[1])} if method == "Radau" else {}
    sol = solve_ivp(
        lambda _t, y: 2.0 * c * y - pot.yosida_pair(lam, y)[0],
        (0.0, t_end),
        [y0],
        method=method,
        rtol=rtol,
        atol=1e-16,
        **jac,
    )
    assert sol.success, sol.message
    return float(sol.y[0, -1])


class TestOdeReference:
    # (5, 0.025) has its knee, where tanh(b/2) saturates, inside the run; (10, 0.025) runs b from 0.2 to
    # b* = 40, past the reach of one Gauss-Legendre rule; at lam = 0.2 and c >= 3 b grows without bound
    @pytest.mark.parametrize("lam", [0.2, 0.025])
    @pytest.mark.parametrize("c", [1.001, 1.05, 2.0, 3.0, 5.0, 10.0])
    def test_matches_dop853(self, c, lam):
        ref = ivp_reference(lam, c, 0.1, 0.5, "DOP853", 1e-13)
        assert ex._ode_reference(lam, c, 0.1, 0.5)[0] == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("c, lam", [(5.0, 1e-4), (10.0, 1e-6)])
    def test_matches_radau_at_saturated_corners(self, c, lam):
        # y lands within lam*b* of 1, where beta_lam' ~ 1/lam makes the equation stiff
        ref = ivp_reference(lam, c, 0.1, 0.5, "Radau", 1e-12)
        assert ex._ode_reference(lam, c, 0.1, 0.5)[0] == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "c, lam", [(c, lam) for lam in (0.5, 0.2, 0.025) for c in (1.001, 1.05, 2.0, 3.0, 5.0, 10.0)] + [(1.001, 1e-4)]
    )
    def test_time_to_the_answer_is_t(self, c, lam):
        # quad of T(b) = int_b0^b Y'(s)/R(s) ds straight in b, independent of the sigma map: b grows from 0 at
        # lam = 0.5 and at lam = 0.2 with c >= 3 (to b ~ 2000 at c = 10, where cosh(b/2) would overflow,
        # so Y' is written in tanh), rises to b* elsewhere, and falls to b* at (1.001, 1e-4), where b0 > b*
        kappa = 1.0 - 2.0 * c * lam
        y = ex._ode_reference(lam, c, 0.1, 0.5)[0]
        b0, b = (float(pot.yosida_pair(lam, np.array(v))[0]) for v in (0.1, y))

        def y_prime_over_r(s):
            t = math.tanh(0.5 * s)
            return (0.5 * (1.0 - t) * (1.0 + t) + lam) / (2.0 * c * t - kappa * s)

        T = quad(y_prime_over_r, b0, b, epsabs=0.0, epsrel=1e-13)[0]
        assert T == pytest.approx(0.5, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c, lam, converges", [(2.0, 0.05, True), (3.0, 0.2, False)])
    def test_oracles_report_the_reference(self, c, lam, converges):
        rep = ex.heat_and_ode_oracles(small_config(potential=pot.PotentialParams(c=c), lambda_levels=(lam,)))
        y, b_star, iters = ex._ode_reference(lam, c, 0.1, 0.5)
        assert rep.metadata["ode_reference"] == {"value": y, "b_star": b_star, "newton_iters": iters}
        # b* is the positive rest point of b' = R(b)/Y'(b), which exists iff 2c*lam < 1
        assert (b_star is not None) == converges
        if converges:
            assert 2.0 * c * (math.tanh(b_star / 2) + lam * b_star) == pytest.approx(b_star, rel=1e-14)

    def test_past_sigma_end_is_the_rest_point(self):
        # at t_end = 50 the time map runs past sigma = 45, so the answer is Y(b*) with no Newton step
        y, b_star, iters = ex._ode_reference(0.025, 2.0, 0.1, 50.0)
        assert iters == 0
        assert y == math.tanh(b_star / 2) + 0.025 * b_star

    def test_overflow_is_a_float_error(self):
        # y grows like e^(2c t): at c = 1000 it leaves the float range long before t_end
        with pytest.raises(FloatingPointError, match="overflows"):
            ex._ode_reference(0.5, 1000.0, 0.1, 0.5)

    def test_stiff_config_finishes_with_finite_rows(self):
        # c = 10, lam_min = 1e-6: an adaptive explicit reference took minutes here. The path has settled on
        # its rest point by t = 0.5, so the 0-d errors sit at the solver tolerances and the verdict is not asserted.
        cfg = cli.config_from_dict(
            {"version": 1, "potential": {"c": 10.0}, "ensemble": {"lambda_levels": [0.2, 1e-6]}}
        ).ensemble
        rep = ex.heat_and_ode_oracles(cfg)
        assert all(math.isfinite(r.mean) for r in rep.rows)
        assert rep.metadata["ode_reference"]["newton_iters"] == 0
