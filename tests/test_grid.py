import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import default_offset, drift_apply, energy, grad_norm_sq_diff, laplacian_face_flux, measure
from logac import grid as gr
from logac import potential as pot


def rng_field(g, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=g.shape)


class TestGridBasics:
    def test_spacing_and_measure(self):
        g = gr.Grid(extent=(2.0, 1.0), cells=(8, 4))
        assert g.spacing == (0.25, 0.25)
        assert g.cell_volume == pytest.approx(0.0625)
        assert measure(g) == 2.0

    def test_cell_centers(self):
        g = gr.Grid(extent=(1.0,), cells=(4,))
        assert np.allclose(g.cell_centers(), [0.125, 0.375, 0.625, 0.875])

    def test_validation(self):
        with pytest.raises(ValueError):
            gr.Grid(extent=(1.0,), cells=(1,))
        with pytest.raises(ValueError):
            gr.Grid(extent=(-1.0,), cells=(4,))
        with pytest.raises(ValueError):
            gr.Grid(extent=(1.0, 1.0, 1.0), cells=(4, 4, 4))


class TestLaplacian:
    def test_constant_is_flat(self):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        assert np.all(gr.laplacian_neumann(g, np.full(g.shape, 3.7)) == 0.0)

    def test_zero_mean_random(self):
        for g in (gr.Grid(extent=(1.3,), cells=(33,)), gr.Grid(extent=(1.0, 0.7), cells=(12, 9))):
            u = rng_field(g, seed=5)
            total = np.sum(gr.laplacian_neumann(g, u)) * g.cell_volume
            assert abs(total) < 1e-12

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: np.cos(np.pi * x),
            lambda x: np.cos(2 * np.pi * x) + 0.3 * np.cos(np.pi * x),
        ],
    )
    def test_second_order_consistency_1d(self, make):
        errs = []
        for n in (32, 64, 128):
            g = gr.Grid(extent=(1.0,), cells=(n,))
            x = g.cell_centers()
            u = make(x)
            # reference: analytic second derivative of the cosine sum
            eps = 1e-5
            exact = (make(x + eps) - 2 * u + make(x - eps)) / eps**2
            errs.append(np.max(np.abs(gr.laplacian_neumann(g, u) - exact)))
        assert errs[0] / errs[1] > 3.3
        assert errs[1] / errs[2] > 3.3

    def test_second_order_consistency_2d(self):
        errs = []
        for n in (16, 32, 64):
            g = gr.Grid(extent=(1.0, 1.0), cells=(n, n))
            x = g.cell_centers(0)[:, None]
            y = g.cell_centers(1)[None, :]
            u = np.cos(np.pi * x) * np.cos(2 * np.pi * y)
            exact = -(np.pi**2 + 4 * np.pi**2) * u
            errs.append(np.max(np.abs(gr.laplacian_neumann(g, u) - exact)))
        assert errs[0] / errs[1] > 3.3
        assert errs[1] / errs[2] > 3.3

    def test_symmetry_and_dirichlet_identity(self):
        for g in (gr.Grid(extent=(1.0,), cells=(24,)), gr.Grid(extent=(0.8, 1.1), cells=(7, 11))):
            u = rng_field(g, seed=1)
            v = rng_field(g, seed=2)
            lap_u = gr.laplacian_neumann(g, u)
            lap_v = gr.laplacian_neumann(g, v)
            assert gr.h_inner(g, lap_u, v) == pytest.approx(gr.h_inner(g, u, lap_v), abs=1e-11)
            assert gr.h_inner(g, lap_u, u) == pytest.approx(-gr.grad_norm_sq(g, u), abs=1e-11)

    def test_size_mismatch(self):
        g = gr.Grid(extent=(1.0,), cells=(8,))
        with pytest.raises(ValueError):
            gr.laplacian_neumann(g, np.zeros(9))

    def test_batch_matches_loop(self):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        batch = np.random.default_rng(3).uniform(-1, 1, size=(5, 16))
        out = gr.laplacian_neumann(g, batch)
        for i in range(5):
            assert np.array_equal(out[i], gr.laplacian_neumann(g, batch[i]))

    @pytest.mark.parametrize(
        "extent, shape",
        [
            ((1.0,), (2,)),
            ((1.0,), (5, 2)),
            ((0.7,), (3, 3)),
            ((2.5,), (2, 4, 128)),
            ((1.0, 1.0), (3, 5, 7)),
            ((0.6, 1.9), (2, 3, 16, 9)),
        ],
    )
    def test_bit_identical_to_the_face_flux_reference(self, extent, shape):
        g = gr.Grid(extent=extent, cells=shape[len(shape) - len(extent) :])
        rng = np.random.default_rng(sum(shape))
        u = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        # signed zeros, constant runs and a non-contiguous view as well
        u.flat[::3] = 0.0
        u.flat[1::7] = -0.0
        u.flat[2::5] = u.flat[0]
        for field in (u, np.swapaxes(np.swapaxes(u, 0, -1).copy(), 0, -1)):
            out = gr.laplacian_neumann(g, field)
            ref = laplacian_face_flux(g, field)
            assert np.array_equal(out, ref)
            assert np.array_equal(np.signbit(out), np.signbit(ref))
            assert not np.any(np.signbit(out[out == 0.0]))
            # the gradient norm takes the Laplacian's face differences and matches np.diff's bit for bit
            gsq, gref = gr.grad_norm_sq(g, field), grad_norm_sq_diff(g, field)
            assert np.array_equal(gsq, gref)
            assert np.array_equal(np.signbit(gsq), np.signbit(gref))


class TestNorms:
    def test_unit_constant(self):
        g = gr.Grid(extent=(1.0,), cells=(8,))
        h, grad, sup = gr.norms(g, np.ones(8))
        assert (float(h), float(grad), float(sup)) == (1.0, 0.0, 1.0)

    def test_linear_ramp_dirichlet_energy(self):
        # grad norm of u = x approaches 1 from below as the mesh refines
        vals = []
        for n in (16, 64, 256):
            g = gr.Grid(extent=(1.0,), cells=(n,))
            vals.append(float(gr.grad_norm_sq(g, g.cell_centers())))
            assert vals[-1] == pytest.approx((n - 1) / n, rel=1e-12)
        assert vals[-1] > 0.99

    @given(st.floats(min_value=-4, max_value=4))
    @settings(max_examples=25)
    def test_homogeneity(self, a):
        g = gr.Grid(extent=(1.0,), cells=(12,))
        u = rng_field(g, seed=8)
        h0, g0, _ = gr.norms(g, u)
        h1, g1, _ = gr.norms(g, a * u)
        assert h1 == pytest.approx(a * a * h0, rel=1e-12, abs=1e-15)
        assert g1 == pytest.approx(a * a * g0, rel=1e-12, abs=1e-15)


class TestEnergy:
    def test_zero_state_gives_offset_times_measure(self):
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(2.0,), cells=(10,))
        assert energy(g, params, None, np.zeros(10)) == pytest.approx(default_offset(2.0) * 2.0, rel=1e-13)

    def test_regularized_below_sharp(self):
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(32,))
        rng = np.random.default_rng(0)
        for lam in (0.3, 0.05):
            for _ in range(10):
                u = rng.uniform(-0.98, 0.98, size=32)
                assert energy(g, params, lam, u) <= energy(g, params, None, u) + 1e-12

    def test_sharp_energy_needs_interior_state(self):
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(8,))
        with pytest.raises(ValueError):
            energy(g, params, None, np.ones(8))


class TestDrift:
    def test_zero_at_origin(self):
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(16,))
        out = drift_apply(g, params, 0.1, np.zeros(16), None)
        assert np.all(out == 0.0)

    def test_hemicontinuity_in_direction(self):
        # eta -> <A_lam(u + eta w), v> is continuous; differences shrink with eta
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(32,))
        lam = 0.1
        rng = np.random.default_rng(12)
        u = rng.uniform(-1, 1, size=32)
        w = rng.uniform(-1, 1, size=32)
        v = rng.uniform(-1, 1, size=32)
        base = gr.h_inner(g, drift_apply(g, params, lam, u, None), v)
        gaps = []
        for eta in (1e-2, 1e-3, 1e-4):
            pairing = gr.h_inner(g, drift_apply(g, params, lam, u + eta * w, None), v)
            gaps.append(abs(pairing - base))
        # Lipschitz continuity in eta: gap bounded by (1/lam + 2c + lap scale) * eta
        assert gaps[0] < 1e-2 * (1.0 / lam + 2 * params.c + 4.0 / g.spacing[0] ** 2)
        assert gaps[1] < 0.25 * gaps[0]
        assert gaps[2] < 0.25 * gaps[1]

    def test_weak_monotonicity_and_coercivity(self):
        params = pot.PotentialParams(c=2.0)
        g = gr.Grid(extent=(1.0,), cells=(64,))
        rng = np.random.default_rng(21)
        for lam in (0.4, 0.05):
            C = 1.0 / lam + 2.0 * params.c
            for _ in range(30):
                u = rng.uniform(-2, 2, size=64)
                v = rng.uniform(-2, 2, size=64)
                gf = rng.uniform(-1, 1, size=64)
                Au = drift_apply(g, params, lam, u, gf)
                Av = drift_apply(g, params, lam, v, gf)
                lhs = gr.h_inner(g, Au - Av, u - v)
                assert lhs >= -C * gr.h_norm_sq(g, u - v) - 1e-9
                hsq, gsq, _ = gr.norms(g, u)
                pairing = gr.h_inner(g, Au, u)
                assert pairing >= (hsq + gsq) - (C + 1.5) * hsq - 0.5 * gr.h_norm_sq(g, gf) - 1e-9


class TestHelmholtz:
    def test_inverts_operator(self):
        for g in (gr.Grid(extent=(1.0,), cells=(40,)), gr.Grid(extent=(1.0, 2.0), cells=(12, 20))):
            f = rng_field(g, seed=4)
            for alpha in (1.0, 0.003):
                w = gr.helmholtz_solve(g, f, alpha)
                resid = w - alpha * gr.laplacian_neumann(g, w) - f
                assert np.max(np.abs(resid)) < 1e-12

    def test_vstar_of_constant(self):
        g = gr.Grid(extent=(2.0,), cells=(16,))
        delta = 0.37
        # constants are eigenfields of (I - lap) with eigenvalue 1
        assert gr.vstar_norm_sq(g, np.full(g.shape, delta)) == pytest.approx(delta**2 * measure(g), rel=1e-12)

    def test_vstar_matches_dense_solve(self):
        g = gr.Grid(extent=(1.0,), cells=(12,))
        n = 12
        A = np.zeros((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            A[:, i] = e - gr.laplacian_neumann(g, e)
        f = rng_field(g, seed=9)
        expected = float(f @ np.linalg.solve(A, f)) * g.cell_volume
        assert gr.vstar_norm_sq(g, f) == pytest.approx(expected, rel=1e-11)

    def test_dual_norm_below_h_norm(self):
        g = gr.Grid(extent=(1.0,), cells=(32,))
        f = rng_field(g, seed=10)
        assert gr.vstar_norm_sq(g, f) <= gr.h_norm_sq(g, f) + 1e-12


class TestSnapshots:
    def test_round_trip_1d(self, tmp_path):
        g = gr.Grid(extent=(1.5,), cells=(20,))
        u = rng_field(g, seed=6)
        path = tmp_path / "field.acf"
        gr.save_field(path, g, u)
        g2, u2 = gr.load_field(path)
        assert g2.cells == g.cells
        assert np.allclose(g2.extent, g.extent)
        assert np.array_equal(u, u2)

    def test_round_trip_2d(self, tmp_path):
        g = gr.Grid(extent=(1.0, 2.0), cells=(6, 10))
        u = rng_field(g, seed=7)
        path = tmp_path / "field2.acf"
        gr.save_field(path, g, u)
        g2, u2 = gr.load_field(path)
        assert g2.cells == g.cells
        assert np.array_equal(u, u2)

    def test_header_layout(self, tmp_path):
        g = gr.Grid(extent=(1.0,), cells=(4,))
        path = tmp_path / "h.acf"
        gr.save_field(path, g, np.zeros(4))
        blob = path.read_bytes()
        assert len(blob) == 32 + 4 * 8
        assert blob[:4] == b"ACF1"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 4

    @pytest.mark.parametrize("h1", [np.nan, np.inf])
    def test_non_finite_spacing_rejected(self, tmp_path, h1):
        path = tmp_path / "h.acf"
        path.write_bytes(struct.pack("<4sIIIdd", b"ACF1", 1, 8, 0, h1, 0.0) + np.zeros(8).tobytes())
        with pytest.raises(ValueError, match="extent must be positive and finite"):
            gr.load_field(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.acf"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(ValueError, match="magic"):
            gr.load_field(path)
