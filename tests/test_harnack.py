import numpy as np
import pytest

from entropylab import conjugate, fem, flow, harnack as hk
from entropylab.geometry import PlanarCurve
from entropylab.meshing import triangulate

TAU = 0.5
TIMES = np.arange(0.0, 0.2 + 1e-12, 0.02)


@pytest.fixture(scope="module")
def disk_ops():
    return fem.assemble(triangulate(PlanarCurve.circle(1.0, 256), 0.06))


@pytest.fixture(scope="module")
def shrinker_state():
    traj = flow.analytic_shrinking_disk_trajectory(1.0, TIMES, n_vertices=256)
    return conjugate.solve_from_minimizer(traj, h=0.05, steps_per_tau=100)


class TestTimeStencil:
    @pytest.mark.parametrize("i", [0, 1, 3, 5])
    def test_exact_on_quadratics(self, i):
        # nonuniform times; the 3-point Lagrange stencil is exact on t^2
        times = np.array([0.0, 0.1, 0.25, 0.3, 0.55, 0.6])
        g = 1.5 * times**2 - 0.7 * times + 2.0
        ks, w, one_sided = hk._ddt_stencil(times, i, len(times) - 1)
        d = sum(wk * g[k] for k, wk in zip(ks, w))
        assert d == pytest.approx(3.0 * times[i] - 0.7, abs=1e-12)
        assert one_sided == (i in (0, len(times) - 1))


class TestPatchFits:
    def test_cubic_fit_gradient_exact_on_cubics(self, disk_ops):
        v = disk_ops.mesh.vertices
        f = v[:, 0] ** 3 - 2.0 * v[:, 0] * v[:, 1] ** 2 + v[:, 1]
        c, R = hk._poly_fit(disk_ops.mesh, f, v, 3)
        g = c[:, 1:3] / R[:, None]
        gx = 3.0 * v[:, 0] ** 2 - 2.0 * v[:, 1] ** 2
        gy = -4.0 * v[:, 0] * v[:, 1] + 1.0
        assert np.abs(g[:, 0] - gx).max() < 1e-8
        assert np.abs(g[:, 1] - gy).max() < 1e-8

    def test_hessian_exact_on_quadratics(self, disk_ops):
        v = disk_ops.mesh.vertices
        f = v[:, 0] ** 2 + 3.0 * v[:, 0] * v[:, 1] + 2.0 * v[:, 1] ** 2
        H = hk._hessian_from_fits(disk_ops.mesh, f)
        assert np.abs(H[:, 0, 0] - 2.0).max() < 1e-7
        assert np.abs(H[:, 0, 1] - 3.0).max() < 1e-7
        assert np.abs(H[:, 1, 1] - 4.0).max() < 1e-7

    def test_boundary_normal_gradient_exact_on_linears(self, disk_ops):
        v = disk_ops.mesh.vertices
        a = np.array([0.8, -1.1])
        W = v @ a
        g = hk._boundary_normal_gradient(disk_ops.mesh, W)
        nb = disk_ops.mesh.n_boundary
        nu = disk_ops.mesh.boundary_curve().outward_normal()
        assert np.abs(g - nu @ a).max() < 1e-8

    def test_tiny_mesh_rejected(self):
        mesh = triangulate(PlanarCurve.circle(1.0, 24), 0.3)
        f = np.sum(mesh.vertices**2, axis=1)
        # layer exclusion leaves too few interior fit points on this mesh
        with pytest.raises(hk.HarnackError):
            hk._hessian_from_fits(mesh, f)


class TestVolumeTerm:
    def test_zero_on_shrinker_profile(self, disk_ops):
        # Hess(|x|^2/4tau) = I/2tau exactly, so the deviation density vanishes
        v = disk_ops.mesh.vertices
        f = np.sum(v**2, axis=1) / (4.0 * TAU)
        u = np.exp(-f) / (4.0 * np.pi * TAU)
        assert hk.volume_term(disk_ops, f, u, TAU) < 1e-12

    def test_positive_off_shrinker(self, disk_ops):
        v = disk_ops.mesh.vertices
        f = np.sum(v**2, axis=1) / (4.0 * TAU) + 0.3 * v[:, 0] ** 2
        u = np.exp(-f)
        assert hk.volume_term(disk_ops, f, u, TAU) > 1e-3


class TestRateIdentity:
    def test_report_shape_and_meta(self, shrinker_state):
        rep = hk.rate_identity_check(shrinker_state, skip=5)
        assert len(rep.records) == 6
        for name in hk.HarnackReport.COLUMNS:
            assert len(rep.column(name)) == 6
        assert rep.meta["skip"] == 5
        assert rep.skipped_window == (6, 10)

    def test_shrinker_identity_terms_small(self, shrinker_state):
        # on the exact shrinker every term vanishes in the continuum; at this
        # coarse resolution (h=0.05, 256-gon) they are small but nonzero
        rep = hk.rate_identity_check(shrinker_state, skip=5)
        mu = np.log(1.0 - np.exp(-0.5))
        assert np.abs(rep.column("W_beta") - mu).max() < 1e-3
        assert np.abs(rep.column("dW_dt_fd")).max() < 1e-4
        vol = rep.column("volume_term")
        assert np.all(vol >= 0.0) and vol.max() < 1e-3
        assert np.abs(rep.column("boundary_term_direct")).max() < 0.02
        assert rep.column("identity_gap_a").max() < 0.02

    def test_too_few_snapshots_outside_window(self, shrinker_state):
        with pytest.raises(hk.HarnackError):
            hk.rate_identity_check(shrinker_state, skip=9)

    def test_harnack_term_needs_three_snapshots(self):
        traj = flow.analytic_shrinking_disk_trajectory(
            1.0, [0.0, 0.02], n_vertices=256
        )
        state = conjugate.solve_from_minimizer(traj, h=0.05, steps_per_tau=50)
        with pytest.raises(hk.HarnackError):
            hk.boundary_term_harnack(state, 0)


class TestStaticGridIdentities:
    def test_single_gaussian_identity(self):
        # W vanishes identically for one Gaussian, so the residual is pure
        # roundoff; the coarse grid/dt keep the amplification factors small
        out = hk.appendix_c_residual(centers=((0.0, 0.0),), n=21, dt=0.05)
        assert out["perelman_identity"] < 1e-10

    def test_two_gaussian_convergence_order(self):
        r_coarse = hk.appendix_c_residual(n=41)["perelman_identity"]
        r_fine = hk.appendix_c_residual(n=81)["perelman_identity"]
        order = np.log2(r_coarse / r_fine)
        assert order > 1.8

    def test_w_equation_residual_converges(self):
        r_coarse = hk.appendix_c_residual(n=41)["w_equation"]
        r_fine = hk.appendix_c_residual(n=81)["w_equation"]
        assert r_fine < 0.5 * r_coarse

    def test_bochner_closed_form(self):
        assert hk.bochner_residual_cubic() < 1e-8
