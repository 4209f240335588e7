import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entropylab import fem, functional as fn, minimizer as mz
from entropylab.geometry import PlanarCurve
from entropylab.meshing import triangulate
from test_kernels import _random_mesh, meshes

TAU = 0.5
MU_DISK = np.log(1.0 - np.exp(-0.5))


@pytest.fixture(scope="module")
def disk_ops():
    return fem.assemble(triangulate(PlanarCurve.circle(1.0, 512), 0.02))


@pytest.fixture(scope="module")
def disk_result(disk_ops):
    # beta = x . nu / 2 tau = 1 on the unit circle at tau = 1/2: the
    # self-similar Gaussian is the exact minimizer
    return mz.minimize(disk_ops, TAU, 1.0)


class TestDiskOracle:
    def test_mu_value(self, disk_result):
        assert disk_result.converged
        assert disk_result.mu == pytest.approx(MU_DISK, abs=1e-4)
        assert disk_result.mu < 0.0

    def test_minimizing_profile(self, disk_ops, disk_result):
        # normalized profile: f = r^2/4tau + log(1 - e^{-1/2})
        r2 = np.sum(disk_ops.mesh.vertices**2, axis=1)
        f_exact = r2 / (4.0 * TAU) + MU_DISK
        u = disk_result.phi**2
        err = np.sqrt(disk_ops.M_lumped @ (u * (disk_result.f_min - f_exact) ** 2))
        assert err < 5e-3

    def test_w_field_constancy(self, disk_result):
        # the pointwise W-field is constant at a critical point
        assert disk_result.W_constancy < 1e-6 * (1.0 + abs(disk_result.mu))

    def test_multiplier_matches_mu(self, disk_result):
        # the Lagrange multiplier of the mass constraint equals mu
        assert disk_result.mu_multiplier == pytest.approx(disk_result.mu, abs=1e-8)

    def test_energy_agrees_with_w_beta(self, disk_ops, disk_result):
        # the energy the line search descends is W_beta of f = -log(phi^2 4 pi tau),
        # summed in the f form
        phi = disk_result.phi
        e = fn.energy(disk_ops, phi, TAU, fn._beta_full(disk_ops, 1.0))
        f = -2.0 * np.log(phi) - np.log(4.0 * np.pi * TAU)
        assert e == pytest.approx(oracles.w_beta_f_form(disk_ops, f, TAU, 1.0), abs=1e-12)
        assert disk_result.mu == pytest.approx(e, abs=1e-13)

    def test_w_constancy_is_half_the_el_residual(self, disk_ops, disk_result):
        # w_beta's weak-Laplacian W field is the minimizer's gradient g over
        # 2 M phi, shifted by 1 + log 4 pi tau, so its u-weighted spread is
        # |g - 2 lam M phi|_{M^-1} / 2
        phi = disk_result.phi
        g = mz._gradient(disk_ops, phi, TAU, fn._beta_full(disk_ops, 1.0),
                         disk_ops.boundary_weights)
        W = fn.w_beta(disk_ops, disk_result.f_min, TAU, 1.0).W_field
        from_g = g / (2.0 * disk_ops.M_lumped * phi) - 1.0 - np.log(4.0 * np.pi * TAU)
        assert np.abs(W - from_g).max() < 1e-10  # rounding, divided by M
        assert disk_result.W_constancy == pytest.approx(
            disk_result.el_residual / 2.0, rel=1e-4, abs=1e-13
        )


class TestRobustness:
    def test_unique_minimum_from_random_start(self, disk_ops, disk_result):
        rng = np.random.default_rng(3)
        phi0 = 1.0 + 0.3 * rng.random(disk_ops.mesh.n_vertices)
        res = mz.minimize(disk_ops, TAU, 1.0, phi0=phi0)
        assert res.converged
        assert res.mu == pytest.approx(disk_result.mu, abs=1e-10)

    def test_iteration_cap_reported(self, disk_ops):
        res = mz.minimize(disk_ops, TAU, 1.0, max_iter=2)
        assert not res.converged
        assert any("not converged" in w for w in res.warnings)

    @pytest.mark.parametrize("beta", ["zero", "radial", "mean_curvature"])
    def test_unresolved_tau_rejected(self, beta):
        # with tau far below the mesh scale the start Gaussian is below its
        # offset at every vertex: the start is the constant, an exact critical
        # point that would pass as converged for beta = 0, and a start from
        # which the descent ran out its 20,000 iterations for the other two
        mesh = triangulate(PlanarCurve.circle(1.0, 256), 0.05)
        ops = fem.assemble(mesh)
        b = {"zero": 0.0, "mean_curvature": 1.0,
             "radial": np.einsum("ij,ij->i", mesh.vertices[: mesh.n_boundary],
                                 ops.boundary.outward_normal()) / 2e-6}[beta]
        with pytest.raises(mz.ConvergenceError, match="tau=1e-06"):
            mz.minimize(ops, 1e-6, b)

    def test_invalid_tau(self, disk_ops):
        with pytest.raises(fn.FunctionalError):
            mz.minimize(disk_ops, 0.0, 1.0)

    def test_invalid_max_iter(self, disk_ops):
        # with no iteration there is no residual for the warning to report
        with pytest.raises(fn.FunctionalError, match="max_iter"):
            mz.minimize(disk_ops, TAU, 1.0, max_iter=0)

    def test_vector_beta_matches_scalar(self, disk_ops):
        nb = disk_ops.mesh.n_boundary
        r1 = mz.minimize(disk_ops, TAU, 1.0)
        r2 = mz.minimize(disk_ops, TAU, np.ones(nb))
        assert r1.mu == pytest.approx(r2.mu, abs=1e-12)


class TestConjugateDirections:
    def test_flat_mode_of_a_large_disk(self):
        # a Gaussian of width 2 in a disk of radius 6 with beta = 0 sits on a
        # nearly flat mode, which preconditioned steepest descent needs 135
        # iterations to cross; the Polak-Ribiere+ directions need about 46
        ops = fem.assemble(triangulate(PlanarCurve.circle(6.0, 512), 0.25))
        assert ops.mesh.n_vertices == 2120
        res = mz.minimize(ops, TAU, 0.0, tol=1e-7)
        assert res.converged
        assert res.iterations <= 80
        assert res.mu == pytest.approx(-3.930415002e-3, abs=1e-10)
        assert 0 <= res.restarts < res.iterations
        assert res.backtracks >= 0


def _check_preconditioner_factor(ops, tau, beta, rng):
    # SuperLU's symmetric mode assumes a symmetric matrix and diagonal pivots
    assert (ops.K != ops.K.T).nnz == 0
    P, solve = mz._preconditioner(ops, tau, fn._beta_full(ops, beta))
    assert (P != P.T).nnz == 0
    b = rng.standard_normal(ops.mesh.n_vertices)
    x = solve(b)
    assert np.linalg.norm(P @ x - b) <= 1e-12 * np.linalg.norm(b)


class TestPreconditionerFactor:
    @given(**meshes, tau=st.floats(0.01, 2.0), beta=st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_random_meshes(self, seed, tau, beta):
        mesh, rng = _random_mesh(seed)
        _check_preconditioner_factor(fem.assemble(mesh), tau, beta, rng)

    def test_disk_mesh(self, disk_ops):
        _check_preconditioner_factor(disk_ops, TAU, 1.0, np.random.default_rng(5))


class TestEulerLagrange:
    def test_weak_residual_small(self, disk_ops, disk_result):
        rep = mz.verify_euler_lagrange(disk_result, disk_ops, TAU, 1.0)
        assert rep["weak_residual"] < 1e-8

    def test_flux_first_order_in_h(self, disk_ops, disk_result):
        rep_f = mz.verify_euler_lagrange(disk_result, disk_ops, TAU, 1.0)
        ops_c = fem.assemble(triangulate(PlanarCurve.circle(1.0, 256), 0.04))
        res_c = mz.minimize(ops_c, TAU, 1.0)
        rep_c = mz.verify_euler_lagrange(res_c, ops_c, TAU, 1.0)
        assert rep_f["flux_error"] < 2.0 * rep_f["h"]
        assert rep_f["flux_error"] < 0.75 * rep_c["flux_error"]


class TestBounds:
    def test_mu_between_sandwich_bounds(self, disk_ops, disk_result):
        consts = fn.log_sobolev_constants(disk_ops)
        sup_beta = 1.0
        lb, _ = fn.lower_bound_rhs(TAU, sup_beta, consts)
        curve = PlanarCurve.circle(1.0, 512)
        ub = fn.volume_ratio_upper_bound(curve, "zero", (0.0, 0.0), 0.5)["value"]
        assert lb <= disk_result.mu <= ub
