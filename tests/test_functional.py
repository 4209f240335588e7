import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entropylab import fem, functional as fn
from entropylab.geometry import PlanarCurve
from entropylab.meshing import triangulate

TAU = 0.5


@pytest.fixture(scope="module")
def disk_ops():
    # disk of radius sqrt(2 tau) = 1: the self-similar profile is exact here
    return fem.assemble(triangulate(PlanarCurve.circle(1.0, 512), 0.02))


@pytest.fixture(scope="module")
def shrinker_f(disk_ops):
    v = disk_ops.mesh.vertices
    return np.sum(v**2, axis=1) / (4.0 * TAU)


class TestTransforms:
    def test_round_trip(self, disk_ops, shrinker_f):
        u = fn.u_from_f(shrinker_f, TAU)
        back = fn.f_from_u(u, TAU)
        assert np.abs(back - shrinker_f).max() < 1e-12

    def test_u_constant_profile(self):
        # f == 0 at tau = 1/(4 pi) gives u == 1
        f = np.zeros(5)
        u = fn.u_from_f(f, 1.0 / (4.0 * np.pi))
        assert np.allclose(u, 1.0, rtol=1e-14)

    def test_tau_must_be_positive(self):
        with pytest.raises(fn.FunctionalError):
            fn.u_from_f(np.zeros(3), 0.0)
        with pytest.raises(fn.FunctionalError):
            fn.f_from_u(np.ones(3), -1.0)


class TestNormalize:
    def test_disk_shift_oracle(self, disk_ops, shrinker_f):
        # int_{B_1} e^{-r^2/4tau}/(4 pi tau) = 1 - e^{-1/2} by radial quadrature
        _, shift = fn.normalize(disk_ops, shrinker_f, TAU)
        assert shift == pytest.approx(np.log(1.0 - np.exp(-0.5)), abs=5e-4)

    def test_half_plane_shift_oracle(self):
        # truncated half plane x2 < 0: exactly half the Gaussian mass
        box = PlanarCurve.rectangle(-7.0, -7.0, 7.0, 0.0, 64)
        ops = fem.assemble(triangulate(box, 0.09))
        f = np.sum(ops.mesh.vertices**2, axis=1) / (4.0 * TAU)
        _, shift = fn.normalize(ops, f, TAU)
        assert shift == pytest.approx(np.log(0.5), abs=1e-4)

    def test_already_normalized(self, disk_ops, shrinker_f):
        f1, _ = fn.normalize(disk_ops, shrinker_f, TAU)
        _, shift2 = fn.normalize(disk_ops, f1, TAU)
        assert abs(shift2) < 1e-13

    @given(a=st.floats(-30, 30))
    @settings(max_examples=25, deadline=None)
    def test_shift_covariance(self, disk_ops, shrinker_f, a):
        f1, s1 = fn.normalize(disk_ops, shrinker_f, TAU)
        f2, s2 = fn.normalize(disk_ops, shrinker_f + a, TAU)
        assert np.abs(f1 - f2).max() < 1e-10


class TestWBeta:
    def test_disk_oracle(self, disk_ops, shrinker_f):
        # beta = x . nu / 2 tau = 1 on this boundary; the definitional value
        # is log(1 - e^{-1/2}) (see the notes on the sign convention)
        rep = fn.w_beta(disk_ops, shrinker_f, TAU, 1.0)
        assert rep.w_beta == pytest.approx(np.log(1.0 - np.exp(-0.5)), abs=5e-3)
        assert rep.normalization == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_on_large_disk_near_zero(self):
        # W of the centered Gaussian on the plane is 0; a disk of radius
        # 7 sqrt(tau) leaves a truncation tail of a few 1e-4
        ops = fem.assemble(triangulate(PlanarCurve.circle(7.0 * np.sqrt(TAU), 512), 0.08))
        f = np.sum(ops.mesh.vertices**2, axis=1) / (4.0 * TAU)
        rep = fn.w_beta(ops, f, TAU, 0.0)
        assert abs(rep.w_beta) < 2e-3

    def test_ibp_gap_small(self, disk_ops, shrinker_f):
        rep = fn.w_beta(disk_ops, shrinker_f, TAU, 1.0)
        assert rep.ibp_gap < 1e-8

    def test_w_beta_invariant_under_shift(self, disk_ops, shrinker_f):
        r1 = fn.w_beta(disk_ops, shrinker_f, TAU, 1.0)
        r2 = fn.w_beta(disk_ops, shrinker_f + 4.2, TAU, 1.0)
        assert r1.w_beta == pytest.approx(r2.w_beta, abs=1e-10)

    def test_divergence_theorem_cancellation(self, disk_ops, shrinker_f):
        # int (|x|^2/2tau - 2) u dx + int x.nu u dS = 0 for the normalized
        # self-similar profile (exact continuum identity, O(h^2) discretely)
        f, _ = fn.normalize(disk_ops, shrinker_f, TAU)
        u = fn.u_from_f(f, TAU)
        v = disk_ops.mesh.vertices
        nb = disk_ops.mesh.n_boundary
        vol = disk_ops.M_lumped @ (u * (np.sum(v**2, axis=1) / (2 * TAU) - 2.0))
        nu = disk_ops.mesh.boundary_curve().outward_normal()
        xdotnu = np.einsum("ij,ij->i", v[:nb], nu)
        bdry = disk_ops.boundary_weights[:nb] @ (u[:nb] * xdotnu)
        assert abs(vol + bdry) < 5e-4

    def test_scaling_law(self, disk_ops, shrinker_f):
        lam, x0 = 2.0, np.array([0.3, -0.4])
        rep1 = fn.w_beta(disk_ops, shrinker_f, TAU, 1.0)
        # scaled domain lam^{-1}(Omega - x0), f(lam y + x0), tau / lam^2
        curve = PlanarCurve.circle(1.0 / lam, 512, center=(-x0[0] / lam, -x0[1] / lam))
        ops2 = fem.assemble(triangulate(curve, 0.02 / lam))
        y = ops2.mesh.vertices
        x = lam * y + x0
        f2 = np.sum(x**2, axis=1) / (4.0 * TAU)
        # beta(x) = x.nu/2tau transported: lam * beta(lam y + x0)
        nb = ops2.mesh.n_boundary
        nu = ops2.mesh.boundary_curve().outward_normal()
        beta2 = lam * np.einsum("ij,ij->i", x[:nb], nu) / (2.0 * TAU)
        rep2 = fn.w_beta(ops2, f2, TAU / lam**2, beta2)
        assert rep1.w_beta == pytest.approx(rep2.w_beta, abs=1e-4)


class TestBounds:
    def test_lower_bound_monotone_in_beta(self):
        consts = {"c_S": 2.0, "c_trace": 1.5}
        v1 = fn.lower_bound_rhs(1.0, 0.0, consts)[0]
        v2 = fn.lower_bound_rhs(1.0, 2.0, consts)[0]
        assert v2 < v1

    def test_lower_bound_monotone_in_cs(self):
        v1 = fn.lower_bound_rhs(1.0, 0.0, {"c_S": 2.0, "c_trace": 1.0})[0]
        v2 = fn.lower_bound_rhs(1.0, 0.0, {"c_S": 4.0, "c_trace": 1.0})[0]
        assert v2 < v1

    def test_cutoff_profile_shape(self):
        r = 2.0
        rho = np.linspace(0, 2.5, 200)
        z = oracles.cutoff_profile(rho, r)
        assert np.all(z[rho <= r / 2] == 1.0)
        assert np.all(z[rho >= r] < 1e-30)
        assert np.all((z >= 0) & (z <= 1))
        # the upper bound's C_cut is sup 4 r^2 |zeta'|^2 / zeta, reached at rho = r
        rho, step = np.linspace(r / 2 + 1e-3, r - 1e-3, 1001), 1e-6
        dz = oracles.cutoff_profile(rho + step, r) - oracles.cutoff_profile(rho - step, r)
        ratio = 4.0 * r**2 * (dz / (2.0 * step)) ** 2 / oracles.cutoff_profile(rho, r)
        assert ratio.max() <= fn.CUTOFF_CONSTANT * (1.0 + 1e-6)
        assert ratio[-1] >= fn.CUTOFF_CONSTANT * (1.0 - 1e-5)

    def test_volume_ratio_upper_bound_disk(self):
        c = PlanarCurve.circle(1.0, 2048)
        out = fn.volume_ratio_upper_bound(c, "zero", (0.0, 0.0), 1.0)
        # areas analytic: V_r = pi, V_half = pi/4
        assert out["V_r"] == pytest.approx(np.pi, rel=1e-5)
        assert out["V_half"] == pytest.approx(np.pi / 4, rel=1e-5)
        expect = -2.0 + np.log(np.pi / (4 * np.pi) ** 1) + fn.CUTOFF_CONSTANT * 4.0
        assert out["value"] == pytest.approx(expect, rel=1e-4)

    def test_volume_ratio_log_term_scale_invariant(self):
        c1 = PlanarCurve.circle(1.0, 2048)
        c2 = PlanarCurve.circle(3.0, 2048)
        o1 = fn.volume_ratio_upper_bound(c1, "zero", (0.0, 0.0), 1.0)
        o2 = fn.volume_ratio_upper_bound(c2, "zero", (0.0, 0.0), 3.0)
        assert o1["log_term"] == pytest.approx(o2["log_term"], abs=1e-10)

    def test_empty_half_ball_rejected(self):
        c = PlanarCurve.circle(1.0, 256)
        with pytest.raises(fn.FunctionalError):
            fn.volume_ratio_upper_bound(c, "zero", (10.0, 0.0), 1.0)


class TestLogSobolev:
    def test_constant_field_on_unit_disk(self, disk_ops):
        phi = np.ones(disk_ops.mesh.n_vertices)
        phi /= np.sqrt(disk_ops.M_lumped @ phi**2)
        consts = fn.log_sobolev_constants(disk_ops)
        chk = fn.log_sobolev_check(disk_ops, phi, 1.0, consts["c_S"])
        # lhs = -int u log u = log(area) for the flat profile
        assert chk["lhs"] == pytest.approx(np.log(disk_ops.mesh.area()), abs=1e-6)
        assert chk["holds"]

    def test_unnormalized_rejected(self, disk_ops):
        with pytest.raises(fn.FunctionalError):
            fn.log_sobolev_check(disk_ops, np.ones(disk_ops.mesh.n_vertices), 1.0, 2.0)

    def test_random_fields_hold(self, disk_ops):
        consts = fn.log_sobolev_constants(disk_ops)
        rng = np.random.default_rng(7)
        for _ in range(10):
            psi = np.abs(rng.standard_normal(disk_ops.mesh.n_vertices)) + 1e-6
            phi = psi / np.sqrt(disk_ops.M_lumped @ psi**2)
            for eps in (0.1, 1.0, 10.0):
                assert fn.log_sobolev_check(disk_ops, phi, eps, consts["c_S"])["holds"]

    def test_margin_recorded(self, disk_ops):
        consts = fn.log_sobolev_constants(disk_ops)
        assert consts["margin"] == fn.LOG_SOBOLEV_MARGIN == 2.0
        assert consts["c_S"] == pytest.approx(2.0 * consts["c_S_raw"])
