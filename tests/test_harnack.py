import gc
import json
import pickle
import time
import weakref
from functools import partial

import numpy as np
import pytest
from scipy.spatial import cKDTree

from entropylab import conjugate, fem, flow, functional, harnack as hk
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

    @pytest.mark.parametrize("nodes", [[0.1, 0.25, 0.55], [0.3, 0.0], [0.6, 0.25, 0.3]])
    def test_lagrange_weights_exact_on_polynomials(self, nodes):
        # degree len(nodes) - 1: quadratic through three nodes, linear through two
        nodes = np.array(nodes)
        coef = [1.5, -0.7, 2.0][3 - len(nodes):]
        for t in (0.0, 0.2, nodes[1], 0.7):
            w, dw = conjugate.lagrange_weights(nodes, t)
            assert w @ np.polyval(coef, nodes) == pytest.approx(np.polyval(coef, t), abs=1e-12)
            assert dw @ np.polyval(coef, nodes) == pytest.approx(
                np.polyval(np.polyder(coef), t), abs=1e-12
            )
        w, _ = conjugate.lagrange_weights(nodes, nodes[1])
        assert np.array_equal(w, np.eye(len(nodes))[1])  # exactly 0 and 1 at a node


class TestPatchFits:
    def test_cubic_fit_gradient_exact_on_cubics(self, disk_ops):
        v = disk_ops.mesh.vertices
        f = v[:, 0] ** 3 - 2.0 * v[:, 0] * v[:, 1] ** 2 + v[:, 1]
        c, R = hk._poly_fit(disk_ops.mesh, f, v, 3, hk._nearest(v, v, hk.PATCH_K))
        g = c[:, 1:3] / R[:, None]
        gx = 3.0 * v[:, 0] ** 2 - 2.0 * v[:, 1] ** 2
        gy = -4.0 * v[:, 0] * v[:, 1] + 1.0
        assert np.abs(g[:, 0] - gx).max() < 1e-8
        assert np.abs(g[:, 1] - gy).max() < 1e-8

    def test_patch_fits_gradient_exact_on_cubics(self, disk_ops):
        v = disk_ops.mesh.vertices
        f = v[:, 0] ** 3 - 2.0 * v[:, 0] * v[:, 1] ** 2 + v[:, 1]
        g = hk._patch_fits(disk_ops, f).grad
        assert np.abs(g[:, 0] - (3.0 * v[:, 0] ** 2 - 2.0 * v[:, 1] ** 2)).max() < 1e-8
        assert np.abs(g[:, 1] - (-4.0 * v[:, 0] * v[:, 1] + 1.0)).max() < 1e-8

    def test_hessian_exact_on_quadratics(self, disk_ops):
        v = disk_ops.mesh.vertices
        f = v[:, 0] ** 2 + 3.0 * v[:, 0] * v[:, 1] + 2.0 * v[:, 1] ** 2
        fits = hk._patch_fits(disk_ops, f)
        # both the shared rows and the rows fitted again from the kept
        # vertices are held exact
        assert 0 < fits.shared < disk_ops.mesh.n_vertices
        H = fits.hessian
        assert np.abs(H[:, 0, 0] - 2.0).max() < 1e-7
        assert np.abs(H[:, 0, 1] - 3.0).max() < 1e-7
        assert np.abs(H[:, 1, 1] - 4.0).max() < 1e-7

    def test_boundary_normal_gradient_exact_on_linears(self, disk_ops):
        v = disk_ops.mesh.vertices
        a = np.array([0.8, -1.1])
        W = v @ a
        quad = hk._patch_fits(disk_ops, W).quad
        g = hk._boundary_normal_gradient(disk_ops.mesh, W, quad, disk_ops.boundary)
        nu = disk_ops.mesh.boundary_curve().outward_normal()
        assert np.abs(g - nu @ a).max() < 1e-8

    @pytest.mark.parametrize("degree, keep", [(3, None), (3, "interior"), (2, None)])
    def test_blocks_do_not_change_the_fit(self, disk_ops, monkeypatch, degree, keep):
        # 7-center blocks put block edges mid-array and leave the last one
        # partial (143 = 20 * 7 + 3); each center's arithmetic is unchanged
        mesh = disk_ops.mesh
        v = mesh.vertices
        f = np.sin(3.0 * v[:, 0]) * np.cos(2.0 * v[:, 1])
        centers = v[:143]
        if keep is None:
            neighbors = hk._nearest(v, centers, hk.PATCH_K)
        else:
            d, idx = hk._nearest(v[mesh.n_boundary:], centers, hk.PATCH_K)
            neighbors = d, idx + mesh.n_boundary
        monkeypatch.setattr(hk, "FIT_BLOCK", len(centers))
        c_whole, R_whole = hk._poly_fit(mesh, f, centers, degree, neighbors)
        monkeypatch.setattr(hk, "FIT_BLOCK", 7)
        c_blocked, R_blocked = hk._poly_fit(mesh, f, centers, degree, neighbors)
        assert np.array_equal(c_blocked, c_whole)
        assert np.array_equal(R_blocked, R_whole)

    def test_tiny_mesh_rejected(self):
        mesh = triangulate(PlanarCurve.circle(1.0, 24), 0.3)
        f = np.sum(mesh.vertices**2, axis=1)
        # layer exclusion leaves too few interior fit points on this mesh
        with pytest.raises(hk.HarnackError):
            hk._patch_fits(fem.assemble(mesh), f)


class TestVolumeTerm:
    def test_zero_on_shrinker_profile(self, disk_ops):
        # Hess(|x|^2/4tau) = I/2tau exactly, so the deviation density vanishes
        v = disk_ops.mesh.vertices
        f = np.sum(v**2, axis=1) / (4.0 * TAU)
        u = np.exp(-f) / (4.0 * np.pi * TAU)
        assert hk.volume_term(disk_ops, hk._patch_fits(disk_ops, f), u, TAU) < 1e-12

    def test_positive_off_shrinker(self, disk_ops):
        v = disk_ops.mesh.vertices
        f = np.sum(v**2, axis=1) / (4.0 * TAU) + 0.3 * v[:, 0] ** 2
        u = np.exp(-f)
        assert hk.volume_term(disk_ops, hk._patch_fits(disk_ops, f), u, TAU) > 1e-3


class TestBoundaryTerms:
    """The boundary terms on the shrinker's closed-form fields.

    On the circle of radius R = sqrt(2 tau), f = |x|^2/4tau + c is constant
    along the self-similar vertex paths x(t) (velocity -x/2tau), so df/dt = 0
    there, W is constant and the Harnack integrand vanishes with beta = 1/R
    and d beta/dt = 1/R^3.
    """

    R = np.sqrt(2.0 * TAU)

    @pytest.fixture(scope="class")
    def fields(self):
        ops = fem.assemble(triangulate(PlanarCurve.circle(self.R, 256), 0.06))
        v = ops.mesh.vertices
        f = np.sum(v**2, axis=1) / (4.0 * TAU) + 0.3
        u = np.exp(-f) / (4.0 * np.pi * TAU)
        return ops, f, u, -v / (2.0 * TAU)

    def test_direct_vanishes(self, fields):
        ops, f, u, vel = fields
        fits = hk._patch_fits(ops, f)
        assert abs(hk.boundary_term_direct(ops, fits, f, np.zeros_like(f), vel, u, TAU)) < 1e-12

    def test_harnack_vanishes_and_sees_a_wrong_rate(self, fields):
        ops, f, u, vel = fields
        nb = ops.mesh.n_boundary
        beta = np.full(nb, 1.0 / self.R)
        dbeta_dt = np.full(nb, 1.0 / self.R**3)
        value = hk.boundary_term_harnack(ops, f, beta, dbeta_dt, vel[:nb], u, TAU)
        assert abs(value) < 1e-6
        off = hk.boundary_term_harnack(ops, f, beta, 1.1 * dbeta_dt, vel[:nb], u, TAU)
        assert abs(off) > 1e-2


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
            hk.rate_identity_check(state, skip=0)

    def test_each_snapshot_read_once(self, shrinker_state, monkeypatch):
        calls = []
        real = conjugate.f_from_state

        def counted(state, k):
            calls.append(k)
            return real(state, k)

        monkeypatch.setattr(conjugate, "f_from_state", counted)
        hk.rate_identity_check(shrinker_state, skip=5)
        # six evaluated snapshots and the one after them read by the stencils
        assert calls == list(range(7))

    def test_patch_rows_counted(self, shrinker_state):
        rep = hk.rate_identity_check(shrinker_state, skip=5)
        meta, n = rep.meta, shrinker_state.meshes[0].n_vertices
        assert set(meta) == {"skip", "warnings", "h", "patch_query_rows", "patch_shared_rows"}
        # every row is queried and fitted once from all vertices; the rows
        # whose fit is not shared are queried and fitted again from the kept ones
        assert meta["patch_query_rows"] + meta["patch_shared_rows"] == 2 * n * len(rep.records)
        assert 0 < meta["patch_shared_rows"] < n * len(rep.records)

    def test_tie_breaking_moves_records_by_rounding(self, shrinker_state, monkeypatch):
        # the symmetric shrinker meshes have many points at equal distance, and
        # which of them a patch keeps is the k-d tree's choice; another tree
        # shape moves each record column by at most 4e-6 of its largest value
        # (volume_term, measured; the others by at most 2e-8)
        rep = hk.rate_identity_check(shrinker_state, skip=5)
        monkeypatch.setattr(hk, "cKDTree", partial(cKDTree, leafsize=4))
        other = hk.rate_identity_check(shrinker_state, skip=5)
        for name in hk.HarnackReport.COLUMNS:
            a, b = rep.column(name), other.column(name)
            assert np.abs(a - b).max() <= 5e-5 * np.abs(a).max(), name


class TestThreadedEvaluation:
    """Records do not depend on how many threads evaluate the snapshots."""

    @pytest.fixture(scope="class")
    def ellipse_state(self):
        traj = flow.run_flow(PlanarCurve.ellipse(1.2, 0.8, 128), 0.4, 9)
        return conjugate.solve_from_minimizer(traj, h=0.07, steps_per_tau=100)

    @pytest.mark.parametrize("which, skip", [("shrinker_state", 5), ("ellipse_state", 3)])
    def test_records_bit_identical_for_1_and_4_threads(
        self, request, monkeypatch, which, skip
    ):
        state = request.getfixturevalue(which)
        reports = {}
        for n in (1, 4):
            monkeypatch.setattr(hk, "_workers", lambda n=n: n)
            reports[n] = hk.rate_identity_check(state, skip)
        one, four = reports[1], reports[4]
        # JSON float text round-trips, so equal text is equal bits
        assert json.dumps(four.records) == json.dumps(one.records)
        assert four.meta["warnings"] == one.meta["warnings"]
        # and both are in snapshot order: times, warnings, and the terms
        # of sample snapshots evaluated directly
        snaps = state.trajectory.snapshots
        n = len(one.records)
        assert [r["t"] for r in one.records] == [s.t for s in snaps[:n]]
        at = [int(w.rsplit(" ", 1)[1]) for w in one.meta["warnings"]]
        assert at == sorted(at)
        mesh = state.meshes[0]
        pattern = fem.P1Pattern(mesh.triangles, mesh.n_vertices)
        for i in (0, n // 2, n - 1):
            ops = pattern.operators(state.meshes[i])
            u, tau = state.u_fields[i], snaps[i].tau
            f = conjugate.f_from_state(state, i)
            beta = conjugate.interp_periodic(
                snaps[i].curve.curvature(), state.meshes[state.t0_index].boundary_param
            )
            assert one.records[i]["W_beta"] == functional.w_beta(ops, f, tau, beta).w_beta
            fits = hk._patch_fits(ops, f)
            assert one.records[i]["volume_term"] == hk.volume_term(ops, fits, u, tau)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_one_snapshot_of_operators_per_thread(
        self, shrinker_state, monkeypatch, threads
    ):
        # each snapshot's operators are built once, dropped after use, and
        # never kept on the state
        state = pickle.loads(pickle.dumps(shrinker_state))
        keys, pickled = set(vars(state)), pickle.dumps(state)
        built, live = [], []
        real = fem.P1Pattern.operators

        def recorded(self, mesh):
            ops = real(self, mesh)
            built.append(weakref.ref(ops))
            live.append(sum(r() is not None for r in built))
            return ops

        monkeypatch.setattr(fem.P1Pattern, "operators", recorded)
        monkeypatch.setattr(hk, "_workers", lambda: threads)
        hk.rate_identity_check(state, skip=5)
        gc.collect()
        # six evaluated snapshots and the one after them read by the stencils
        assert len(built) == 7
        assert max(live) <= threads
        assert all(r() is None for r in built)
        assert set(vars(state)) == keys and pickle.dumps(state) == pickled

    def test_first_failing_snapshot_is_reported(self, shrinker_state, monkeypatch):
        monkeypatch.setattr(hk, "_workers", lambda: 4)
        real = hk.volume_term

        def failing(ops, fits, u, tau):
            # snapshot 3 fails first, snapshot 2 later: 2 is what a serial
            # loop would have raised
            i = next(i for i, m in enumerate(shrinker_state.meshes) if m is ops.mesh)
            if i == 2:
                time.sleep(0.05)
            if i in (2, 3):
                raise hk.HarnackError(f"snapshot {i}")
            return real(ops, fits, u, tau)

        monkeypatch.setattr(hk, "volume_term", failing)
        with pytest.raises(hk.HarnackError, match="snapshot 2"):
            hk.rate_identity_check(shrinker_state, skip=5)


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
