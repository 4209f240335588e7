import numpy as np
import pytest

from entropylab import conjugate, fem, flow, functional as fn
from entropylab.geometry import PlanarCurve
from entropylab.meshing import triangulate

TIMES = np.arange(0.0, 0.2 + 1e-12, 0.02)


@pytest.fixture(scope="module")
def shrinker_state():
    # coarse backward solve on the exact shrinking-disk trajectory
    traj = flow.analytic_shrinking_disk_trajectory(1.0, TIMES, n_vertices=256)
    return conjugate.solve_from_minimizer(traj, h=0.05, steps_per_tau=100)


class TestInterpolationHelpers:
    def test_boundary_positions_at_vertices(self):
        c = PlanarCurve.circle(1.0, 64)
        pts = conjugate.interp_periodic(c.vertices, np.arange(64, dtype=float))
        assert np.allclose(pts, c.vertices, atol=1e-15)

    def test_boundary_positions_midpoints(self):
        c = PlanarCurve.circle(1.0, 64)
        pts = conjugate.interp_periodic(c.vertices, np.array([0.5, 63.5]))
        mid0 = 0.5 * (c.vertices[0] + c.vertices[1])
        mid63 = 0.5 * (c.vertices[63] + c.vertices[0])
        assert np.allclose(pts, [mid0, mid63], atol=1e-15)

    def test_interp_periodic_linear(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        out = conjugate.interp_periodic(vals, np.array([0.25, 2.0, 3.5]))
        assert np.allclose(out, [0.25, 2.0, 1.5], atol=1e-15)


class TestBackwardSolve:
    def test_mass_conserved(self, shrinker_state):
        assert shrinker_state.max_mass_drift() < 1e-10

    def test_u_positive_everywhere(self, shrinker_state):
        for u in shrinker_state.u_fields:
            assert np.all(u > 0)
        assert shrinker_state.warnings == []

    def test_shrinker_profile_preserved(self, shrinker_state):
        # on the exact shrinker, u(x, t) = e^{-|x|^2/4tau}/(4pi tau (1-e^{-1/2}))
        # at every time once the end data is the tau(t0) minimizer
        st = shrinker_state
        i = 0
        tau = st.trajectory.snapshots[i].tau
        mesh = st.meshes[i]
        r2 = np.sum(mesh.vertices**2, axis=1)
        u_exact = np.exp(-r2 / (4 * tau)) / (4 * np.pi * tau * (1 - np.exp(-0.5)))
        ops = st.ops_at(i)
        err = np.sqrt(ops.M_lumped @ (st.u_fields[i] - u_exact) ** 2)
        assert err < 5e-3

    def test_f_from_state(self, shrinker_state):
        f = conjugate.f_from_state(shrinker_state, 0)
        u = shrinker_state.u_fields[0]
        tau = shrinker_state.trajectory.snapshots[0].tau
        assert np.allclose(f, fn.f_from_u(u, tau), atol=1e-14)

    def test_meshes_share_connectivity(self, shrinker_state):
        tris = shrinker_state.meshes[-1].triangles
        for m in shrinker_state.meshes:
            assert m.triangles is tris

    def test_mesh_tracks_boundary(self, shrinker_state):
        # boundary vertices of the ALE mesh stay on the shrinking circle
        st = shrinker_state
        for i in st.snapshot_indices:
            R = np.sqrt(1.0 - 2.0 * st.trajectory.snapshots[i].t)
            nb = st.meshes[i].n_boundary
            r = np.linalg.norm(st.meshes[i].vertices[:nb], axis=1)
            assert np.abs(r - R).max() < 1e-3


class TestValidation:
    def test_unnormalized_end_data_rejected(self):
        traj = flow.analytic_shrinking_disk_trajectory(1.0, TIMES, n_vertices=256)
        mesh0 = triangulate(traj.snapshots[-1].curve, 0.1)
        u_bad = np.ones(mesh0.n_vertices)
        with pytest.raises(conjugate.ConjugateError):
            conjugate.backward_solve(traj, mesh0, u_bad)

    def test_single_snapshot_rejected(self):
        traj = flow.analytic_shrinking_disk_trajectory(1.0, TIMES, n_vertices=256)
        mesh0 = triangulate(traj.snapshots[0].curve, 0.1)
        ops = fem.assemble(mesh0)
        u = np.ones(mesh0.n_vertices)
        u /= float(ops.M_lumped @ u)
        with pytest.raises(conjugate.ConjugateError):
            conjugate.backward_solve(traj, mesh0, u, t0_index=0)

    def test_end_data_reports_minimizer(self, shrinker_state):
        res = shrinker_state.end_result
        assert res is not None and res.converged
        tau0 = shrinker_state.trajectory.snapshots[-1].tau
        # t0 domain is a disk of radius sqrt(2 tau0): self-similar, so
        # mu = log(1 - e^{-1/2}) independent of scale
        assert res.mu == pytest.approx(np.log(1 - np.exp(-0.5)), abs=5e-3)
        assert tau0 == pytest.approx(0.3, abs=1e-12)
