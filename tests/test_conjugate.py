import numpy as np
import pytest

import oracles
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
        ops = fem.assemble(mesh)
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
        for i in range(len(st.meshes)):
            R = np.sqrt(1.0 - 2.0 * st.trajectory.snapshots[i].t)
            nb = st.meshes[i].n_boundary
            r = np.linalg.norm(st.meshes[i].vertices[:nb], axis=1)
            assert np.abs(r - R).max() < 1e-3

    def test_meshes_are_extended_snapshots(self, shrinker_state):
        # snapshot k's mesh is the t0 mesh plus the harmonic extension of
        # snapshot k's boundary displacement, bit for bit
        st = shrinker_state
        mesh0 = st.meshes[-1]
        nb, v0, K = mesh0.n_boundary, mesh0.vertices, fem.assemble(mesh0).K
        for k in range(st.t0_index):
            b = conjugate.interp_periodic(
                st.trajectory.snapshots[k].curve.vertices, mesh0.boundary_param
            )
            d = oracles.harmonic_extension(K, nb, b - v0[:nb])
            assert np.array_equal(st.meshes[k].vertices, v0 + d)

    def test_mesh_boundaries_are_snapshot_curves(self, shrinker_state):
        # harnack reads each snapshot's boundary motion off the meshes: their
        # boundary rows are the snapshot curves at boundary_param, to 4 ulp of
        # the curve's largest coordinate
        st = shrinker_state
        nb, params = st.meshes[-1].n_boundary, st.meshes[-1].boundary_param
        for mesh, snap in zip(st.meshes, st.trajectory.snapshots):
            b = conjugate.interp_periodic(snap.curve.vertices, params)
            ulp = np.spacing(np.abs(b).max())
            assert np.abs(mesh.vertices[:nb] - b).max() <= 4 * ulp

    def test_quality_warning_names_the_squashed_snapshots(self):
        # the t0 circle squashed into ellipses of aspect up to 4:1, area kept
        times = np.linspace(0.0, 0.06, 7)
        snaps = []
        for k, t in enumerate(times):
            s = 2.0 ** ((len(times) - 1 - k) / (len(times) - 1))
            c = PlanarCurve.ellipse(s, 1.0 / s, 128)
            snaps.append(flow.Snapshot(t, 1.0 - t, c, c.enclosed_area(), c.arc_length()))
        traj = flow.FlowTrajectory(snaps, 1.0, 1.0)
        st = conjugate.solve_from_minimizer(traj, h=0.1, steps_per_tau=20)
        low = [k for k, m in enumerate(st.meshes) if m.min_angle_deg() < 10.0]
        assert low and len(low) < st.t0_index
        quality = [
            f"mesh quality degraded at snapshot {k} "
            f"(min angle {st.meshes[k].min_angle_deg():.1f} deg)"
            for k in low
        ]
        # the meshes are built before the march, so their warnings come first
        assert st.warnings[: len(quality)] == quality
        assert not any("mesh quality" in w for w in st.warnings[len(quality):])

    def test_two_snapshots_linear_in_time(self):
        traj = flow.analytic_shrinking_disk_trajectory(1.0, [0.0, 0.02], n_vertices=256)
        st = conjugate.solve_from_minimizer(traj, h=0.05, steps_per_tau=50)
        assert st.max_mass_drift() <= 1e-14
        mesh = st.meshes[0]
        b = conjugate.interp_periodic(
            traj.snapshots[0].curve.vertices, st.meshes[1].boundary_param
        )
        assert np.abs(mesh.vertices[: mesh.n_boundary] - b).max() < 1e-14


class TestReusedFactor:
    def test_matches_direct_solve_over_real_substeps(self, shrinker_state, monkeypatch):
        # rerun the fixture's chain, solving every substep both ways
        st = shrinker_state
        steps = []

        class Both(conjugate._ReusedLU):
            def solve(self, A, b):
                x = super().solve(A, b)
                ref = oracles.DirectSolve().solve(A, b)
                steps.append(np.abs(x - ref).max() / np.abs(ref).max())
                return x

        monkeypatch.setattr(conjugate, "_ReusedLU", Both)
        mesh0, u0 = st.meshes[st.t0_index], st.u_fields[st.t0_index]
        again = conjugate.backward_solve(st.trajectory, mesh0, u0, steps_per_tau=100)
        stats = again.linear_solve
        assert stats == st.linear_solve
        assert stats["substeps"] == len(steps) == len(st.conservation_log) - 1
        # the factor is reused: most substeps are solved by defect correction
        assert 1 <= stats["factorizations"] <= stats["substeps"] // 4
        assert stats["corrections"] > 0
        assert stats["worst_rel_residual"] <= conjugate.DEFECT_RTOL
        assert max(steps) <= 1e-13
        # and the whole chain stays on the direct solve's chain
        monkeypatch.setattr(conjugate, "_ReusedLU", oracles.DirectSolve)
        direct = conjugate.backward_solve(st.trajectory, mesh0, u0, steps_per_tau=100)
        for u, ref in zip(st.u_fields, direct.u_fields):
            assert np.abs(u - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_stalled_correction_refactors_to_the_direct_solve(self):
        mesh = triangulate(PlanarCurve.circle(1.0, 64), 0.15)
        asm = conjugate._AleAssembler(mesh)
        solver = conjugate._ReusedLU()
        still = np.zeros_like(mesh.vertices)
        b = np.random.default_rng(0).uniform(0.5, 1.5, mesh.n_vertices)
        A, _, _ = asm.step(mesh.vertices, still, 1e-4)
        solver.solve(A, b)
        # a nearby system: the stale factor converges by defect correction
        A, _, _ = asm.step(mesh.vertices, still, 1.1e-4)
        x = solver.solve(A, b)
        assert solver.stats["factorizations"] == 1
        assert solver.stats["corrections"] > 0
        assert np.linalg.norm(b - A @ x) <= conjugate.DEFECT_RTOL * np.linalg.norm(b)
        # a large-ds jump: the old factor makes defect correction diverge, so
        # after MAX_CORRECTIONS the solve refactors and returns the direct solution
        A, _, _ = asm.step(mesh.vertices, still, 10.0)
        before = solver.stats["corrections"]
        x = solver.solve(A, b)
        assert solver.stats["factorizations"] == 2
        assert solver.stats["corrections"] - before == conjugate.MAX_CORRECTIONS
        assert np.array_equal(x, oracles.DirectSolve().solve(A, b))
        assert solver.stats["substeps"] == 3


class TestSnapshotOperators:
    def test_pattern_operators_match_assemble(self, shrinker_state):
        # one pattern serves every ALE mesh; the oracle assembles each afresh
        st = shrinker_state
        mesh = st.meshes[0]
        pattern = fem.P1Pattern(mesh.triangles, mesh.n_vertices)
        for i in (0, st.t0_index // 2, st.t0_index):
            mesh_i = st.meshes[i]
            got = pattern.operators(mesh_i)
            assert got.mesh is mesh_i
            K, M, _ = oracles.ale_matrices(mesh_i.vertices, mesh_i.triangles,
                                           np.zeros_like(mesh_i.vertices))
            for g, r in ((got.K, K), (got.M, M)):
                assert g.format == "csc"
                assert abs(g - r).max() <= 1e-13 * abs(r).max()
            m_ref = np.asarray(M.sum(axis=1)).ravel()
            assert np.abs(got.M_lumped - m_ref).max() <= 1e-13 * m_ref.max()


class TestValidation:
    def test_unnormalized_end_data_rejected(self):
        traj = flow.analytic_shrinking_disk_trajectory(1.0, TIMES, n_vertices=256)
        mesh0 = triangulate(traj.snapshots[-1].curve, 0.1)
        u_bad = np.ones(mesh0.n_vertices)
        with pytest.raises(conjugate.ConjugateError):
            conjugate.backward_solve(traj, mesh0, u_bad)

    def test_single_snapshot_rejected(self):
        traj = flow.analytic_shrinking_disk_trajectory(1.0, TIMES[:1], n_vertices=256)
        mesh0 = triangulate(traj.snapshots[0].curve, 0.1)
        ops = fem.assemble(mesh0)
        u = np.ones(mesh0.n_vertices)
        u /= float(ops.M_lumped @ u)
        with pytest.raises(conjugate.ConjugateError, match="two snapshots"):
            conjugate.backward_solve(traj, mesh0, u)

    def test_end_data_reports_minimizer(self, shrinker_state):
        res = shrinker_state.end_result
        assert res is not None and res.converged
        tau0 = shrinker_state.trajectory.snapshots[-1].tau
        # t0 domain is a disk of radius sqrt(2 tau0): self-similar, so
        # mu = log(1 - e^{-1/2}) independent of scale
        assert res.mu == pytest.approx(np.log(1 - np.exp(-0.5)), abs=5e-3)
        assert tau0 == pytest.approx(0.3, abs=1e-12)
