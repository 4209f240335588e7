import numpy as np
import pytest

from entropylab import flow
from entropylab.geometry import PlanarCurve


class TestCircleOracle:
    def test_radius_law(self):
        # R(t) = sqrt(R0^2 - 2t): compare the computed flow at t = 0.375
        traj = flow.run_flow(PlanarCurve.circle(1.0, 512), 0.75, 16)
        s = traj.snapshots[-1]
        R_num = np.linalg.norm(s.curve.vertices, axis=1).mean()
        R_exact = np.sqrt(1.0 - 2.0 * s.t)
        assert abs(R_num - R_exact) < 1e-6
        # t_end = 0.75 * T_est with T_est the polygon-area estimate
        assert s.t == pytest.approx(0.375, abs=1e-4)

    def test_circle_stays_round(self):
        traj = flow.run_flow(PlanarCurve.circle(1.0, 512), 0.75, 16)
        r = np.linalg.norm(traj.snapshots[-1].curve.vertices, axis=1)
        assert (r.max() - r.min()) / r.mean() < 1e-4

    def test_singular_time_estimate(self):
        traj = flow.run_flow(PlanarCurve.circle(2.0, 256), 0.1, 3)
        # polygon area of the 256-gon undershoots pi R^2 by O(m^-2)
        assert traj.T_est == pytest.approx(2.0, rel=1e-3)


def _wavy_circle(m=512):
    th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    rho = 1.0 + 0.15 * np.cos(3 * th)
    return PlanarCurve(np.column_stack([rho * np.cos(th), rho * np.sin(th)]))


class TestAreaLaw:
    # dA/dt = -2 pi exactly for any embedded curve
    @pytest.mark.parametrize(
        "curve",
        [PlanarCurve.ellipse(1.2, 0.8, 512), _wavy_circle()],
        ids=["ellipse", "wavy"],
    )
    def test_area_decreases_linearly(self, curve):
        traj = flow.run_flow(curve, 0.5, 11)
        A0 = traj.snapshots[0].area
        for s in traj.snapshots:
            assert s.area == pytest.approx(A0 - 2.0 * np.pi * s.t, abs=1e-4)

    def test_area_law_on_jittered_ellipse(self):
        # Pins the step constant on input that is not smooth at the vertex
        # scale.  The half-step predictor is explicit, so its highest modes
        # grow once dt exceeds ~h^2: at DT_FACTOR 1.6 the error is 4.6e-5
        # (0.4: 3.4e-5), at 3.2 it is 2.5e-4.  A jitter of 2e-3 trips the
        # turning guard before the first step.
        x = PlanarCurve.ellipse(1.2, 0.8, 512).vertices
        x = x + np.random.default_rng(0).normal(0.0, 5e-4, x.shape)
        traj = flow.run_flow(PlanarCurve(x), 0.4, 11)
        assert not traj.truncated
        A0 = traj.snapshots[0].area
        err = max(abs(s.area - (A0 - 2.0 * np.pi * s.t)) for s in traj.snapshots)
        assert err <= 1e-4

    def test_length_decreases(self):
        traj = flow.run_flow(PlanarCurve.ellipse(1.2, 0.8, 512), 0.5, 11)
        lengths = [s.length for s in traj.snapshots]
        assert np.all(np.diff(lengths) < 0)


class TestStepAndValidation:
    def test_bad_fraction_rejected(self):
        c = PlanarCurve.circle(1.0, 64)
        with pytest.raises(flow.FlowError):
            flow.run_flow(c, 0.0, 5)
        with pytest.raises(flow.FlowError):
            flow.run_flow(c, 0.96, 5)

    def test_bad_dt_scale_rejected(self):
        c = PlanarCurve.circle(1.0, 64)
        with pytest.raises(flow.FlowError):
            flow.run_flow(c, 0.5, 5, dt_scale=1.5)

    def test_a_below_t_est_rejected(self):
        c = PlanarCurve.circle(1.0, 64)
        with pytest.raises(flow.FlowError):
            flow.run_flow(c, 0.5, 5, a=0.1)

    def test_corner_curve_truncates(self):
        # turning-per-length guard trips on a polygonal corner
        c = PlanarCurve.rectangle(0.0, 0.0, 1.0, 1.0, 64)
        traj = flow.run_flow(c, 0.5, 5)
        assert traj.truncated
        assert traj.meta["truncation"] == "turning"


class TestTrajectory:
    def test_tau_is_a_minus_t(self):
        traj = flow.run_flow(PlanarCurve.circle(1.0, 256), 0.5, 6, a=0.8)
        for s in traj.snapshots:
            assert s.tau == pytest.approx(0.8 - s.t, abs=1e-14)

    def test_vertex_count_kept_far_from_origin(self):
        # the snapshots' boundary data is indexed by vertex: none may lose one
        traj = flow.run_flow(PlanarCurve.circle(1.0, 128, center=(2000.0, 2000.0)), 0.9, 5)
        assert [len(s.curve) for s in traj.snapshots] == [128] * 5


class TestAnalyticTrajectory:
    def test_exact_radii_and_areas(self):
        times = np.arange(0.0, 0.4 + 1e-12, 0.05)
        traj = flow.analytic_shrinking_disk_trajectory(1.0, times)
        for s in traj.snapshots:
            R = np.sqrt(1.0 - 2.0 * s.t)
            r = np.linalg.norm(s.curve.vertices, axis=1)
            assert np.allclose(r, R, atol=1e-12)

    def test_times_past_singularity_rejected(self):
        with pytest.raises(flow.FlowError):
            flow.analytic_shrinking_disk_trajectory(1.0, [0.0, 0.6])
