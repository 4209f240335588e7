from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropylab import collapse
from entropylab.geometry import AnalyticDomain, PlanarCurve


def _decimal_crossings(a, d, r2):
    """Per edge a + t d, the crossings (-ad -+ sqrt(disc)) / dd with the circle
    |x|^2 = r2, from disc = ad*ad - dd*(aa - r2) over the float coordinates
    in 50 digits; also the scale (|ad| + sqrt(disc)) / dd of their rounding.
    Rows with disc <= 0 are None."""
    rows = []
    with localcontext() as ctx:
        ctx.prec = 50
        for (ax, ay), (dx, dy) in zip(a.tolist(), d.tolist()):
            ax, ay, dx, dy = map(Decimal, (ax, ay, dx, dy))
            ad, dd = ax * dx + ay * dy, dx * dx + dy * dy
            disc = ad * ad - dd * (ax * ax + ay * ay - Decimal(r2))
            root = disc.sqrt() if disc > 0 else None
            rows.append(None if root is None else
                        (float((-ad - root) / dd), float((-ad + root) / dd),
                         float((abs(ad) + root) / dd)))
    return rows


def _assert_crossings_match(a, d, r2):
    t0, t1, live, _ = collapse._circle_crossings(a, d, r2)
    for k, row in enumerate(_decimal_crossings(a, d, r2)):
        h1, h2, scale = (-1.0, 2.0, 0.0) if row is None else row
        # a crossing outside (0, 1) leaves its piece empty, at 0 or at 1
        want = (h1 if 0.0 < h1 < 1.0 else 0.0, h2 if 0.0 < h2 < 1.0 else 1.0)
        tol = 8 * np.finfo(float).eps * scale
        assert abs(t1[k, 0] - want[0]) <= tol and abs(t0[k, 2] - want[1]) <= tol


class TestCircleCrossings:
    # disc cancels near a tangency, and the square root turns its rounding
    # into an error of sqrt(eps) in the crossings unless disc is compensated

    @given(phi=st.floats(0.0, 2 * np.pi), r=st.floats(0.1, 3.0),
           length=st.floats(0.01, 2.0), foot=st.floats(0.2, 0.8),
           digits=st.integers(2, 14))
    @settings(max_examples=200, deadline=None)
    def test_near_tangent_chords(self, phi, r, length, foot, digits):
        normal = np.array([np.cos(phi), np.sin(phi)])
        d = length * np.array([-normal[1], normal[0]])
        a = r * (1.0 - 10.0**-digits) * normal - foot * d
        _assert_crossings_match(a[None, :], d[None, :], r * r)

    def test_ellipse_tangent_at_vertices(self):
        # r one ulp below the minor semi-axis touches the polygon's vertices
        # (0, +-0.8) from inside: each edge there crosses at t near 0 or 1
        a = PlanarCurve.ellipse(1.2, 0.8, 512).vertices
        d = np.roll(a, -1, axis=0) - a
        r = np.nextafter(0.8, 0.0)
        near = np.flatnonzero(np.abs(a[:, 0]) < 0.05)
        _assert_crossings_match(a[near], d[near], r * r)


class TestBallIntersectionPolyline:
    def test_disk_fully_inside(self):
        c = PlanarCurve.circle(1.0, 4096)
        v, err = collapse.ball_intersection_volume(c, (0.0, 0.0), 0.5)
        assert err == 0.0
        assert v == pytest.approx(np.pi * 0.25, abs=1e-6)

    def test_ball_contains_polygon(self):
        c = PlanarCurve.circle(1.0, 4096)
        v, _ = collapse.ball_intersection_volume(c, (0.0, 0.0), 3.0)
        assert v == pytest.approx(c.enclosed_area(), rel=1e-12)

    def test_lens_area(self):
        # unit disks with centers distance 1 apart: area 2 pi/3 - sqrt(3)/2
        c = PlanarCurve.circle(1.0, 4096)
        v, _ = collapse.ball_intersection_volume(c, (1.0, 0.0), 1.0)
        assert v == pytest.approx(2 * np.pi / 3 - np.sqrt(3) / 2, abs=1e-5)

    def test_disjoint_is_zero(self):
        c = PlanarCurve.circle(1.0, 512)
        v, _ = collapse.ball_intersection_volume(c, (10.0, 0.0), 1.0)
        assert v < 1e-12

    @given(
        cx=st.floats(-2, 2),
        cy=st.floats(-2, 2),
        r=st.floats(0.1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_clip_area_bounds(self, cx, cy, r):
        c = PlanarCurve.circle(1.0, 256)
        v, _ = collapse.ball_intersection_volume(c, (cx, cy), r)
        assert -1e-12 <= v <= min(np.pi * r**2, c.enclosed_area()) + 1e-9


class TestBallIntersectionAnalytic:
    def test_slab_matches_closed_form(self):
        # area of B_r n {|y| < d}: 2 (r^2 asin(d/r) + d sqrt(r^2 - d^2))
        slab = AnalyticDomain.slab(1.0, dim=2)
        r = 4.0
        exact = 2.0 * (r**2 * np.arcsin(1.0 / r) + np.sqrt(r**2 - 1.0))
        v, err = collapse.ball_intersection_volume(slab, (0.0, 0.0), r, budget=10**5)
        assert v == pytest.approx(exact, rel=1e-3)
        assert err < 0.05 * exact

    def test_deterministic_in_seed(self):
        slab = AnalyticDomain.slab(1.0, dim=2)
        v1, _ = collapse.ball_intersection_volume(slab, (0.0, 0.0), 2.0, budget=10**4)
        v2, _ = collapse.ball_intersection_volume(slab, (0.0, 0.0), 2.0, budget=10**4)
        assert v1 == v2

    def test_empty_box_short_circuits(self):
        slab = AnalyticDomain.slab(1.0, dim=2)
        v, err = collapse.ball_intersection_volume(slab, (0.0, 10.0), 1.0)
        assert v == 0.0 and err == 0.0

    def test_budget_validation(self):
        slab = AnalyticDomain.slab(1.0, dim=2)
        with pytest.raises(collapse.CollapseError):
            collapse.ball_intersection_volume(slab, (0.0, 0.0), 1.0, budget=100)

    def test_radius_validation(self):
        with pytest.raises(collapse.CollapseError):
            collapse.ball_intersection_volume(PlanarCurve.circle(1.0, 64), (0, 0), 0.0)

    def test_row_seed_distinguishes_rows(self):
        s1 = collapse._row_seed((0.0, 0.0), 1.0, 0)
        s2 = collapse._row_seed((0.0, 0.0), 2.0, 0)
        s3 = collapse._row_seed((0.0, 0.0), 1.0, 0)
        assert s1 != s2
        assert s1 == s3


class TestBoundaryIntegral:
    def test_zero_spec(self):
        slab = AnalyticDomain.slab(1.0, dim=2)
        assert collapse.boundary_beta_integral(slab, (0.0, 0.0), 5.0, "zero") == 0.0

    def test_slab_flat_boundary_curvature(self):
        slab = AnalyticDomain.slab(1.0, dim=2)
        out = collapse.boundary_beta_integral(slab, (0.0, 0.0), 5.0, "mean_curvature")
        assert out == 0.0

    def test_polyline_circle_curvature(self):
        # int |H| ds over the whole unit circle = 2 pi
        c = PlanarCurve.circle(1.0, 2048)
        out = collapse.boundary_beta_integral(c, (0.0, 0.0), 3.0, "mean_curvature")
        assert out == pytest.approx(2 * np.pi, rel=1e-4)

    def test_grim_reaper_h_ds_is_x_measure(self):
        # H ds = dx1 on the grim reaper, so the full-curve integral is pi
        gr = AnalyticDomain.grim_reaper_2d()
        small = collapse.boundary_beta_integral(gr, (0.0, 0.0), 0.5, "mean_curvature")
        large = collapse.boundary_beta_integral(gr, (0.0, 0.0), 50.0, "mean_curvature")
        assert 0.0 < small < large <= np.pi + 1e-9
        assert large == pytest.approx(np.pi, abs=1e-2)

    def test_sphere_fully_inside(self):
        ball = AnalyticDomain.ball(2.0, dim=3)
        out = collapse.boundary_beta_integral(ball, (0.0, 0.0, 0.0), 5.0, "mean_curvature")
        # H = 1/2 per principal curvature pair: (dim-1)/R = 1, area 16 pi
        assert out == pytest.approx(16 * np.pi, rel=1e-12)

    @pytest.mark.parametrize("domain", [
        PlanarCurve.ellipse(1.2, 0.8, 256),
        AnalyticDomain.slab(1.0, dim=2),
        AnalyticDomain.disk(1.0),
    ], ids=["polygon", "slab", "disk"])
    def test_unknown_beta_spec_rejected(self, domain):
        for spec in ("radial", ("radial", 0.5), "file:beta.txt"):
            with pytest.raises(collapse.CollapseError):
                collapse.boundary_beta_integral(domain, (0.0, 0.0), 1.0, spec)
            with pytest.raises(collapse.CollapseError):
                collapse.ratio_scan(domain, [(0.0, 0.0)], [1.0], beta_spec=spec)

    def test_partial_sphere_not_implemented(self):
        ball = AnalyticDomain.ball(2.0, dim=3)
        with pytest.raises(collapse.CollapseError):
            collapse.boundary_beta_integral(ball, (0.0, 0.0, 0.0), 1.0, "mean_curvature")


class TestRatioScan:
    def test_disk_ratio_saturates_and_decays(self):
        c = PlanarCurve.circle(1.0, 2048)
        radii = [0.5, 1.0, 2.0, 4.0, 8.0]
        scan = collapse.ratio_scan(c, [(0.0, 0.0)], radii)
        ratios = scan.column("ratio")
        assert ratios[0] == pytest.approx(np.pi, rel=1e-4)
        assert ratios[-1] == pytest.approx(np.pi / 64, rel=1e-4)
        assert scan.collapsed_trend
        assert scan.dim == 2

    def test_empty_half_ball_flagged(self):
        c = PlanarCurve.circle(1.0, 512)
        scan = collapse.ratio_scan(c, [(10.0, 0.0)], [1.0, 2.0, 4.0])
        assert scan.rows[0]["empty_half_ball"]
        assert scan.rows[0]["c1"] == np.inf
        assert not scan.collapsed_trend

    def test_columns_present(self):
        c = PlanarCurve.circle(1.0, 512)
        scan = collapse.ratio_scan(c, [(0.0, 0.0)], [1.0, 2.0, 4.0])
        for name in collapse.RatioScan.COLUMNS:
            assert len(scan.column(name)) == 3

    def test_dyadic_scan_reuses_each_half_ball(self, monkeypatch):
        calls = []
        volume = collapse.ball_intersection_volume

        def counted(*args):
            calls.append(args[2])
            return volume(*args)

        # the scan looks the kernel up by its module name, so wrappers see it
        monkeypatch.setattr(collapse, "ball_intersection_volume", counted)
        slab = AnalyticDomain.slab(1.0, dim=2)
        radii = [4.0 * 2.0**k for k in range(8)]
        scan = collapse.ratio_scan(slab, [(0.0, 0.0)], radii, budget=10**4, seed=3)
        assert scan.meta["volumes_evaluated"] == 9 == len(calls)
        assert scan.meta["volumes_reused"] == 7
        v_half, v_full = scan.column("V_half"), scan.column("V_full")
        assert np.array_equal(v_half[1:], v_full[:-1])

    def test_moving_centers_reuse_nothing(self):
        gr = AnalyticDomain.grim_reaper_2d()
        radii = [2.0, 4.0, 8.0]
        centers = [(0.0, r * r) for r in radii]  # the grim_reaper_schedule
        scan = collapse.ratio_scan(gr, centers, radii, budget=10**4)
        assert scan.meta["volumes_evaluated"] == 6
        assert scan.meta["volumes_reused"] == 0

    def test_input_validation(self):
        c = PlanarCurve.circle(1.0, 64)
        with pytest.raises(collapse.CollapseError):
            collapse.ratio_scan(c, [], [1.0])
        with pytest.raises(collapse.CollapseError):
            collapse.ratio_scan(c, [(0, 0), (1, 0)], [1.0, 2.0, 3.0])


class TestShrinkingSphere:
    def test_reference_value(self):
        # n = 2, s = -1/4, r = 2: rho = 1, ratio = n(n+1) r^2/rho^2 = 24
        assert collapse.shrinking_sphere_ratio(2, -0.25, 2.0) == pytest.approx(24.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rate_constant(self, n):
        # ratio = -(n+1) r^2 / (2 s) once B_{r/2} contains the sphere
        s, r = -0.01, 2.0
        out = collapse.shrinking_sphere_ratio(n, s, r)
        assert out == pytest.approx(-(n + 1) * r**2 / (2 * s), rel=1e-12)

    def test_nonnegative_time_rejected(self):
        with pytest.raises(collapse.CollapseError):
            collapse.shrinking_sphere_ratio(2, 0.0, 1.0)

    def test_ball_missing_sphere(self):
        assert collapse.shrinking_sphere_ratio(2, -10.0, 0.1) == 0.0
