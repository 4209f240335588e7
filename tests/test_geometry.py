import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropylab.geometry import (
    AnalyticDomain,
    GeometryError,
    PlanarCurve,
    load_domain,
)
from oracles import ellipse_curvature, segments_intersect


class TestPlanarCurveBasics:
    def test_circle_area_and_length(self):
        c = PlanarCurve.circle(2.0, 1024)
        assert c.enclosed_area() == pytest.approx(np.pi * 4.0, rel=1e-4)
        assert c.arc_length() == pytest.approx(4.0 * np.pi, rel=1e-4)

    def test_ccw_orientation(self):
        c = PlanarCurve.circle(1.0, 64)
        assert c.ccw
        cw = PlanarCurve(c.vertices[::-1], check_embedded=False)
        assert not cw.ccw

    def test_closed_input_duplicate_endpoint_dropped(self):
        v = PlanarCurve.circle(1.0, 32).vertices
        closed = np.vstack([v, v[:1]])
        c = PlanarCurve(closed)
        assert len(c) == 32

    def test_distinct_last_vertex_kept_far_from_origin(self):
        # the last vertex is within a relative tolerance of the first here,
        # but it is a distinct vertex
        c = PlanarCurve.circle(0.2, 512, center=(500.0, 500.0))
        assert len(c) == 512

    def test_rejects_degenerate(self):
        with pytest.raises(GeometryError):
            PlanarCurve(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(GeometryError):
            PlanarCurve(np.array([[0, 0], [1, 0], [1, 0], [0, 1]], dtype=float))

    def test_rejects_self_intersection(self):
        bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
        with pytest.raises(GeometryError):
            PlanarCurve(bowtie)


class TestDifferentialQuantities:
    def test_circle_curvature_constant(self):
        R = 1.7
        c = PlanarCurve.circle(R, 512)
        kappa = c.curvature()
        assert np.allclose(kappa, 1.0 / R, rtol=1e-4)

    def test_gauss_bonnet_exact(self):
        # sum of turning angles is exactly 2 pi for any embedded closed curve
        rng = np.random.default_rng(3)
        th = np.sort(rng.uniform(0, 2 * np.pi, 40))
        r = 1.0 + 0.3 * np.cos(3 * th)
        c = PlanarCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))
        assert c.turning_angles().sum() == pytest.approx(2 * np.pi, abs=1e-12)

    def test_outward_normal_radial_on_circle(self):
        c = PlanarCurve.circle(3.0, 256)
        nu = c.outward_normal()
        radial = c.vertices / np.linalg.norm(c.vertices, axis=1)[:, None]
        assert np.allclose(nu, radial, atol=1e-3)

    def test_normal_tangent_orthogonal(self):
        c = PlanarCurve.ellipse(1.3, 0.6, 128)
        dots = np.einsum("ij,ij->i", c.outward_normal(), c.unit_tangent())
        assert np.abs(dots).max() < 1e-14

    def test_tangential_gradient_exact_on_linear_in_s(self):
        # f = sin(s * 2pi / L) has known derivative; check O(h^2) accuracy
        c = PlanarCurve.circle(1.0, 256)
        s = np.concatenate([[0.0], np.cumsum(c.edge_lengths()[:-1])])
        L = c.arc_length()
        f = np.sin(2 * np.pi * s / L)
        df = c.tangential_gradient(f)
        exact = 2 * np.pi / L * np.cos(2 * np.pi * s / L)
        assert np.abs(df - exact).max() < 1e-3

    def test_vertex_weights_sum_to_length(self):
        c = PlanarCurve.ellipse(1.2, 0.8, 200)
        assert c.vertex_weights().sum() == pytest.approx(c.arc_length(), rel=1e-14)


class TestContainment:
    def test_contains_points_circle(self):
        c = PlanarCurve.circle(1.0, 128)
        pts = np.array([[0, 0], [0.5, 0.5], [1.5, 0.0], [0.0, -0.99]])
        assert list(c.contains_points(pts)) == [True, True, False, True]

    @given(
        cx=st.floats(-5, 5),
        cy=st.floats(-5, 5),
        r=st.floats(0.1, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_contains_center_always(self, cx, cy, r):
        c = PlanarCurve.circle(r, 64, center=(cx, cy))
        assert c.contains_points([[cx, cy]])[0]

    def test_segments_intersect(self):
        p1 = np.array([[0.0, 0.0]])
        p2 = np.array([[1.0, 1.0]])
        q1 = np.array([[0.0, 1.0]])
        q2 = np.array([[1.0, 0.0]])
        assert segments_intersect(p1, p2, q1, q2)[0]
        assert not segments_intersect(p1, p2, q1 + 5, q2 + 5)[0]


class TestAnalyticDomain:
    def test_membership_variants(self):
        assert AnalyticDomain.disk(1.0).contains([[0.5, 0.0]])[0]
        assert not AnalyticDomain.disk(1.0).contains([[1.5, 0.0]])[0]
        assert AnalyticDomain.slab(1.0).contains([[100.0, 0.5]])[0]
        assert not AnalyticDomain.slab(1.0).contains([[0.0, 1.5]])[0]
        assert AnalyticDomain.half_plane(0.0).contains([[3.0, -1.0]])[0]
        assert AnalyticDomain.catenoid_3d().contains([[2.0, 0.0, 0.1]])[0]
        assert not AnalyticDomain.catenoid_3d().contains([[0.5, 0.0, 0.0]])[0]

    def test_grim_reaper_region(self):
        g = AnalyticDomain.grim_reaper_2d()
        # boundary curve is x2 = -log cos(x1); region lies above it
        assert g.contains([[0.0, 1.0]])[0]
        assert not g.contains([[0.0, -0.5]])[0]
        assert not g.contains([[2.0, 5.0]])[0]

    def test_ellipse_boundary_H_matches_polyline(self):
        dom = AnalyticDomain.ellipse(1.2, 0.8)
        curve = dom.boundary_curve(4096)
        i = 117
        analytic = ellipse_curvature(1.2, 0.8, curve.vertices[i])
        assert curve.curvature()[i] == pytest.approx(analytic, rel=1e-4)

    def test_positive_size_required(self):
        with pytest.raises(GeometryError):
            AnalyticDomain.disk(-1.0)
        with pytest.raises(GeometryError):
            AnalyticDomain.ellipse(1.0, 0.0)

    @pytest.mark.parametrize("variant,params", [
        ("slab", (1.0, 0)), ("slab", (1.0, 2.5)), ("ball", (np.inf, 3)),
        ("grim_reaper_product", (0,)), ("half_plane", (np.nan,)),
        ("disk", (1.0, 0.5)), ("disk", (1.0, np.inf, 0.0)), ("slab", ("1", 2)),
        ("slab", (1.0, True)), ("grim_reaper_2d", (1.0,)), ("torus", ()),
    ])
    def test_parameter_rules(self, variant, params):
        with pytest.raises(GeometryError):
            AnalyticDomain(variant, params)

    def test_counts_stored_as_int(self):
        d = AnalyticDomain.slab(1, 3.0)
        assert d.params == (1.0, 3)
        assert [type(p) for p in d.params] == [float, int]
        assert AnalyticDomain.half_plane(-2).params == (-2.0,)

    def test_dim(self):
        assert AnalyticDomain.disk(1.0).dim == 2
        assert AnalyticDomain.ball(1.0, 3).dim == 3
        assert AnalyticDomain.catenoid_3d().dim == 3
        assert AnalyticDomain.grim_reaper_product(2).dim == 3


class TestLoadDomain:
    def test_polyline_round_trip(self, tmp_path):
        c = PlanarCurve.circle(1.0, 32)
        p = tmp_path / "c.json"
        p.write_text(
            '{"type": "polyline", "vertices": %s}'
            % np.round(c.vertices, 12).tolist()
        )
        loaded = load_domain(str(p))
        assert isinstance(loaded, PlanarCurve)
        assert len(loaded) == 32

    def test_analytic_from_dict(self):
        d = load_domain({"type": "analytic", "variant": "slab", "params": {"d": 1.0}})
        assert isinstance(d, AnalyticDomain)
        assert d.variant == "slab"

    def test_unknown_type_rejected(self):
        with pytest.raises((GeometryError, KeyError, ValueError)):
            load_domain({"type": "voxels"})
