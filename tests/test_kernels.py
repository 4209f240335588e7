"""The indexed meshing and geometry kernels against their dense oracles.

The fast kernels only skip (point, segment) pairs that cannot matter, and
compute every remaining pair with the dense arithmetic, so they must agree
with ``tests/oracles.py`` bit for bit, and so must the meshes built on them.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from entropylab import meshing
from entropylab.geometry import GeometryError, PlanarCurve
from entropylab.meshing import triangulate


def _star_polygon(rng, m, grid):
    """Random star-shaped CCW polygon; with ``grid`` vertices snap to 1/grid."""
    gaps = rng.uniform(0.2, 1.0, m)
    th = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    r = rng.uniform(0.2, 2.0, m)
    v = np.column_stack([r * np.cos(th), r * np.sin(th)]) + rng.uniform(-3, 3, 2)
    if grid:
        v = np.round(v * grid) / grid
        v = v[np.any(v != np.roll(v, 1, axis=0), axis=1)]
    try:
        return PlanarCurve(v, check_embedded=False)
    except GeometryError:
        return None


def _queries(rng, curve):
    """Random points plus the awkward ones: vertex y-values, vertices, outside."""
    v = curve.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    span = hi - lo
    pts = [rng.uniform(lo - 0.5 * span, hi + 0.5 * span, (400, 2)), v]
    on_vertex_y = np.column_stack(
        [rng.uniform(lo[0] - 0.1, hi[0] + 0.1, len(v)), v[:, 1]]
    )
    pts.append(on_vertex_y)
    pts.append(np.array([[lo[0] - 1.0, lo[1] - 1.0], [hi[0] + 1.0, hi[1] + 1.0],
                         [0.5 * (lo[0] + hi[0]), hi[1]], [0.5 * (lo[0] + hi[0]), lo[1]],
                         [lo[0] - 5.0, 0.5 * (lo[1] + hi[1])]]))
    return np.vstack(pts)


@pytest.fixture(scope="module")
def small_mesh():
    return triangulate(PlanarCurve.circle(1.0, 64), 0.2)


polygons = dict(m=st.integers(3, 80), seed=st.integers(0, 2**32 - 1),
                grid=st.sampled_from([0, 4, 16]))


class TestAgainstOracles:
    @given(**polygons)
    @settings(max_examples=150, deadline=None)
    def test_contains_points(self, m, seed, grid):
        rng = np.random.default_rng(seed)
        curve = _star_polygon(rng, m, grid)
        assume(curve is not None)
        pts = _queries(rng, curve)
        assert np.array_equal(curve.contains_points(pts),
                              oracles.contains_points(curve, pts))

    @given(**polygons, cutoff=st.floats(1e-3, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_polyline_distance(self, m, seed, grid, cutoff):
        rng = np.random.default_rng(seed)
        curve = _star_polygon(rng, m, grid)
        assume(curve is not None)
        pts = _queries(rng, curve)
        loop = curve.vertices
        dense = oracles.points_polyline_distance(pts, loop)
        # a query point exactly at the cutoff must come back as +inf
        at_cutoff = float(dense[np.argmax(dense > 0)])
        for c in (cutoff, at_cutoff):
            fast = meshing._points_polyline_distance(pts, loop, c)
            assert np.array_equal(fast, oracles.points_polyline_distance_below(pts, loop, c))
        assert np.isinf(meshing._points_polyline_distance(pts, loop, at_cutoff)[
            np.argmax(dense > 0)])

    @given(seed=st.integers(0, 2**32 - 1), n_drop=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_lost_boundary_edges(self, small_mesh, seed, n_drop):
        mesh = small_mesh
        rng = np.random.default_rng(seed)
        keep = np.ones(len(mesh.triangles), dtype=bool)
        keep[rng.choice(len(mesh.triangles), n_drop, replace=False)] = False
        tris = mesh.triangles[keep]
        assert np.array_equal(
            meshing._lost_boundary_edges(tris, mesh.n_boundary, mesh.n_vertices),
            oracles.lost_boundary_edges(tris, mesh.n_boundary),
        )

    def test_empty_inputs(self):
        loop = PlanarCurve.circle(1.0, 16).vertices
        assert meshing._points_polyline_distance(np.empty((0, 2)), loop, 0.1).shape == (0,)
        assert np.all(np.isinf(
            meshing._points_polyline_distance(np.array([[0.0, 0.0]]), loop, 0.5)))


def _trefoil(m=512):
    th = 2 * np.pi * np.arange(m) / m
    r = 1 + 0.15 * np.cos(3 * th)
    return PlanarCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))


@pytest.mark.parametrize(
    "curve,h",
    [
        (PlanarCurve.circle(1.0, 512), 0.05),
        (PlanarCurve.ellipse(1.2, 0.8, 384), 0.04),
        (PlanarCurve.rectangle(0.0, 0.0, 2.0, 1.0), 0.05),
        (_trefoil(), 0.05),
    ],
    ids=["disk", "ellipse", "corner_rectangle", "trefoil"],
)
def test_triangulate_identical_with_oracles(monkeypatch, curve, h):
    fast = triangulate(curve, h)
    monkeypatch.setattr(meshing, "_points_polyline_distance",
                        oracles.points_polyline_distance_below)
    monkeypatch.setattr(meshing, "_lost_boundary_edges", oracles.lost_boundary_edges)
    monkeypatch.setattr(PlanarCurve, "contains_points", oracles.contains_points)
    dense = triangulate(curve, h)
    assert fast.n_boundary == dense.n_boundary
    assert fast.h == dense.h
    for name in ("vertices", "triangles", "boundary_param"):
        a, b = getattr(fast, name), getattr(dense, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
