import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entropylab import meshing
from entropylab.geometry import PlanarCurve
from entropylab.meshing import (
    MeshQualityError,
    refine_boundary,
    triangulate,
)


@pytest.fixture(scope="module")
def disk_mesh():
    return triangulate(PlanarCurve.circle(1.0, 256), 0.06)


class TestTriangulate:
    def test_area_matches_polygon(self, disk_mesh):
        poly = PlanarCurve(
            disk_mesh.vertices[: disk_mesh.n_boundary], check_embedded=False
        )
        assert disk_mesh.area() == pytest.approx(poly.enclosed_area(), rel=1e-12)

    def test_quality_guarantee(self, disk_mesh):
        assert disk_mesh.min_angle_deg() >= 20.0

    def test_boundary_vertices_first_and_ordered(self, disk_mesh):
        nb = disk_mesh.n_boundary
        bv = disk_mesh.vertices[:nb]
        # consecutive boundary vertices are adjacent on the circle
        ang = np.unwrap(np.arctan2(bv[:, 1], bv[:, 0]))
        assert np.all(np.diff(ang) > 0)

    def test_boundary_edges_conforming(self, disk_mesh):
        edges = set()
        for t in disk_mesh.triangles:
            for i in range(3):
                edges.add(frozenset((t[i], t[(i + 1) % 3])))
        nb = disk_mesh.n_boundary
        for i in range(nb):
            assert frozenset((i, (i + 1) % nb)) in edges

    def test_triangles_ccw(self, disk_mesh):
        assert np.all(disk_mesh.triangle_areas() > 0)

    def test_cw_curve_rejected(self):
        c = PlanarCurve.circle(1.0, 64)
        cw = PlanarCurve(c.vertices[::-1], check_embedded=False)
        with pytest.raises(Exception):
            triangulate(cw, 0.1)

    def test_ellipse_and_rectangle_mesh(self):
        m1 = triangulate(PlanarCurve.ellipse(1.2, 0.8, 256), 0.08)
        assert m1.min_angle_deg() >= 20.0
        m2 = triangulate(PlanarCurve.rectangle(0.0, 0.0, 2.0, 1.0, 32), 0.1)
        assert m2.area() == pytest.approx(2.0, rel=1e-12)


class TestRefineBoundary:
    def test_target_spacing(self):
        c = PlanarCurve.circle(1.0, 1000)
        pts, params = refine_boundary(c, 0.1)
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        assert abs(seg.mean() - 0.1) / 0.1 < 0.05
        assert len(pts) == len(params)

    def test_coarsens_fine_input(self):
        c = PlanarCurve.circle(1.0, 4096)
        pts, _ = refine_boundary(c, 0.1)
        assert len(pts) < 100

    def test_corners_preserved(self):
        c = PlanarCurve.rectangle(0.0, 0.0, 1.0, 1.0, 64)
        pts, _ = refine_boundary(c, 0.13)
        for corner in [(0, 0), (1, 0), (1, 1), (0, 1)]:
            d = np.linalg.norm(pts - np.asarray(corner, dtype=float), axis=1)
            assert d.min() < 1e-12

    def test_params_map_back_to_curve(self):
        c = PlanarCurve.circle(1.0, 128)
        pts, params = refine_boundary(c, 0.2)
        i0 = np.floor(params).astype(int) % 128
        frac = params - np.floor(params)
        recon = c.vertices[i0] * (1 - frac[:, None]) + c.vertices[
            (i0 + 1) % 128
        ] * frac[:, None]
        assert np.allclose(recon, pts, atol=1e-12)


class TestTriMesh:
    def test_with_vertices_shares_connectivity(self, disk_mesh):
        scaled = disk_mesh.with_vertices(disk_mesh.vertices * 2.0)
        assert scaled.triangles is disk_mesh.triangles
        assert scaled.area() == pytest.approx(4.0 * disk_mesh.area(), rel=1e-12)

    def test_with_vertices_rejects_inverted(self, disk_mesh):
        bad = disk_mesh.vertices.copy()
        bad[disk_mesh.n_boundary] = bad[disk_mesh.n_boundary + 1] + 1e-16
        with pytest.raises(MeshQualityError):
            disk_mesh.with_vertices(bad)

    def test_interior_distance_to_boundary(self, disk_mesh):
        cutoff = 0.2
        d = disk_mesh.interior_distance_to_boundary(cutoff)
        assert np.all(d[: disk_mesh.n_boundary] == 0.0)
        r = np.linalg.norm(disk_mesh.vertices, axis=1)
        interior = slice(disk_mesh.n_boundary, None)
        d, depth = d[interior], 1.0 - r[interior]
        near = d < cutoff
        assert near.any() and (~near).any()
        assert np.allclose(d[near], depth[near], atol=5e-3)
        assert np.all(np.isinf(d[~near]))
        assert np.all(depth[~near] >= cutoff - 5e-3)


def _star(m, k, amp, phase, wobble=0.05, scale=1.0):
    """Counter-clockwise polygon r = scale (1 + amp cos(k th + phase) + wobble sin 3 th)."""
    th = 2 * np.pi * np.arange(m) / m
    r = scale * (1 + amp * np.cos(k * th + phase) + wobble * np.sin(3 * th))
    return PlanarCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))


def _outcome(fn, curve, h):
    try:
        return fn(curve, h)
    except (MeshQualityError, ValueError) as err:
        return err


def _assert_same_outcome(curve, h):
    fast = _outcome(triangulate, curve, h)
    ref = _outcome(oracles.triangulate_whole_mesh, curve, h)
    if isinstance(ref, Exception):
        assert type(fast) is type(ref) and str(fast) == str(ref)
        return
    assert not isinstance(fast, Exception), fast
    assert fast.n_boundary == ref.n_boundary
    for name in ("vertices", "triangles", "h", "boundary_param"):
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), name


WHOLE_MESH_CASES = {
    "disk_h0.02": (PlanarCurve.circle(1.0, 512), 0.02),
    "disk_h0.03": (PlanarCurve.circle(1.0, 512), 0.03),
    "small_disk_h0.05": (PlanarCurve.circle(0.7, 512), 0.05),
    "disk_h0.08": (PlanarCurve.circle(1.0, 512), 0.08),
    "ellipse_h0.03": (PlanarCurve.ellipse(1.2, 0.8, 512), 0.03),
    "ellipse_h0.05": (PlanarCurve.ellipse(1.2, 0.8, 384), 0.05),
    "thin_ellipse_h0.08": (PlanarCurve.ellipse(2.0, 0.5, 512), 0.08),
    "trefoil_h0.02": (_star(512, 3, 0.15, 0.0, wobble=0.0), 0.02),
    "trefoil_h0.05": (_star(512, 3, 0.15, 0.0, wobble=0.0), 0.05),
    "star_h0.08": (_star(64, 3, 0.3, 0.0), 0.08),
    # the three ways a mesh attempt fails, each on all six attempts
    "star_degenerate": (_star(64, 3, 0.3, 0.0), 0.05),
    "star_lost_edge": (_star(64, 3, 0.4, 0.0), 0.08),
    "star_min_angle": (_star(200, 5, 0.4, 0.0), 0.08),
}


@pytest.mark.parametrize("curve, h", WHOLE_MESH_CASES.values(), ids=WHOLE_MESH_CASES)
def test_restricted_passes_give_the_whole_mesh_result(curve, h):
    _assert_same_outcome(curve, h)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(48, 256),
    k=st.integers(2, 6),
    amp=st.floats(0.0, 0.4),
    phase=st.floats(0.0, 2 * np.pi),
    wobble=st.floats(0.0, 0.1),
    scale=st.floats(0.3, 1.0),
    h=st.sampled_from([0.02, 0.03, 0.05, 0.08]),
)
def test_restricted_passes_on_random_stars(m, k, amp, phase, wobble, scale, h):
    # the star grows with h, so no mesh has more than about 400 vertices
    _assert_same_outcome(_star(m, k, amp, phase, wobble, scale * h / 0.08), h)


@pytest.mark.parametrize("seed", range(4))
def test_delaunay_quads_from_qhull_neighbours(seed):
    rng = np.random.default_rng(seed)
    # random points, a hex lattice and the lattice jittered by 1e-9
    pts = [rng.random((300, 2)), meshing._hex_lattice(((0, 0), (1, 1)), 0.1)]
    for p in pts + [pts[1] + 1e-9 * rng.standard_normal(pts[1].shape)]:
        tris, quads = meshing._delaunay(p)
        ref_tris, ref_quads = oracles.delaunay_half_edges(p)
        assert np.array_equal(tris, ref_tris) and np.array_equal(quads, ref_quads)
        assert quads.dtype == ref_quads.dtype
