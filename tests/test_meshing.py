import numpy as np
import pytest

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
        # cached per cutoff
        assert disk_mesh.interior_distance_to_boundary(cutoff) is (
            disk_mesh.interior_distance_to_boundary(cutoff)
        )
