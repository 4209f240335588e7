"""Triangulation of the region enclosed by a planar curve.

Deterministic unstructured meshing: the boundary polyline is refined to the
target edge length, interior points are seeded on a hexagonal lattice,
relaxed by a few Lloyd-style smoothing sweeps and triangulated with a
Delaunay kernel.  Each attempt calls Qhull once; the later sweeps and the
final triangulation keep its triangles while a test with margins far past
its rounding error shows they are still the Delaunay triangulation of the
moved points, and call Qhull again when it does not.  Triangles are stored
in a canonical order, so the mesh does not depend on which of the two
supplied them.  Boundary vertices keep a map back to the generating curve
(fractional index along the source polyline) so that fields given per curve
vertex can be transferred to the mesh boundary.

The passes after seeding skip the points and triangles whose result is
already fixed, and give the mesh of whole-mesh passes bit for bit (see
``triangulate``): the quads come from Qhull's neighbours, a smoothing sweep
tests only the moved points that could fail, and the centroid and
conformity tests read only triangles with boundary vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .geometry import GeometryError, PlanarCurve


MIN_ANGLE = 20.0  # degrees; smaller angles fail the mesh attempt
SMOOTHING_SWEEPS = 4  # Laplacian smoothing sweeps of the first attempt
# Largest hex lattice a mesh attempt seeds (16 MB of coordinates): about 110
# times the vertices of a 9k-vertex mesh of the unit disk at h 0.02.  At
# h 1e-4 that disk's lattice has 4.6e8 points, whose coordinates alone
# exhaust a host's memory before meshing could fail, so it is refused first.
MAX_LATTICE_POINTS = 10**6


class MeshQualityError(RuntimeError):
    """Raised when the requested mesh quality is unreachable."""


@dataclass
class TriMesh:
    """Conforming P1 triangulation of a polygonal domain.

    Boundary vertices come first (indices 0..n_boundary-1) and form a single
    closed loop in order.  ``boundary_param`` holds the fractional index of
    each boundary vertex along the generating curve.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    n_boundary: int
    boundary_param: np.ndarray
    h: float

    def __post_init__(self):
        areas = self.triangle_areas()
        if np.any(areas <= 1e-14):
            raise MeshQualityError("degenerate triangle (area <= 1e-14)")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def boundary_curve(self) -> PlanarCurve:
        return PlanarCurve(self.vertices[: self.n_boundary], check_embedded=False)

    def triangle_areas(self) -> np.ndarray:
        t1, t2 = _orientation_terms(self.vertices, self.triangles)
        return 0.5 * (t1 - t2)

    def area(self) -> float:
        return float(self.triangle_areas().sum())

    def min_angle_deg(self) -> float:
        return float(np.degrees(_triangle_min_angles(self.vertices, self.triangles).min()))

    def with_vertices(self, new_vertices: np.ndarray) -> "TriMesh":
        """Same connectivity on moved vertices (moving-domain use)."""
        return TriMesh(
            np.asarray(new_vertices, dtype=float),
            self.triangles,
            self.n_boundary,
            self.boundary_param,
            self.h,
        )

    def interior_distance_to_boundary(self, cutoff: float) -> np.ndarray:
        """Per-vertex distance to the boundary polyline, 0 on the boundary.

        Exact where it is below ``cutoff`` and +inf elsewhere, so it answers
        ``distance >= c`` exactly for every c <= cutoff.
        """
        d = _points_polyline_distance(
            self.vertices, self.vertices[: self.n_boundary], cutoff
        )
        d[: self.n_boundary] = 0.0
        return d


def _orientation_terms(v, t):
    """The two products whose difference is twice each triangle's signed area."""
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]), (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )


def _triangle_min_angles(v, t):
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    la = np.linalg.norm(c - b, axis=1)
    lb = np.linalg.norm(a - c, axis=1)
    lc = np.linalg.norm(b - a, axis=1)

    def ang(opp, s1, s2):
        cosv = (s1**2 + s2**2 - opp**2) / (2 * s1 * s2)
        return np.arccos(np.clip(cosv, -1.0, 1.0))

    return np.minimum.reduce([ang(la, lb, lc), ang(lb, lc, la), ang(lc, la, lb)])


def _points_polyline_distance(points, loop, cutoff: float) -> np.ndarray:
    """Distance from each point to the closed polyline through ``loop``.

    Exact where it is below ``cutoff`` and +inf elsewhere.  Only segments
    whose midpoint lies within cutoff + half the longest segment of a point
    are measured, so the cost is near-linear when the cutoff is of the order
    of the segment length.  The pairs come from the segments' side: a
    kd-tree on the points is ball-queried from the m segment midpoints, and
    the pairs are stably sorted by point.  Each (point, segment) pair uses
    the clip-and-project formula of a dense scan, so the result is
    bit-identical to the dense minimum wherever that is below the cutoff.
    """
    points = np.asarray(points, dtype=float)
    p1 = loop
    d = np.roll(loop, -1, axis=0) - p1
    dd = np.sum(d * d, axis=1)
    out = np.full(len(points), np.inf)
    if not len(points):
        return out
    # the slack keeps pairs whose rounded distance is just below the cutoff
    radius = (cutoff + 0.5 * np.sqrt(dd.max())) * (1.0 + 1e-9) + 1e-12 * (
        1.0 + np.abs(loop).max()
    )
    near = cKDTree(points).query_ball_point(p1 + 0.5 * d, radius, return_sorted=False)
    per_segment = np.fromiter(map(len, near), dtype=np.intp, count=len(p1))
    if not per_segment.any():
        return out
    i = np.concatenate(near[per_segment > 0]).astype(np.intp)
    order = np.argsort(i, kind="stable")
    i = i[order]
    j = np.repeat(np.arange(len(p1)), per_segment)[order]
    counts = np.bincount(i, minlength=len(points))
    q, a, dj = points[i], p1[j], d[j]
    t = np.clip(np.einsum("ik,ik->i", q - a, dj) / dd[j], 0.0, 1.0)
    dist = np.linalg.norm(q - (a + t[:, None] * dj), axis=1)
    hit = counts > 0
    best = np.minimum.reduceat(dist, (np.cumsum(counts) - counts)[hit])
    out[hit] = np.where(best < cutoff, best, np.inf)
    return out


def _lost_boundary_edges(simplices, nb: int, n_vertices: int) -> np.ndarray:
    """Ascending indices i of boundary edges (i, i+1 mod nb) no triangle has.

    Only triangles with two or more boundary vertices can hold a boundary
    edge, so only they are read.  Edges are compared as sorted int64 keys
    min * n_vertices + max.
    """
    a = simplices[np.count_nonzero(simplices < nb, axis=1) >= 2].astype(np.int64)
    b = np.roll(a, -1, axis=1)
    keys = np.unique(np.minimum(a, b) * n_vertices + np.maximum(a, b))
    i = np.arange(nb, dtype=np.int64)
    j = (i + 1) % nb
    bkeys = np.minimum(i, j) * n_vertices + np.maximum(i, j)
    return np.flatnonzero(~np.isin(bkeys, keys, assume_unique=True))


def _delaunay(pts):
    """Qhull's Delaunay triangles of ``pts`` in canonical form, and their quads.

    Canonical form: each row is counter-clockwise and starts at its smallest
    index, and the rows are sorted.  A mesh built on it depends only on the
    triangle set, so keeping a set that is still Delaunay gives the mesh a
    fresh Qhull call would give, bit for bit.  Each row (a, b, c, d) of the
    quads is an interior edge a-b with its triangles (a, b, c) and (b, a, d),
    one row per edge (a < b), in the order of the half-edges (row, column).
    Qhull's neighbour opposite each vertex is carried through the same
    reorientation, rotation and row sort, so no half-edge has to be matched
    with its twin.  The quads are None when Qhull left a point out, which
    rules out keeping them.
    """
    dt = Delaunay(pts)
    tris, nbrs = dt.simplices, dt.neighbors
    t1, t2 = _orientation_terms(pts, tris)
    flip = t1 - t2 < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    nbrs[flip] = nbrs[flip][:, [0, 2, 1]]
    turn = (tris.argmin(axis=1)[:, None] + np.arange(3)) % 3
    tris = np.take_along_axis(tris, turn, axis=1)
    nbrs = np.take_along_axis(nbrs, turn, axis=1)
    order = np.lexsort(tris.T[::-1])
    tris, nbrs = tris[order], nbrs[order]
    if np.bincount(tris.ravel(), minlength=len(pts)).min() == 0:
        return tris, None
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    e = tris.astype(np.int64)
    a, b, c = e.ravel(), e[:, [1, 2, 0]].ravel(), e[:, [2, 0, 1]].ravel()
    # the edge (a, b) of a half-edge is opposite its c, whose neighbour is the
    # twin triangle; its third vertex is the one not on the edge
    twin = nbrs[:, [2, 0, 1]].ravel()
    half = (a < b) & (twin >= 0)
    a, b, c = a[half], b[half], c[half]
    d = e.sum(axis=1)[rank[twin[half]]] - a - b
    return tris, np.column_stack([a, b, c, d])


def _locally_delaunay(pts, quads) -> np.ndarray:
    """Per quad (a, b, c, d): d lies strictly outside the circle through a, b, c.

    The incircle determinant is evaluated relative to d and must be below
    -1e-10 times its permanent, far past its rounding error (about 1.1e-15
    times the permanent, Shewchuk 1997), so a True holds in exact arithmetic.
    Both are summed over a, b, c in that order from flat coordinate columns.
    """
    x, y = pts[:, 0], pts[:, 1]
    a, b, c, d = quads.T
    ax, ay = x[a] - x[d], y[a] - y[d]
    bx, by = x[b] - x[d], y[b] - y[d]
    cx, cy = x[c] - x[d], y[c] - y[d]
    la, lb, lc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    pa, qa = bx * cy, cx * by
    pb, qb = cx * ay, ax * cy
    pc, qc = ax * by, bx * ay
    det = la * (pa - qa) + lb * (pb - qb) + lc * (pc - qc)
    perm = la * (abs(pa) + abs(qa)) + lb * (abs(pb) + abs(qb)) + lc * (abs(pc) + abs(qc))
    return det < -1e-10 * perm


def _still_delaunay(pts, tris, quads, nb: int, bcurve=None) -> bool:
    """Whether ``tris``, Qhull's triangles for earlier positions, is still the
    Delaunay triangulation of ``pts``, whose vertices nb.. have moved.

    Lawson (1977): a triangulation whose edges are all locally Delaunay is
    the Delaunay triangulation.  Every triangle must stay strictly
    counter-clockwise (1e-12 times its terms, far past rounding), so the
    triangles still tile the hull, which only fixed vertices span.  Every
    interior edge with a moving quad vertex must be strictly locally
    Delaunay.  Quads of boundary vertices alone never moved since Qhull
    made them.  A near-cocircular one may come back from Qhull with the
    other diagonal, which changes no moving vertex's neighbours, so it is
    exempt during the sweeps.  In the final triangulation (``bcurve``
    given), it forces Qhull when a triangle on either diagonal has its
    centroid inside the curve.
    """
    if quads is None:
        return False
    t1, t2 = _orientation_terms(pts, tris)
    if not np.all(t1 - t2 > 1e-12 * (np.abs(t1) + np.abs(t2))):
        return False
    loose = quads[~_locally_delaunay(pts, quads)]
    if np.any(loose >= nb):
        return False
    if bcurve is None or not len(loose):
        return True
    triples = pts[loose][:, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]]
    return not bcurve.contains_points(triples.mean(axis=2).reshape(-1, 2)).any()


def refine_boundary(curve: PlanarCurve, h: float):
    """Resample the curve to uniform arc-length spacing close to h.

    Works in both directions: a finely sampled curve is coarsened so the
    boundary spacing matches the interior target (a large jump in size at the
    boundary ruins triangle quality), and a coarse one is refined.  Corners
    are kept, each section between them sampled on its own; a curve without
    corners keeps its first vertex.  Returns (points, params) with params the
    fractional source-vertex index, for mapping boundary data back to the
    curve.
    """
    v = curve.vertices
    m = len(v)
    seg = curve.edge_lengths()
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]

    # sharp vertices (corners) must survive the resampling
    turn = np.abs(curve.turning_angles())
    corners = np.flatnonzero(turn > np.radians(25.0))
    anchors = corners if len(corners) else np.array([0])

    s_list = []
    for a, b in zip(anchors, np.append(anchors[1:], anchors[0] + m)):
        # the last section closes the curve: past vertex 0 to the first anchor
        sec = (cum[b] if b < m else total + cum[b - m]) - cum[a]
        n = max(1, int(round(sec / h))) if len(corners) else max(8, int(round(sec / h)))
        s_list.append(cum[a] + np.arange(n) * sec / n)
    s = np.concatenate(s_list) % total
    j = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, m - 1)
    frac = (s - cum[j]) / seg[j]
    pts = v[j] * (1 - frac)[:, None] + v[(j + 1) % m] * frac[:, None]
    return pts, j + frac


def _hex_lattice(bbox, h):
    (x0, y0), (x1, y1) = bbox
    dy = h * np.sqrt(3) / 2
    rows = []
    j = 0
    y = y0
    while y <= y1:
        xs = np.arange(x0 + (0.5 * h if j % 2 else 0.0), x1 + 1e-12, h)
        rows.append(np.column_stack([xs, np.full_like(xs, y)]))
        y += dy
        j += 1
    return np.vstack(rows) if rows else np.empty((0, 2))


def triangulate(curve: PlanarCurve, h: float) -> TriMesh:
    """Quality mesh of the region enclosed by ``curve`` with target size h.

    The hex-lattice seeding occasionally beats against the boundary layer for
    unlucky (curve, h) combinations; a few nearby effective sizes are tried
    before giving up, so the quality guarantee (no angle below MIN_ANGLE) is
    kept without making the caller hunt for a good h.

    Each attempt restricts its passes where the result is already known, so
    the mesh, or the error raised, is that of passes over the whole mesh:

    - The quads of an interior edge pair each half-edge with the triangle
      Qhull lists opposite its third vertex, carried through the canonical
      reordering; that is the triangle holding the reversed half-edge.
    - A smoothing sweep keeps a lower bound on each interior point's distance
      to the boundary: exact where last measured (to 2 h_eff), less each step
      since (triangle inequality).  A moved point whose bound minus its step
      is at least 0.5 h_eff, plus a slack far past rounding, is inside and far
      enough from the boundary, so the containment and distance tests, which
      only it could fail, run on the other points alone.
    - Once every boundary edge is a mesh edge, a triangle lies inside or
      outside whole, and one of three interior vertices lies inside, so only
      triangles with a boundary vertex take the centroid test.  If an edge is
      lost, the conformity error is raised as before: it reads only triangles
      with two boundary vertices, which are the only ones holding a boundary
      edge and are classified as before.  The degenerate-triangle check that
      runs first then also sees the triangles of interior vertices outside
      the curve; none of them is flat, as Delaunay triangles of points
      strictly inside the hull.
    """
    last_err = None
    for factor in (1.0, 0.97, 1.03, 0.94, 1.06, 0.91):
        try:
            return _triangulate_once(
                curve, h, h * factor, SMOOTHING_SWEEPS + (factor != 1.0) * 2
            )
        except MeshQualityError as err:
            last_err = err
    raise last_err


def _triangulate_once(
    curve: PlanarCurve,
    h: float,
    h_eff: float,
    smoothing_sweeps: int,
) -> TriMesh:
    if not curve.ccw:
        raise GeometryError("curve must be counter-clockwise")
    # the lattice spans the refined boundary's box, which lies in the curve's
    span = np.ptp(curve.vertices, axis=0) + 4 * h_eff
    n_lattice = (span[0] / h_eff + 1) * (span[1] / (h_eff * np.sqrt(3) / 2) + 1)
    if n_lattice > MAX_LATTICE_POINTS:
        raise GeometryError(
            f"h {h:g} seeds about {n_lattice:.2g} lattice points on this domain, "
            f"more than {MAX_LATTICE_POINTS:.0e}; use a larger h"
        )
    bpts, bparam = refine_boundary(curve, h_eff)
    bcurve = PlanarCurve(bpts, check_embedded=False)
    nb = len(bpts)

    margin = 2 * h_eff
    bbox = (bpts.min(axis=0) - margin, bpts.max(axis=0) + margin)
    cand = _hex_lattice(bbox, h_eff)
    # clear: a lower bound on each interior point's distance to the boundary,
    # exact below ``wide`` (the distances are measured that far)
    wide = 2.0 * h_eff
    clear = np.empty(0)
    if len(cand):
        inside = bcurve.contains_points(cand)
        cand = cand[inside]
        dist = _points_polyline_distance(cand, bpts, wide)
        keep = dist >= 0.65 * h_eff
        cand, clear = cand[keep], np.minimum(dist[keep], wide)
    interior = cand
    # rounding of the distances and steps, far below any distance compared
    slack = 1e-9 * h_eff + 1e-12 * (1.0 + np.abs(bpts).max())

    pts = np.vstack([bpts, interior]) if len(interior) else bpts.copy()

    tris = quads = None
    for sweep in range(smoothing_sweeps):
        if not _still_delaunay(pts, tris, quads, nb):
            tris, quads = _delaunay(pts)
        if len(pts) == nb:
            break
        # average neighbor position per vertex (Laplacian smoothing)
        e0 = tris[:, [0, 1, 2]].ravel()
        e1 = tris[:, [1, 2, 0]].ravel()
        src = np.concatenate([e0, e1])
        nbr = pts[np.concatenate([e1, e0])]
        acc = np.column_stack(
            [np.bincount(src, weights=nbr[:, k], minlength=len(pts)) for k in (0, 1)]
        )
        cnt = np.bincount(src, minlength=len(pts))
        target = acc / np.maximum(cnt, 1.0)[:, None]
        moved = pts.copy()
        moved[nb:] = target[nb:]
        step = np.linalg.norm(moved[nb:] - pts[nb:], axis=1)
        # a point whose bound minus its step clears 0.5 h_eff passes both
        # tests (see ``triangulate``), so only the others take them
        test = np.flatnonzero(clear - step < 0.5 * h_eff + slack)
        q = moved[nb:][test]
        d = _points_polyline_distance(q, bpts, wide)
        ok = bcurve.contains_points(q) & (d >= 0.5 * h_eff)
        bad = test[~ok]
        moved[nb:][bad] = pts[nb:][bad]
        # the triangle inequality carries the bound of an untested point
        clear_tested = np.where(ok, np.minimum(d, wide), clear[test])
        clear -= step
        clear[test] = clear_tested
        pts = moved

    if not _still_delaunay(pts, tris, quads, nb, bcurve):
        tris, quads = _delaunay(pts)
    # a triangle of three interior vertices is inside (see ``triangulate``)
    rim = np.flatnonzero((tris < nb).any(axis=1))
    inside = np.ones(len(tris), dtype=bool)
    inside[rim] = bcurve.contains_points(pts[tris[rim]].mean(axis=1))
    simplices = tris[inside]

    mesh = TriMesh(pts, simplices, nb, bparam, h_eff)

    # conformity: every boundary segment must appear in the triangulation
    lost = _lost_boundary_edges(simplices, nb, len(pts))
    if len(lost):
        i = int(lost[0])
        raise MeshQualityError(
            f"boundary edge ({i}, {(i + 1) % nb}) lost in triangulation"
        )

    angles = np.degrees(_triangle_min_angles(pts, simplices))
    if angles.min() < MIN_ANGLE:
        worst = simplices[int(np.argmin(angles))]
        raise MeshQualityError(
            f"min angle {angles.min():.2f} deg < {MIN_ANGLE} deg "
            f"(worst triangle vertices {pts[worst].tolist()})"
        )
    return mesh
