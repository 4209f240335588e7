"""Dense reference implementations of the meshing and geometry kernels.

Each is the straightforward O(N * m) form of a kernel the library computes
with a spatial index; tests require the fast kernels to agree bit for bit.
"""

import numpy as np


def points_polyline_distance(points, loop, chunk=4096):
    """Min distance from each point to the closed polyline through ``loop``."""
    p1 = loop
    p2 = np.roll(loop, -1, axis=0)
    d = p2 - p1
    dd = np.sum(d * d, axis=1)
    out = np.empty(len(points))
    for lo in range(0, len(points), chunk):
        q = points[lo : lo + chunk]
        w = q[:, None, :] - p1[None, :, :]
        t = np.clip(np.einsum("ijk,jk->ij", w, d) / dd[None, :], 0.0, 1.0)
        proj = p1[None, :, :] + t[:, :, None] * d[None, :, :]
        dist = np.linalg.norm(q[:, None, :] - proj, axis=2)
        out[lo : lo + chunk] = dist.min(axis=1)
    return out


def points_polyline_distance_below(points, loop, cutoff):
    """The dense distance where below ``cutoff``, +inf elsewhere."""
    d = points_polyline_distance(points, loop)
    return np.where(d < cutoff, d, np.inf)


def contains_points(curve, points):
    """Even-odd crossing test of every point against every edge."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = curve.vertices
    w = np.roll(v, -1, axis=0)
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    x1, y1 = v[:, 0][None, :], v[:, 1][None, :]
    x2, y2 = w[:, 0][None, :], w[:, 1][None, :]
    cond = (y1 <= y) != (y2 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    crossings = np.sum(cond & (x < xs), axis=1)
    return crossings % 2 == 1


def lost_boundary_edges(simplices, nb, n_vertices=None):
    """Boundary edges (i, i+1 mod nb) missing from the triangles, by set lookup.

    ``n_vertices`` is unused; it matches the signature of the fast kernel.
    """
    edges = set()
    for t in simplices:
        for i in range(3):
            edges.add(frozenset((int(t[i]), int(t[(i + 1) % 3]))))
    return np.array(
        [i for i in range(nb) if frozenset((i, (i + 1) % nb)) not in edges],
        dtype=np.intp,
    )
