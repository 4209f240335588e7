"""Reference implementations of the library's fast kernels.

The meshing and geometry kernels are the straightforward O(N * m) forms of
kernels the library computes with a spatial index or a sweep; tests require
the fast kernels to give the same answers, bit for bit.  The patch fits and
the moving-mesh matrices are the earlier einsum/COO forms of the harnack
and conjugate kernels; those sum in another order, so tests compare them to
a tolerance.  The moving-mesh substep's solve is the earlier ``spsolve``
from scratch, against which the reused-factor solve is held.  The flow step
is the earlier ``np.roll`` form resampled through scipy's ``CubicSpline``,
and the turning guard the standalone form the flow loop now folds into its
own segment data.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from entropylab import flow


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


def segments_intersect(p1, p2, q1, q2) -> np.ndarray:
    """Vectorized proper-intersection test for segment pairs."""

    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]
        ) * (c[..., 0] - a[..., 0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return (d1 * d2 < 0) & (d3 * d4 < 0)


def is_embedded(vertices) -> bool:
    """No two non-adjacent edges of the closed polyline cross: all O(m^2) pairs."""
    v = np.asarray(vertices, dtype=float)
    m = len(v)
    w = np.roll(v, -1, axis=0)
    i, j = np.triu_indices(m, k=2)
    # segments (m-1, 0) and (0, 1) are adjacent through the wrap-around
    keep = ~((i == 0) & (j == m - 1))
    i, j = i[keep], j[keep]
    return not bool(segments_intersect(v[i], w[i], v[j], w[j]).any())


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


def _monomials(x, y, degree):
    cols = [np.ones_like(x), x, y, x * x, x * y, y * y]
    if degree == 3:
        cols += [x**3, x * x * y, x * y * y, y**3]
    return np.stack(cols, axis=-1)


def poly_fit(mesh, values, centers, degree, keep=None, k=45):
    """Patch fits with a stacked design matrix and einsum normal equations."""
    points = mesh.vertices if keep is None else mesh.vertices[keep]
    k = min(k, len(points))
    d, idx = cKDTree(points).query(centers, k=k)
    if keep is not None:
        idx = keep[idx]
    R = d[:, -1]
    dx = (mesh.vertices[idx] - centers[:, None, :]) / R[:, None, None]
    A = _monomials(dx[..., 0], dx[..., 1], degree)
    AtA = np.einsum("bki,bkj->bij", A, A)
    Atf = np.einsum("bki,bk->bi", A, values[idx])
    return np.linalg.solve(AtA, Atf[..., None])[..., 0], R


def ale_matrices(vertices, triangles, w):
    """K, M and C of the moving-mesh scheme, assembled through COO -> CSR."""
    t = triangles
    n = len(vertices)
    a, b, c = vertices[t[:, 0]], vertices[t[:, 1]], vertices[t[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    areas = 0.5 * det
    grads = np.empty((len(t), 3, 2))
    grads[:, 0, 0] = b[:, 1] - c[:, 1]
    grads[:, 0, 1] = c[:, 0] - b[:, 0]
    grads[:, 1, 0] = c[:, 1] - a[:, 1]
    grads[:, 1, 1] = a[:, 0] - c[:, 0]
    grads[:, 2, 0] = a[:, 1] - b[:, 1]
    grads[:, 2, 1] = b[:, 0] - a[:, 0]
    grads /= det[:, None, None]
    ke = np.einsum("tid,tjd->tij", grads, grads) * areas[:, None, None]
    me = ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None] * areas[:, None, None]
    wt = w[t]
    wj = (wt.sum(axis=1, keepdims=True) + wt) / 12.0
    ce = np.einsum("tid,tjd->tij", grads, wj) * areas[:, None, None]
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    return tuple(
        sp.coo_matrix((e.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        for e in (ke, me, ce)
    )


class DirectSolve:
    """The moving-mesh substep's solve without factor reuse: ``spsolve`` each time.

    It has the interface of ``conjugate._ReusedLU``, so it can stand in for it.
    """

    def __init__(self):
        self.stats = {}

    def solve(self, A, b):
        return spl.spsolve(A, b)


def resample_uniform(vertices):
    """Uniform arc-length resample through scipy's periodic ``CubicSpline``."""
    m = len(vertices)
    closed = np.vstack([vertices, vertices[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    cs = CubicSpline(cum, closed, bc_type="periodic")
    return cs(np.arange(m) * cum[-1] / m)


def _laplacian_weights(x, dt):
    seg = np.linalg.norm(np.roll(x, -1, axis=0) - x, axis=1)
    hm = np.roll(seg, 1)
    w = 0.5 * (seg + hm)
    return dt / (w * hm), dt / (w * seg)


def _apply_lap(x, am, ap):
    return (
        am[:, None] * np.roll(x, 1, axis=0)
        + ap[:, None] * np.roll(x, -1, axis=0)
        - (am + ap)[:, None] * x
    )


def flow_step(x, dt):
    """One midpoint step of x_t = Delta_s x, then the spline resample."""
    am, ap = _laplacian_weights(x, 0.5 * dt)
    x_mid = x + _apply_lap(x, am, ap)
    am, ap = _laplacian_weights(x_mid, dt)
    rhs = x + 0.5 * _apply_lap(x, am, ap)
    new = flow._cyclic_tridiag_solve(-0.5 * am, 1.0 + 0.5 * (am + ap), -0.5 * ap, rhs)
    return resample_uniform(new)


def max_turning_per_length(x):
    """Largest turning angle per unit dual length over the vertices."""
    t = np.roll(x, -1, axis=0) - x
    tp = np.roll(t, -1, axis=0)
    ang = np.abs(np.arctan2(t[:, 0] * tp[:, 1] - t[:, 1] * tp[:, 0], np.sum(t * tp, axis=1)))
    seg = np.linalg.norm(t, axis=1)
    w = 0.5 * (seg + np.roll(seg, -1))
    return float((ang / w).max())
