"""Reference implementations of the library's fast kernels.

The meshing and geometry kernels are the straightforward O(N * m) forms of
kernels the library computes with a spatial index or a sweep, and the
incircle test on stacked gathers that the library evaluates on flat
coordinate columns; tests require the fast kernels to give the same
answers, bit for bit.  So must the Lagrange weights, here formed with
numpy's ``delete`` and ``prod`` where the library multiplies Python
floats.  So must the patch neighbourhoods' distances, here from the full
distance matrix lexsorted by (distance, index); among points at equal
distance the library may keep others.  The patch fits, on the library's
neighbourhoods, and the moving-mesh matrices are the earlier einsum/COO
forms of the harnack and conjugate kernels; those sum in another order, so
tests compare them to a tolerance.  The moving-mesh
substep's solve is the earlier ``spsolve`` from scratch, against which the
reused-factor solve is held, and the snapshot meshes' harmonic extension is
``spsolve`` per displacement component, against which the shared factor's
two-column solve is held bit for bit.  The flow step is the earlier
``np.roll`` form resampled through scipy's ``CubicSpline``, and the turning guard the
standalone form the flow loop now folds into its own segment data.  The
flow's cyclic tridiagonal solve is the Sherman-Morrison form on
``solve_banded``, whose LAPACK call the library makes directly.  The polygon-circle clipping and boundary integral go one
edge and one piece at a time, with the same arithmetic per piece as the
edge-vectorized kernels, and sum their pieces exactly.  At a near tangency
a crossing's parameter is ill-conditioned, so the reference forms each
edge's a.d and discriminant exactly, where the kernels compensate.  The
Monte Carlo volume draws, scales and tests each replicate's points in one
piece, and tests analytic membership by the masked gather and scatter that
the library replaces with one pass over every row.  W_beta in the f form
sums the gradient, potential and boundary terms of a normalized f, where
the library evaluates one energy in the phi = sqrt(u) form.  The ellipse's curvature and the cos^2 cutoff profile
are closed forms that only tests evaluate.  ``triangulate_whole_mesh`` is the
mesh generator with every pass over the whole mesh: quads from matching each
sorted half-edge key with its reverse, the distance and containment tests of
every interior point in every sweep, the centroid test of every triangle and
the conformity test over all triangles; the library restricts each pass to
the points or triangles whose result is not already fixed, and must give the
same mesh, or raise the same error, bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from entropylab import flow, functional, meshing
from entropylab.geometry import GeometryError, PlanarCurve


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


def locally_delaunay(pts, quads):
    """The incircle test of each quad (a, b, c, d) on stacked (n, 3, 2) gathers."""
    x = pts[quads[:, :3]] - pts[quads[:, 3:]]
    lift = np.einsum("ijk,ijk->ij", x, x)
    nxt, prv = x[:, [1, 2, 0]], x[:, [2, 0, 1]]
    p = nxt[..., 0] * prv[..., 1]
    q = prv[..., 0] * nxt[..., 1]
    det = np.sum(lift * (p - q), axis=1)
    return det < -1e-10 * np.sum(lift * (np.abs(p) + np.abs(q)), axis=1)


def lagrange_weights(nodes, t):
    """Lagrange value and derivative weights, one ``np.delete`` per product."""
    x = np.asarray(nodes, dtype=float)
    w, dw = np.empty(len(x)), np.empty(len(x))
    for j in range(len(x)):
        others = np.delete(x, j)
        denom = np.prod(x[j] - others)
        d = t - others
        w[j] = np.prod(d) / denom
        dw[j] = sum(np.prod(np.delete(d, m)) for m in range(len(d))) / denom
    return w, dw


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


def delaunay_half_edges(pts):
    """Canonical Delaunay triangles and quads, the quads by half-edge keys.

    Each half-edge (a, b) is keyed a * n + b and matched with the key of its
    reverse through one argsort; a quad is kept for a < b when the reverse
    exists, and d is the third vertex of the reverse's triangle.
    """
    tris = meshing.Delaunay(pts).simplices
    t1, t2 = meshing._orientation_terms(pts, tris)
    flip = t1 - t2 < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    first = tris.argmin(axis=1)[:, None]
    tris = np.take_along_axis(tris, (first + np.arange(3)) % 3, axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    if np.bincount(tris.ravel(), minlength=len(pts)).min() == 0:
        return tris, None
    e = tris.astype(np.int64)
    a, b, c = e.ravel(), e[:, [1, 2, 0]].ravel(), e[:, [2, 0, 1]].ravel()
    key, rev = a * len(pts) + b, b * len(pts) + a
    order = np.argsort(key)
    twin = order[np.minimum(np.searchsorted(key, rev, sorter=order), len(key) - 1)]
    half = (a < b) & (key[twin] == rev)
    return tris, np.column_stack([a[half], b[half], c[half], c[twin[half]]])


def triangulate_whole_mesh(curve, h):
    """``meshing.triangulate`` with each pass over every point or triangle."""
    last_err = None
    for factor in (1.0, 0.97, 1.03, 0.94, 1.06, 0.91):
        try:
            return _triangulate_once_whole_mesh(
                curve, h, h * factor, meshing.SMOOTHING_SWEEPS + (factor != 1.0) * 2
            )
        except meshing.MeshQualityError as err:
            last_err = err
    raise last_err


def _triangulate_once_whole_mesh(curve, h, h_eff, smoothing_sweeps):
    if not curve.ccw:
        raise GeometryError("curve must be counter-clockwise")
    span = np.ptp(curve.vertices, axis=0) + 4 * h_eff
    n_lattice = (span[0] / h_eff + 1) * (span[1] / (h_eff * np.sqrt(3) / 2) + 1)
    if n_lattice > meshing.MAX_LATTICE_POINTS:
        raise GeometryError(f"h {h:g} seeds about {n_lattice:.2g} lattice points")
    bpts, bparam = meshing.refine_boundary(curve, h_eff)
    bcurve = PlanarCurve(bpts, check_embedded=False)
    nb = len(bpts)
    distance = meshing._points_polyline_distance

    margin = 2 * h_eff
    cand = meshing._hex_lattice((bpts.min(axis=0) - margin, bpts.max(axis=0) + margin),
                                h_eff)
    if len(cand):
        cand = cand[bcurve.contains_points(cand)]
        cand = cand[distance(cand, bpts, 0.65 * h_eff) >= 0.65 * h_eff]
    pts = np.vstack([bpts, cand]) if len(cand) else bpts.copy()

    tris = quads = None
    for _ in range(smoothing_sweeps):
        if not meshing._still_delaunay(pts, tris, quads, nb):
            tris, quads = delaunay_half_edges(pts)
        if len(pts) == nb:
            break
        src = np.concatenate([tris.ravel(), tris[:, [1, 2, 0]].ravel()])
        nbr = pts[np.concatenate([tris[:, [1, 2, 0]].ravel(), tris.ravel()])]
        acc = np.column_stack(
            [np.bincount(src, weights=nbr[:, k], minlength=len(pts)) for k in (0, 1)]
        )
        target = acc / np.maximum(np.bincount(src, minlength=len(pts)), 1.0)[:, None]
        moved = pts.copy()
        moved[nb:] = target[nb:]
        ok = bcurve.contains_points(moved[nb:])
        ok &= distance(moved[nb:], bpts, 0.5 * h_eff) >= 0.5 * h_eff
        moved[nb:][~ok] = pts[nb:][~ok]
        pts = moved

    if not meshing._still_delaunay(pts, tris, quads, nb, bcurve):
        tris, quads = delaunay_half_edges(pts)
    simplices = tris[bcurve.contains_points(pts[tris].mean(axis=1))]
    mesh = meshing.TriMesh(pts, simplices, nb, bparam, h_eff)
    lost = lost_boundary_edges(simplices, nb)
    if len(lost):
        i = int(lost[0])
        raise meshing.MeshQualityError(
            f"boundary edge ({i}, {(i + 1) % nb}) lost in triangulation"
        )
    angles = np.degrees(meshing._triangle_min_angles(pts, simplices))
    if angles.min() < meshing.MIN_ANGLE:
        worst = simplices[int(np.argmin(angles))]
        raise meshing.MeshQualityError(
            f"min angle {angles.min():.2f} deg < {meshing.MIN_ANGLE} deg "
            f"(worst triangle vertices {pts[worst].tolist()})"
        )
    return mesh


def _monomials(x, y, degree):
    cols = [np.ones_like(x), x, y, x * x, x * y, y * y]
    if degree == 3:
        cols += [x**3, x * x * y, x * y * y, y**3]
    return np.stack(cols, axis=-1)


def nearest(points, centers, k):
    """Each center's k nearest points: the full distance matrix, lexsorted.

    Rows are in (distance, index) order; distances are sqrt(dx^2 + dy^2),
    the arithmetic of a k-d tree query.
    """
    diff = centers[:, None, :] - points[None, :, :]
    d = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    index = np.broadcast_to(np.arange(len(points)), d.shape)
    order = np.lexsort((index, d))[:, : min(k, len(points))]
    return np.take_along_axis(d, order, axis=1), order


def poly_fit(mesh, values, centers, degree, neighbors):
    """Patch fits with a stacked design matrix and einsum normal equations.

    Each center is fitted on ``neighbors``, (distances, vertex indices) of
    its patch, the way the library's fits take them.
    """
    d, idx = neighbors
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


def harmonic_extension(K, nb, d_boundary):
    """Vertex displacements with the given boundary rows whose interior rows
    solve -Delta d = 0: ``spsolve`` on the interior block of the stiffness
    matrix K, one displacement component at a time."""
    rhs = -K[nb:, :nb] @ d_boundary
    d_interior = [spl.spsolve(K[nb:, nb:], rhs[:, j]) for j in range(2)]
    return np.vstack([d_boundary, np.column_stack(d_interior)])


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


def cyclic_tridiag_solve(a, b, c, rhs):
    """The cyclic tridiagonal solve of ``flow._cyclic_tridiag_solve`` through
    ``solve_banded`` on the (3, m) band array."""
    m = len(b)
    gamma = -b[0]
    bb = b.copy()
    bb[0] -= gamma
    bb[-1] -= a[0] * c[-1] / gamma
    ab = np.zeros((3, m))
    ab[0, 1:] = c[:-1]
    ab[1] = bb
    ab[2, :-1] = a[1:]
    rhs2 = np.column_stack([rhs, np.zeros(m)])
    rhs2[0, -1] = gamma
    rhs2[-1, -1] = c[-1]
    sol = solve_banded((1, 1), ab, rhs2, overwrite_ab=True, overwrite_b=True,
                       check_finite=False)
    z = sol[:, -1]
    y = sol[:, :-1]
    fact = (y[0] + a[0] * y[-1] / gamma) / (1.0 + z[0] + a[0] * z[-1] / gamma)
    return y - np.outer(z, fact)


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


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _circle_crossings(a, d, dd, r2):
    """Sorted parameters [0, hits..., 1] of the segment a + t d, t in [0, 1],
    with the interior hits t where |a + t d|^2 = r^2.  a.d and the
    discriminant are exact rationals in the float inputs, rounded once."""
    ts = [0.0]
    ax, ay, dx, dy = map(Fraction, (a[0], a[1], d[0], d[1]))
    ad = ax * dx + ay * dy
    disc = ad * ad - (dx * dx + dy * dy) * (ax * ax + ay * ay - Fraction(r2))
    if disc > 0:
        ad, root = float(ad), np.sqrt(float(disc))
        ts += [t for t in ((-ad - root) / dd, (-ad + root) / dd) if 0.0 < t < 1.0]
    return ts + [1.0]


def polygon_circle_area(vertices, center, r):
    """Signed area of (polygon n disk), one edge and one piece at a time.

    A piece counts as inside the disk when its midpoint lies strictly inside,
    as in ``polyline_boundary_integral``: an edge that only touches the circle
    at its midpoint lies outside the open disk and adds its sector.
    """
    p = np.asarray(vertices, dtype=float) - np.asarray(center, dtype=float)
    q = np.roll(p, -1, axis=0)
    terms = []
    r2 = r * r
    for a, b in zip(p, q):
        d = b - a
        dd = _dot(d, d)
        if dd == 0.0:
            continue
        ts = _circle_crossings(a, d, dd, r2)
        for t0, t1 in zip(ts[:-1], ts[1:]):
            mid = a + 0.5 * (t0 + t1) * d
            s0 = a + t0 * d
            s1 = a + t1 * d
            if _dot(mid, mid) < r2:
                terms.append(0.5 * (s0[0] * s1[1] - s0[1] * s1[0]))
            else:
                ang = np.arctan2(s0[0] * s1[1] - s0[1] * s1[0], _dot(s0, s1))
                terms.append(0.5 * r2 * ang)
    return math.fsum(terms)


def polyline_boundary_integral(vertices, beta, center, r):
    """int beta ds over the part of the closed polyline inside B_r, with
    beta linear along each edge, one edge and one piece at a time."""
    p = np.asarray(vertices, dtype=float) - np.asarray(center, dtype=float)
    q = np.roll(p, -1, axis=0)
    b2 = np.roll(beta, -1)
    terms = []
    r2 = r * r
    for a, b, ba, bb in zip(p, q, beta, b2):
        d = b - a
        dd = _dot(d, d)
        if dd == 0.0:
            continue
        ts = _circle_crossings(a, d, dd, r2)
        seg_len = np.sqrt(dd)
        for t0, t1 in zip(ts[:-1], ts[1:]):
            mid = a + 0.5 * (t0 + t1) * d
            if _dot(mid, mid) < r2:
                tm = 0.5 * (t0 + t1)
                terms.append((ba * (1 - tm) + bb * tm) * (t1 - t0) * seg_len)
    return math.fsum(terms)


def analytic_contains(domain, points):
    """Membership in an AnalyticDomain.  The grim reapers and the catenoid
    gather the rows inside the region where log cos x_n or arccosh rho is
    defined, evaluate there, and scatter into a False column."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    v, p = domain.variant, domain.params
    if v == "disk":
        return np.hypot(x[:, 0] - p[1], x[:, 1] - p[2]) < p[0]
    if v == "ball":
        return np.linalg.norm(x, axis=1) < p[0]
    if v == "half_plane":
        return x[:, -1] < p[0]
    if v == "slab":
        return np.abs(x[:, -1]) < p[0]
    if v == "ellipse":
        return (x[:, 0] / p[0]) ** 2 + (x[:, 1] / p[1]) ** 2 < 1.0
    out = np.zeros(len(x), dtype=bool)
    if v in ("grim_reaper_2d", "grim_reaper_product"):
        xn, xz = x[:, -2], x[:, -1]
        region = np.abs(xn) < np.pi / 2
        out[region] = xz[region] > -np.log(np.cos(xn[region]))
        return out
    if v == "catenoid_3d":
        rho = np.hypot(x[:, 0], x[:, 1])
        region = rho >= 1.0
        out[region] = np.abs(x[region, 2]) <= np.arccosh(rho[region])
        return out
    raise ValueError(f"no membership oracle for {v!r}")


def ball_intersection_volume_mc(domain, center, r, budget, seed):
    """V(Omega n B_r) by scrambled Sobol sampling, each replicate's points
    drawn, scaled and tested in one piece, membership by
    ``analytic_contains``."""
    from scipy.stats import qmc

    from entropylab import collapse

    center = np.atleast_1d(np.asarray(center, dtype=float))
    box = collapse._sampling_box(domain, center, r)
    if box is None:
        return 0.0, 0.0
    lo, hi, dim = box
    box_vol = float(np.prod(hi - lo))
    m_bits = int(np.ceil(np.log2(max(budget // collapse.N_REPLICATES, 2))))
    means = []
    base = collapse._row_seed(center, r, seed)
    for k in range(collapse.N_REPLICATES):
        sob = qmc.Sobol(d=dim, scramble=True, seed=base + k)
        pts = lo + sob.random_base2(m_bits) * (hi - lo)
        inside = analytic_contains(domain, pts)
        inside &= np.linalg.norm(pts - center, axis=1) < r
        means.append(inside.mean() * box_vol)
    value = float(np.mean(means))
    err = float(np.std(means, ddof=1) / np.sqrt(collapse.N_REPLICATES))
    return value, err


def ellipse_curvature(a, b, point):
    """Curvature of the ellipse (x/a)^2 + (y/b)^2 = 1 at a point on it."""
    th = np.arctan2(point[1] / b, point[0] / a)
    return a * b / (a**2 * np.sin(th) ** 2 + b**2 * np.cos(th) ** 2) ** 1.5


def cutoff_profile(rho, r):
    """zeta(rho) = cos^2(pi (rho - r/2) / r) on r/2 <= rho <= r: 1 inside, 0 outside."""
    s = np.clip((np.asarray(rho, dtype=float) - r / 2.0) / (r / 2.0), 0.0, 1.0)
    return np.cos(np.pi * s / 2.0) ** 2


def w_beta_f_form(ops, f, tau, beta):
    """W_beta = int (tau |grad f|^2 + f - 2) u + 2 tau int_bdry beta u, with
    u = e^{-f}/(4 pi tau) after normalizing f and tau |grad f|^2 u written
    4 tau |grad phi|^2 on the stiffness pairing."""
    f, _ = functional.normalize(ops, f, tau)
    u = functional.u_from_f(f, tau)
    phi = np.sqrt(u)
    b = functional._beta_full(ops, beta)
    grad_term = 4.0 * tau * float(phi @ (ops.K @ phi))
    potential = float(ops.M_lumped @ (u * (f - 2.0)))
    boundary = 2.0 * tau * float(ops.boundary_weights @ (b * u))
    return grad_term + potential + boundary
