"""The library's fast kernels against their oracles in ``tests/oracles.py``.

The indexed meshing and geometry kernels only skip (point, segment) pairs
that cannot matter, and compute every remaining pair with the dense
arithmetic, so they must agree with the oracles bit for bit, and so must the
meshes built on them.  Meshing keeps Qhull's triangles while they stay
Delaunay; its meshes must be those of a Qhull call per sweep, bit for bit,
with one Qhull call per attempt.  The incircle test on flat coordinate
columns and the Lagrange weights on Python floats keep the oracles'
arithmetic and order, so they too agree bit for bit; the incircle test is
also held there on quads within 4e-10 of cocircular, around its -1e-10
margin.  The embeddedness sweep skips segment pairs the same way but tests
crossings without division; it must give the pair oracle's answer.  The
batched patch fits and the fixed-pattern ALE matrices sum in another order
than their einsum/COO oracles, so they are held to rounding-level
tolerances, and so is the flow step, whose spline resample solves for
moments where scipy's ``CubicSpline`` solves for slopes.  The patch
neighbourhoods must be k-nearest sets whatever shape the k-d tree takes:
the brute-force distances bit for bit, with indices that differ from the
brute-force (distance, index) order's only among points at equal distance,
and their first QUAD_K columns must carry a fresh QUAD_K query's distances.
The snapshot patch fits that share one cubic fit between the Hessian's and
the gradient's patch sets must give the all-vertex fit where every patch
vertex is kept, and the kept-vertex fit elsewhere, bit for bit.  The flow's
cyclic tridiagonal solve calls LAPACK ``dgtsv`` as ``solve_banded`` would, so
it agrees with the ``solve_banded`` oracle bit for bit.  The flow's folded
turning guard is the oracle's arithmetic on the same edge data, bit for bit.
The edge-vectorized clipping kernels are held to their per-edge oracles to
1e-13 relative (1e-15 absolute near zero), and the blocked Monte Carlo
volume to the one-shot one, bit for bit; the numpy Sobol generator must give
scipy's scrambled points, bit for bit, over consecutive blocks.  Analytic
membership must be the gather-and-scatter oracle's on every variant, bit for
bit, with no RuntimeWarning from the rows outside the region where log cos
x_n or arccosh rho is defined.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import qmc

import oracles
from entropylab import collapse, conjugate, fem, flow, geometry, harnack, meshing
from entropylab.geometry import AnalyticDomain, GeometryError, PlanarCurve
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


def _level_queries(rng, curve):
    """Points at the vertex heights and at the bounds of every bin count
    1..m the crossing test can choose, at random and vertex x-values."""
    v = curve.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    ys = [v[:, 1]] + [np.linspace(lo[1], hi[1], k + 1) for k in range(1, len(v) + 1)]
    ys = np.concatenate(ys)
    xs = np.where(rng.random(len(ys)) < 0.5, rng.uniform(lo[0] - 0.1, hi[0] + 0.1, len(ys)),
                  rng.choice(v[:, 0], len(ys)))
    return np.column_stack([xs, ys])


def _comb(rng, n):
    """A sawtooth comb on a horizontal base: n teeth, each edge off the base
    running from y = 0 to y = 1, so the crossing test has a single bin."""
    x = np.cumsum(rng.uniform(0.1, 1.0, 2 * n + 1))
    y = np.zeros(2 * n + 1)
    y[1::2] = 1.0
    return PlanarCurve(np.column_stack([x - x[0], y]), check_embedded=False)


def _skyline(rng, n):
    """A rectilinear skyline of n towers with integer heights: every edge is
    horizontal or vertical, and many vertices share a height."""
    heights = rng.integers(1, 5, n).astype(float)
    x = np.arange(n + 1, dtype=float)
    top = [(x[k + s], heights[k]) for k in range(n - 1, -1, -1) for s in (1, 0)]
    v = np.array([(0.0, 0.0), (float(n), 0.0)] + top)
    v = v[np.any(v != np.roll(v, 1, axis=0), axis=1)]
    return PlanarCurve(v, check_embedded=False)


def _near_cocircular_quads(rng, n):
    """n quads (a, b, c, d) with both triangles counter-clockwise, whose d is
    moved off the circle through a, b, c by k * 1e-11 of its radius,
    |k| <= 40: the incircle test's -1e-10 margin falls inside that range."""
    th = np.sort(rng.uniform(0.0, 2 * np.pi, (n, 4)), axis=1)
    scale = np.ones((n, 4))
    scale[:, 3] += rng.integers(-40, 41, n) * 1e-11
    r = rng.uniform(0.01, 2.0, (n, 1)) * scale
    p = rng.uniform(-3.0, 3.0, (n, 1, 2)) + r[..., None] * np.stack(
        [np.cos(th), np.sin(th)], axis=-1)
    return p[:, [2, 0, 1, 3]].reshape(-1, 2)


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

    @given(**polygons)
    @settings(max_examples=100, deadline=None)
    def test_contains_points_at_levels(self, m, seed, grid):
        rng = np.random.default_rng(seed)
        curve = _star_polygon(rng, m, grid)
        assume(curve is not None)
        pts = _level_queries(rng, curve)
        assert np.array_equal(curve.contains_points(pts),
                              oracles.contains_points(curve, pts))

    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["comb", "skyline"]))
    @settings(max_examples=100, deadline=None)
    def test_contains_points_tall_and_horizontal_edges(self, n, seed, shape):
        rng = np.random.default_rng(seed)
        curve = (_comb if shape == "comb" else _skyline)(rng, n)
        v = curve.vertices
        dy = np.abs(np.roll(v[:, 1], -1) - v[:, 1])
        assert np.any(dy == 0.0)
        if shape == "comb":  # every edge that is not horizontal spans the full height
            assert np.all((dy == 0.0) | (dy == np.ptp(v[:, 1])))
        pts = np.vstack([_queries(rng, curve), _level_queries(rng, curve)])
        assert np.array_equal(curve.contains_points(pts),
                              oracles.contains_points(curve, pts))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           kind=st.sampled_from(["random", "cocircular"]))
    @settings(max_examples=150, deadline=None)
    def test_locally_delaunay(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        if kind == "random":
            pts = rng.uniform(-3.0, 3.0, (4 * n, 2))
        else:
            pts = _near_cocircular_quads(rng, n)
        quads = np.arange(4 * n).reshape(n, 4)
        assert np.array_equal(meshing._locally_delaunay(pts, quads),
                              oracles.locally_delaunay(pts, quads))

    @given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           at=st.sampled_from(["node", "inside", "outside"]))
    @settings(max_examples=200, deadline=None)
    def test_lagrange_weights(self, n, seed, at):
        rng = np.random.default_rng(seed)
        nodes = list(rng.uniform(-5.0, 5.0, n) * 10.0 ** rng.integers(-3, 3))
        t = {"node": nodes[rng.integers(n)],
             "inside": rng.uniform(min(nodes), max(nodes)),
             "outside": max(nodes) + rng.uniform(0.0, 3.0) * np.ptp(nodes)}[at]
        w, dw = conjugate.lagrange_weights(nodes, t)
        w_ref, dw_ref = oracles.lagrange_weights(nodes, t)
        assert np.array_equal(w, w_ref) and np.array_equal(dw, dw_ref)

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

    @given(**polygons, order=st.sampled_from(["star", "swapped", "shuffled"]))
    @settings(max_examples=300, deadline=None)
    def test_is_embedded(self, m, seed, grid, order):
        rng = np.random.default_rng(seed)
        curve = _star_polygon(rng, m, grid)
        assume(curve is not None)
        v = curve.vertices
        if order == "star":
            assert curve.is_embedded() == oracles.is_embedded(v)
        elif order == "swapped":  # one local fold: a single crossing, or none
            i = rng.integers(len(v) - 1)
            v = v[np.r_[:i, i + 1, i, i + 2 : len(v)]]
        else:  # a random vertex order self-intersects for most m > 4
            v = v[rng.permutation(len(v))]
        assert geometry._is_embedded(v) == oracles.is_embedded(v)

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


def test_contains_points_memory():
    # the 18k triangle centroids of the unit disk's h 0.02 mesh against its
    # 314-gon: its 157 edge-height bins give 3.7 (point, edge) pairs per
    # point, where 17 sqrt(m) bins gave 17.5 and peaked at 24.6 MiB
    mesh = triangulate(PlanarCurve.circle(1.0, 512), 0.02)
    curve = mesh.boundary_curve()
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    assert len(curve) == 314 and len(centroids) > 17_000
    tracemalloc.start()
    try:
        inside = curve.contains_points(centroids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inside.all()
    assert peak < 8 * 2**20


def _trefoil(m=512):
    th = 2 * np.pi * np.arange(m) / m
    r = 1 + 0.15 * np.cos(3 * th)
    return PlanarCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))


ORACLE_MESHES = [
    (PlanarCurve.circle(1.0, 512), 0.05),
    (PlanarCurve.ellipse(1.2, 0.8, 384), 0.04),
    (PlanarCurve.rectangle(0.0, 0.0, 2.0, 1.0), 0.05),
    (_trefoil(), 0.05),
]
ORACLE_IDS = ["disk", "ellipse", "corner_rectangle", "trefoil"]


def _assert_same_mesh(fast, ref):
    assert fast.n_boundary == ref.n_boundary
    assert fast.h == ref.h
    for name in ("vertices", "triangles", "boundary_param"):
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("curve,h", ORACLE_MESHES, ids=ORACLE_IDS)
def test_triangulate_identical_with_oracles(monkeypatch, curve, h):
    fast = triangulate(curve, h)
    monkeypatch.setattr(meshing, "_points_polyline_distance",
                        oracles.points_polyline_distance_below)
    monkeypatch.setattr(meshing, "_lost_boundary_edges", oracles.lost_boundary_edges)
    monkeypatch.setattr(PlanarCurve, "contains_points", oracles.contains_points)
    _assert_same_mesh(fast, triangulate(curve, h))


@pytest.mark.parametrize(
    "curve,h",
    ORACLE_MESHES + [(PlanarCurve.circle(1.0, 512), 0.02)],
    ids=ORACLE_IDS + ["disk_h0.02"],
)
def test_kept_connectivity_is_qhulls(monkeypatch, curve, h):
    # the smoothing sweeps and the final triangulation keep Qhull's first
    # triangles while they stay Delaunay: one Qhull call per attempt, and the
    # mesh of a run that calls Qhull every time, bit for bit
    calls = {"qhull": 0, "attempts": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(meshing, "Delaunay", counted("qhull", meshing.Delaunay))
    monkeypatch.setattr(meshing, "_triangulate_once",
                        counted("attempts", meshing._triangulate_once))
    kept = triangulate(curve, h)
    assert calls["qhull"] == calls["attempts"] >= 1
    monkeypatch.setattr(meshing, "_still_delaunay", lambda *args: False)
    _assert_same_mesh(kept, triangulate(curve, h))


def test_delaunay_check_refuses_an_encroached_edge():
    # interior points A, B, C, D around the edge A-B, inside a ring of eight
    # fixed boundary points; nb = 8
    ring = 3.0 * np.exp(2j * np.pi * np.arange(8) / 8)
    inner = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.2], [0.0, -1.2]])
    pts = np.vstack([np.column_stack([ring.real, ring.imag]), inner])
    tris, quads = meshing._delaunay(pts)
    assert meshing._still_delaunay(pts, tris, quads, 8)
    # a repeated point is no vertex of Qhull's triangles: nothing is kept
    assert meshing._delaunay(np.vstack([pts, pts[8:9]]))[1] is None

    def moved_c(y):
        p = pts.copy()
        p[10] = (0.0, y)
        t1, t2 = meshing._orientation_terms(p, tris)
        assert np.all(t1 > t2)  # no triangle turns over: only the incircle test refuses
        return p

    near = moved_c(1.1)  # C stays outside the circle through A, B, D
    assert meshing._still_delaunay(near, tris, quads, 8)
    assert np.array_equal(meshing._delaunay(near)[0], tris)
    inside = moved_c(0.8)  # C enters the circle through A, B, D
    assert not meshing._still_delaunay(inside, tris, quads, 8)
    assert not np.array_equal(meshing._delaunay(inside)[0], tris)


def test_cocircular_boundary_quad_exempt_only_outside_the_domain():
    # the square's corners are cocircular: either diagonal is Delaunay.  The
    # sweeps, which move no boundary vertex, may keep it; the final
    # triangulation keeps only triangles inside the curve, so there it must
    # go back to Qhull
    square = PlanarCurve.rectangle(0.0, 0.0, 1.0, 1.0)
    pts = square.vertices
    tris, quads = meshing._delaunay(pts)
    assert len(quads) == 1
    assert meshing._still_delaunay(pts, tris, quads, 4)
    assert not meshing._still_delaunay(pts, tris, quads, 4, square)


def _random_mesh(seed):
    """A triangulated random ellipse with its interior vertices jittered."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.6, 1.5, 2)
    mesh = triangulate(PlanarCurve.ellipse(a, b, 64), rng.uniform(0.08, 0.2))
    v = mesh.vertices.copy()
    v[mesh.n_boundary:] += rng.normal(0.0, 0.05 * mesh.h, (len(v) - mesh.n_boundary, 2))
    return mesh.with_vertices(v), rng


meshes = dict(seed=st.integers(0, 2**32 - 1))


def _assert_k_nearest(points, centers, d, idx):
    """(d, idx) are each center's k nearest points: the oracle's distances bit
    for bit, and distinct indices of points at their column's distance, so
    they differ from the oracle's indices only among equal distances."""
    d_ref, _ = oracles.nearest(points, centers, idx.shape[1])
    assert np.array_equal(d, d_ref)
    diff = centers[:, None, :] - points[idx]
    assert np.array_equal(np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2), d)
    assert np.all(np.diff(np.sort(idx, axis=1), axis=1) > 0)


def _check_shared_patch_fits(mesh):
    """``harnack._patch_fits`` against the all-vertex and kept-vertex fits.

    The gradient is the cubic fit on every vertex's PATCH_K nearest vertices,
    and the boundary rows' quadratic patches that query's first QUAD_K
    columns.  A row whose PATCH_K nearest vertices are all kept takes its
    Hessian from the same fit, and those vertices are its PATCH_K nearest
    kept ones; every other row's Hessian is the fit on ``_nearest(v[keep],
    v[rest], PATCH_K)``.
    """
    v, nb, k = mesh.vertices, mesh.n_boundary, harnack.QUAD_K
    f = np.sin(3.0 * v[:, 0]) * np.exp(v[:, 1]) + v[:, 0] * v[:, 1] ** 2
    ops = fem.assemble(mesh)
    keep = harnack._kept_vertices(mesh, ops.boundary)
    d, idx = harnack._nearest(v, v, harnack.PATCH_K)
    c, R = harnack._poly_fit(mesh, f, v, 3, (d, idx))
    shared = np.isin(idx, keep).all(axis=1)
    rest = np.flatnonzero(~shared)
    try:
        d_keep, idx_keep = harnack._nearest(v[keep], v[rest], harnack.PATCH_K)
        H_rest = harnack._hessian(
            *harnack._poly_fit(mesh, f, v[rest], 3, (d_keep, keep[idx_keep])))
    except harnack.HarnackError:  # too few kept vertices for a cubic
        with pytest.raises(harnack.HarnackError):
            harnack._patch_fits(ops, f)
        return None
    fits = harnack._patch_fits(ops, f)
    assert fits.shared == shared.sum()
    assert np.array_equal(fits.hessian[shared], harnack._hessian(c[shared], R[shared]))
    assert np.array_equal(fits.hessian[rest], H_rest)
    if shared.any():
        _assert_k_nearest(v[keep], v[shared], d[shared], np.searchsorted(keep, idx[shared]))
    assert np.array_equal(fits.grad, c[:, 1:3] / R[:, None])
    assert np.array_equal(fits.quad[0], d[:nb, :k])
    assert np.array_equal(fits.quad[1], idx[:nb, :k])
    return fits


class TestNumericKernelsAgainstOracles:
    @given(**meshes, degree=st.sampled_from([2, 3]), subset=st.booleans())
    @example(seed=1256604, degree=3, subset=True)  # the k-d tree keeps another tied point
    @settings(max_examples=40, deadline=None)
    def test_poly_fit(self, seed, degree, subset):
        mesh, rng = _random_mesh(seed)
        n = mesh.n_vertices
        keep = np.sort(rng.choice(n, int(0.7 * n), replace=False)) if subset else None
        values = np.sin(3.0 * mesh.vertices[:, 0]) * np.exp(mesh.vertices[:, 1])
        # the library fits at mesh vertices; off-vertex centers inside the
        # domain are added, but none outside it, where the patches are
        # extrapolations whose normal equations have no useful conditioning
        extra = rng.uniform(-1.0, 1.0, (40, 2))
        extra = extra[mesh.boundary_curve().contains_points(extra)]
        centers = np.vstack([mesh.vertices, extra])
        k = harnack.QUAD_K if degree == 2 else harnack.PATCH_K
        points = mesh.vertices if keep is None else mesh.vertices[keep]
        d, idx = harnack._nearest(points, centers, k)
        _assert_k_nearest(points, centers, d, idx)
        if keep is not None:
            idx = keep[idx]
        c, R = harnack._poly_fit(mesh, values, centers, degree, (d, idx))
        c_ref, _ = oracles.poly_fit(mesh, values, centers, degree, (d, idx))
        assert np.abs(c - c_ref).max() <= 1e-10 * np.abs(c_ref).max()

    @given(**meshes)
    @settings(max_examples=30, deadline=None)
    def test_ale_fixed_pattern(self, seed):
        mesh, rng = _random_mesh(seed)
        theta = conjugate.THETA
        asm = conjugate._AleAssembler(mesh)
        verts = mesh.vertices
        for _ in range(2):  # the second step runs on the carried K and M
            ds = rng.uniform(1e-4, 1e-2)
            new = verts + rng.normal(0.0, 0.02 * mesh.h, verts.shape)
            w = (new - verts) / ds
            A, B, mass = asm.step(new, w, ds)
            K_o, M_o, C_o = oracles.ale_matrices(verts, mesh.triangles, w)
            K_n, M_n, C_n = oracles.ale_matrices(new, mesh.triangles, w)
            A_ref = M_n + theta * ds * (K_n + C_n)
            B_ref = M_o - (1.0 - theta) * ds * (K_o + C_o)
            for got, ref in ((A, A_ref), (B, B_ref)):
                assert abs(got - ref).max() <= 1e-13 * abs(ref).max()
            m_ref = np.asarray(M_n.sum(axis=1)).ravel()
            assert np.abs(mass - m_ref).max() <= 1e-13 * m_ref.max()
            areas, grads = asm._old[:2]
            C = asm.pattern.matrix(asm._convection(areas, grads, w))
            assert abs(C - C_n).max() <= 1e-13 * abs(C_n).max()
            assert np.abs(C.sum(axis=0)).max() <= 1e-13 * abs(C).max()
            verts = new

    @given(**meshes)
    @settings(max_examples=20, deadline=None)
    def test_fem_assemble_unchanged(self, seed):
        # fem.assemble scatters on a P1Pattern; the oracle sums the same
        # element entries through COO -> CSR, in another order
        mesh, _ = _random_mesh(seed)
        ops = fem.assemble(mesh)
        K, M, _ = oracles.ale_matrices(mesh.vertices, mesh.triangles,
                                       np.zeros_like(mesh.vertices))
        for got, ref in ((ops.K, K), (ops.M, M)):
            assert got.format == "csc"
            assert abs(got - ref).max() <= 1e-13 * abs(ref).max()
        m_ref = np.asarray(M.sum(axis=1)).ravel()
        assert np.abs(ops.M_lumped - m_ref).max() <= 1e-13 * m_ref.max()

    def test_ale_pattern_past_int32_keys(self):
        # Qhull gives int32 triangles; with n > 46,340 vertices the pattern key
        # col * n + row no longer fits in int32
        small, rng = _random_mesh(7)
        n = 50_000
        off = n - small.n_vertices
        verts = np.zeros((n, 2))
        verts[off:] = small.vertices
        tri = (small.triangles + off).astype(np.int32)
        mesh = meshing.TriMesh(verts, tri, small.n_boundary,
                               small.boundary_param, small.h)
        asm = conjugate._AleAssembler(mesh)
        new = verts.copy()
        new[off:] += rng.normal(0.0, 0.02 * small.h, small.vertices.shape)
        w = (new - verts) / 0.01
        A, B, mass = asm.step(new, w, 0.01)
        K_o, M_o, C_o = oracles.ale_matrices(verts, tri, w)
        K_n, M_n, C_n = oracles.ale_matrices(new, tri, w)
        A_ref = M_n + 0.005 * (K_n + C_n)
        B_ref = M_o - 0.005 * (K_o + C_o)
        for got, ref in ((A, A_ref), (B, B_ref)):
            assert abs(got - ref).max() <= 1e-13 * abs(ref).max()
        m_ref = np.asarray(M_n.sum(axis=1)).ravel()
        assert np.abs(mass - m_ref).max() <= 1e-13 * m_ref.max()

    @given(**meshes)
    @settings(max_examples=20, deadline=None)
    def test_boundary_patches_reuse_the_wide_query(self, seed):
        # the boundary quadratics take the first QUAD_K columns of the
        # PATCH_K query every vertex already made for the cubic fits
        mesh, _ = _random_mesh(seed)
        v, nb = mesh.vertices, mesh.n_boundary
        d, idx = harnack._nearest(v, v, harnack.PATCH_K)
        prefix = d[:nb, : harnack.QUAD_K], idx[:nb, : harnack.QUAD_K]
        _assert_k_nearest(v, v[:nb], *prefix)
        W = np.sin(3.0 * v[:, 0]) * np.exp(v[:, 1])
        reused = harnack._boundary_normal_gradient(mesh, W, prefix, mesh.boundary_curve())
        c, R = oracles.poly_fit(mesh, W, v[:nb], 2, prefix)
        nu = mesh.boundary_curve().outward_normal()
        ref = np.einsum("ij,ij->i", c[:, 1:3] / R[:, None], nu)
        assert np.abs(reused - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_nearest_is_a_k_nearest_set(self, monkeypatch):
        # on the 15 x 15 integer lattice the k-th and (k+1)-th nearest points
        # tie for many rows at k = 36 and 45; whatever the k-d tree's shape,
        # each row is a k-nearest set, and a PATCH_K query's first QUAD_K
        # columns are a QUAD_K query's distances
        g = np.arange(15.0)
        lattice = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        disk = triangulate(PlanarCurve.circle(1.0, 256), 0.1).vertices
        cases = [(lattice, 36), (lattice, 45), (disk, harnack.PATCH_K)]
        for pts, k in cases[:2]:
            d_ref, _ = oracles.nearest(pts, pts, k + 1)
            assert np.any(d_ref[:, k - 1] == d_ref[:, k])
        for tree in ({}, {"leafsize": 4}, {"leafsize": 64},
                     {"balanced_tree": False}, {"compact_nodes": False}):
            monkeypatch.setattr(harnack, "cKDTree", partial(cKDTree, **tree))
            for pts, k in cases:
                d, idx = harnack._nearest(pts, pts, k)
                _assert_k_nearest(pts, pts, d, idx)
                d_quad, _ = harnack._nearest(pts, pts, harnack.QUAD_K)
                assert np.array_equal(d[:, : harnack.QUAD_K], d_quad), tree

    @given(**meshes)
    @settings(max_examples=20, deadline=None)
    def test_shared_patch_fits_on_random_meshes(self, seed):
        _check_shared_patch_fits(_random_mesh(seed)[0])

    def test_shared_patch_fits_on_a_symmetric_mesh(self):
        # many tied distances; some rows share their fit and some do not
        mesh = triangulate(PlanarCurve.circle(1.0, 256), 0.1)
        fits = _check_shared_patch_fits(mesh)
        assert 0 < fits.shared < mesh.n_vertices

    def test_ale_rejects_inverted_mesh(self, small_mesh):
        asm = conjugate._AleAssembler(small_mesh)
        flipped = small_mesh.vertices * np.array([-1.0, 1.0])
        with pytest.raises(conjugate.ConjugateError, match="inverted"):
            asm.step(flipped, np.zeros_like(flipped), 0.01)


def _smooth_star(rng, m):
    """Star-shaped CCW polygon, smooth in angle, with non-uniform spacing.

    Smooth because the flow only steps polygons that pass its turning guard;
    on an unresolved zigzag both forms amplify their roundoff alike.
    """
    gaps = rng.uniform(0.2, 1.0, m)
    th = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    wave = rng.uniform(0.0, 0.3) * np.cos(rng.integers(2, 6) * th + rng.uniform(0, 2 * np.pi))
    r = rng.uniform(0.5, 2.0) * (1.0 + wave)
    return np.column_stack([r * np.cos(th), r * np.sin(th)]) + rng.uniform(-3, 3, 2)


class TestFlowAgainstOracles:
    @given(m=st.integers(3, 400), cols=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_cyclic_tridiag_solve_is_solve_bandeds(self, m, cols, seed):
        # diagonally dominant, as both of the flow's systems are
        rng = np.random.default_rng(seed)
        a, c = rng.uniform(-1.0, 1.0, (2, m))
        b = np.abs(a) + np.abs(c) + rng.uniform(0.1, 2.0, m)
        rhs = rng.normal(size=(m, cols))
        args = a, b, c, rhs
        copies = [x.copy() for x in args]
        got = flow._cyclic_tridiag_solve(*args)
        assert np.array_equal(got, oracles.cyclic_tridiag_solve(*copies))
        assert all(np.array_equal(x, y) for x, y in zip(args, copies))  # inputs kept

    def test_singular_cyclic_system_raises(self):
        a = c = np.zeros(3)
        b = np.array([1.0, 0.0, 1.0])
        for solve in (flow._cyclic_tridiag_solve, oracles.cyclic_tridiag_solve):
            with pytest.raises(np.linalg.LinAlgError):
                solve(a, b, c, np.ones((3, 1)))

    # at m >= 128 the 50 steps stay within about a third of the lifespan
    # A0 / (2 pi); a coarser polygon runs into the singularity
    @given(m=st.integers(128, 256), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_resample_step_and_guard(self, m, seed):
        x = _smooth_star(np.random.default_rng(seed), m)
        nxt, prv = np.roll(np.arange(m), -1), np.roll(np.arange(m), 1)
        ref = oracles.resample_uniform(x)
        got = flow._resample_uniform(x, nxt, prv)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        y = z = x
        for _ in range(50):
            e, seg = flow._edges(y, nxt)
            assert flow._max_turning(e, seg, nxt) == oracles.max_turning_per_length(y)
            dt = flow.DT_FACTOR * seg.min() ** 2
            y = flow._step(y, seg, dt, nxt, prv)
            z = oracles.flow_step(z, dt)
        assert np.abs(y - z).max() <= 1e-11


def _clip_case(rng, m, grid, kind):
    """A random star polygon's raw vertices, per-vertex weights and a circle
    (center, r) of the given kind; the vertices may repeat (zero-length edges)."""
    gaps = rng.uniform(0.2, 1.0, m)
    th = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    rad = rng.uniform(0.2, 2.0, m)
    v = np.column_stack([rad * np.cos(th), rad * np.sin(th)]) + rng.uniform(-3, 3, 2)
    if grid:
        v = np.round(v * grid) / grid
    dup = rng.integers(0, m, rng.integers(0, 3))
    v = np.insert(v, dup, v[dup], axis=0)
    beta = rng.uniform(0.0, 3.0, len(v))
    lo, hi = v.min(axis=0), v.max(axis=0)
    c = rng.uniform(lo, hi)
    if kind == "random":
        r = rng.uniform(0.05, 1.5) * np.linalg.norm(hi - lo)
    elif kind == "vertex":  # the circle passes through a vertex
        r = np.linalg.norm(v[rng.integers(len(v))] - c)
    elif kind == "tangent":  # touches an edge away from its midpoint
        k = rng.integers(len(v))
        d = v[(k + 1) % len(v)] - v[k]
        foot = v[k] + rng.choice([0.2, 0.35, 0.7, 0.85]) * d
        normal = np.array([-d[1], d[0]]) / max(np.linalg.norm(d), 1e-300)
        c = foot + rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]) * normal
        r = np.linalg.norm(c - foot)
    elif kind == "outside":  # the center lies outside the polygon
        c = hi + rng.uniform(0.0, 2.0, 2)
        r = rng.uniform(0.05, 1.0) * np.linalg.norm(hi - lo) + np.linalg.norm(c - hi)
    else:  # beyond the circumradius: the disk holds the whole polygon
        r = np.linalg.norm(v - c, axis=1).max() * rng.uniform(1.0, 3.0)
    return v, beta, c, max(r, 1e-3)


# one domain per analytic variant, each in its highest tested dimension
ANALYTIC_EXAMPLES = {
    "disk": AnalyticDomain.disk(1.5, (0.5, -0.25)),
    "half_plane": AnalyticDomain.half_plane(0.5),
    "slab": AnalyticDomain.slab(1.0, dim=3),
    "grim_reaper_2d": AnalyticDomain.grim_reaper_2d(),
    "grim_reaper_product": AnalyticDomain.grim_reaper_product(2),
    "catenoid_3d": AnalyticDomain.catenoid_3d(),
    "ball": AnalyticDomain.ball(2.0, dim=3),
    "ellipse": AnalyticDomain.ellipse(1.2, 0.8),
}


def _membership_points(rng, domain, n=10**5):
    """n uniform points in [-4, 4]^dim, where the grim reapers' x_n has
    |x_n| >= pi/2 and the catenoid's rho < 1 on about 60% and 5% of the rows,
    then rows on the boundary, at the region's edge and with inf or nan."""
    pts = rng.uniform(-4.0, 4.0, (n, domain.dim))
    edge = np.array([np.pi / 2, np.nextafter(np.pi / 2, 4.0), 1.0, np.nextafter(1.0, 0.0)])
    xn = rng.uniform(-1.5, 1.5, 64)
    rho = rng.uniform(1.0, 4.0, 64)
    special = np.zeros((4 * len(edge) + 2 * 64 + 3, domain.dim))
    special[:2 * len(edge), -2] = np.concatenate([edge, -edge])
    special[2 * len(edge):4 * len(edge), 0] = np.concatenate([edge, -edge])
    k = 4 * len(edge)
    special[k:k + 64, -2:] = np.column_stack([xn, -np.log(np.cos(xn))])  # on G's curve
    special[k + 64:k + 128, 0] = rho
    special[k + 64:k + 128, -1] = np.arccosh(rho)  # on the catenoid
    special[-3:] = np.array([np.inf, -np.inf, np.nan])[:, None]
    return np.concatenate([pts, special])


class TestCollapseAgainstOracles:
    @pytest.mark.parametrize("variant", sorted(geometry.ANALYTIC_VARIANTS))
    def test_analytic_contains(self, variant):
        domain = ANALYTIC_EXAMPLES[variant]
        pts = _membership_points(np.random.default_rng(11), domain)
        ref = oracles.analytic_contains(domain, pts)
        assert 0 < np.count_nonzero(ref) < len(pts)
        # row-major rows, and the column-major block that _count_inside passes
        for x in (pts, np.asfortranarray(pts)):
            got = domain.contains(x)
            assert got.dtype == bool and got.shape == (len(pts),)
            assert np.array_equal(got, ref)

    @given(m=st.integers(3, 80), seed=st.integers(0, 2**32 - 1),
           grid=st.sampled_from([0, 4, 16]),
           kind=st.sampled_from(["random", "vertex", "tangent", "outside", "beyond"]))
    @settings(max_examples=300, deadline=None)
    def test_clipping_kernels(self, m, seed, grid, kind):
        v, beta, c, r = _clip_case(np.random.default_rng(seed), m, grid, kind)
        area = collapse._polygon_circle_area(v, c, r)
        ref = oracles.polygon_circle_area(v, c, r)
        assert abs(area - ref) <= max(1e-13 * abs(ref), 1e-15)
        integral = collapse._polyline_boundary_integral(v, beta, c, r)
        ref = oracles.polyline_boundary_integral(v, beta, c, r)
        assert abs(integral - ref) <= max(1e-13 * abs(ref), 1e-15)

    @pytest.mark.parametrize("r, area, length", [
        (1.0, np.pi, 0.0),  # touches each edge at its midpoint only
        (np.sqrt(2.0), 4.0, 8.0),  # passes through the corners
        (0.5, np.pi / 4, 0.0),
    ], ids=["inscribed", "through_corners", "inside"])
    def test_square_and_its_circles(self, r, area, length):
        square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        got = collapse._polygon_circle_area(square, (0.0, 0.0), r)
        assert got == pytest.approx(area, rel=1e-15)
        got = collapse._polyline_boundary_integral(square, np.ones(4), (0.0, 0.0), r)
        assert got == pytest.approx(length, rel=1e-15)

    @pytest.mark.parametrize("domain, center, r, budget", [
        (AnalyticDomain.slab(1.0, dim=2), (0.0, 0.0), 8.0, collapse.DEFAULT_BUDGET),
        (AnalyticDomain.slab(1.0, dim=2), (0.5, 0.25), 3.0, 5000),
        (AnalyticDomain.grim_reaper_2d(), (0.0, 4.0), 2.0, 10**5),
        (AnalyticDomain.ball(1.0, dim=3), (0.3, 0.0, -0.2), 1.5, 10**5),
        (AnalyticDomain.catenoid_3d(), (1.5, 0.0, 0.0), 1.0, 10**5),
        (AnalyticDomain.grim_reaper_product(2), (0.0, 0.0, 4.0), 2.0, 10**5),
    ], ids=["slab", "slab_below_block", "grim_reaper", "ball_3d", "catenoid",
            "grim_reaper_product_2"])
    def test_blocked_sampling_is_the_one_shot_count(self, domain, center, r, budget):
        got = collapse.ball_intersection_volume(domain, center, r, budget, seed=7)
        assert got == oracles.ball_intersection_volume_mc(domain, center, r, budget, 7)
        assert got[1] > 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 2])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    def test_sobol_blocks_are_scipys_points(self, dim, seed):
        # _row_seed is a crc32 plus the replicate, so seeds pass 2^32
        for block, n_blocks in ((1, 64), (2, 32), (1024, 5), (8192, 5)):
            ref = qmc.Sobol(d=dim, scramble=True, seed=seed)
            blocks = collapse._sobol_blocks(dim, seed, block, n_blocks)
            for q in blocks:
                assert q.dtype == np.uint32 and q.shape == (dim, block)
                assert np.array_equal(q.T * 2.0**-collapse.SOBOL_BITS, ref.random(block))
