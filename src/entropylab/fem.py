"""P1 finite element assembly, gradient recovery and interpolation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshing import TriMesh, _points_polyline_distance


class FemError(RuntimeError):
    pass


@dataclass
class FemOperators:
    """Sparse P1 operators on a fixed mesh, built by ``P1Pattern.operators``.

    K is the (negative-Laplacian) stiffness form, M the consistent mass, both
    CSC; M_lumped is M's row-sum diagonal; boundary_weights are lumped
    arc-length weights (nonzero on boundary vertices only).
    """

    mesh: TriMesh
    K: sp.csc_matrix
    M: sp.csc_matrix
    M_lumped: np.ndarray
    boundary_weights: np.ndarray
    grads: np.ndarray  # (n_tri, 3, 2) P1 basis gradients per triangle
    areas: np.ndarray


def _p1_elements(vertices, triangles):
    """(areas, grads, ke, me) of P1 triangles; grads[t, i] = grad phi_i on t."""
    t = triangles
    a, b, c = vertices[t[:, 0]], vertices[t[:, 1]], vertices[t[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    if np.any(det <= 0):
        raise FemError("degenerate or inverted triangle in assembly")
    areas = 0.5 * det
    grads = np.empty((len(t), 3, 2))
    grads[:, 0, 0] = b[:, 1] - c[:, 1]
    grads[:, 0, 1] = c[:, 0] - b[:, 0]
    grads[:, 1, 0] = c[:, 1] - a[:, 1]
    grads[:, 1, 1] = a[:, 0] - c[:, 0]
    grads[:, 2, 0] = a[:, 1] - b[:, 1]
    grads[:, 2, 1] = b[:, 0] - a[:, 0]
    grads /= det[:, None, None]
    # the einsum "tid,tjd->tij" bit for bit, without its per-element overhead
    gx, gy = grads[:, :, None, 0], grads[:, :, None, 1]
    ke = gx * gx.transpose(0, 2, 1)
    ke += gy * gy.transpose(0, 2, 1)
    ke *= areas[:, None, None]
    me = ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :] * areas[:, None, None]
    return areas, grads, ke, me


class P1Pattern:
    """CSC sparsity pattern of the P1 matrices on one fixed connectivity.

    The one sparse P1 assembly: ``scatter`` maps each element entry (the 3x3
    blocks of ``_p1_elements``, row-major) to its slot in the pattern's data
    array, so a matrix on any vertices of this connectivity is one
    ``bincount``.
    """

    def __init__(self, triangles: np.ndarray, n: int):
        self.triangles = triangles
        self.n = n
        # int64: Qhull's int32 indices would overflow col * n + row past 46,340
        tri = triangles.astype(np.int64)
        # entry (t, i, j) is row tri[t, i], column tri[t, j]
        keys = (tri[:, None, :] * n + tri[:, :, None]).ravel()
        keys, self.scatter = np.unique(keys, return_inverse=True)
        # SuperLU takes C int indices; rows sort within each column
        self.indices = (keys % n).astype(np.intc)
        self.indptr = np.searchsorted(keys // n, np.arange(n + 1)).astype(np.intc)

    def assemble(self, element_values) -> np.ndarray:
        """Pattern data of the matrix with these (n_tri, 3, 3) entries."""
        return np.bincount(self.scatter, element_values.ravel(), len(self.indices))

    def matrix(self, data) -> sp.csc_matrix:
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def row_sums(self, data) -> np.ndarray:
        return np.bincount(self.indices, data, self.n)

    def operators(self, mesh: TriMesh) -> FemOperators:
        """The operators of a mesh with this connectivity."""
        areas, grads, ke, me = _p1_elements(mesh.vertices, self.triangles)
        m = self.assemble(me)
        bw = mesh.boundary_curve().vertex_weights()
        return FemOperators(
            mesh, self.matrix(self.assemble(ke)), self.matrix(m), self.row_sums(m),
            np.pad(bw, (0, self.n - len(bw))), grads, areas,
        )


def assemble(mesh: TriMesh) -> FemOperators:
    """The P1 operators of a mesh, on a pattern of its own connectivity."""
    return P1Pattern(mesh.triangles, mesh.n_vertices).operators(mesh)


def triangle_gradients(ops: FemOperators, f) -> np.ndarray:
    """Per-triangle constant gradient of a P1 field, shape (n_tri, 2)."""
    f = np.asarray(f, dtype=float)
    return np.einsum("tid,ti->td", ops.grads, f[ops.mesh.triangles])


def recover_gradient(ops: FemOperators, f) -> np.ndarray:
    """Area-weighted nodal average of per-triangle gradients."""
    gt = triangle_gradients(ops, f)
    n = ops.mesh.n_vertices
    acc = np.zeros((n, 2))
    wsum = np.zeros(n)
    w = ops.areas / 3.0
    for k in range(3):
        idx = ops.mesh.triangles[:, k]
        np.add.at(acc, idx, gt * w[:, None])
        np.add.at(wsum, idx, w)
    if np.any(wsum == 0):
        raise FemError("isolated vertex in gradient recovery")
    return acc / wsum[:, None]


def _barycentric(mesh: TriMesh, tri_idx, points):
    t = mesh.triangles[tri_idx]
    a = mesh.vertices[t[:, 0]]
    b = mesh.vertices[t[:, 1]]
    c = mesh.vertices[t[:, 2]]
    v0, v1 = b - a, c - a
    v2 = points - a
    d00 = np.sum(v0 * v0, axis=1)
    d01 = np.sum(v0 * v1, axis=1)
    d11 = np.sum(v1 * v1, axis=1)
    d20 = np.sum(v2 * v0, axis=1)
    d21 = np.sum(v2 * v1, axis=1)
    den = d00 * d11 - d01 * d01
    w1 = (d11 * d20 - d01 * d21) / den
    w2 = (d00 * d21 - d01 * d20) / den
    return np.column_stack([1.0 - w1 - w2, w1, w2])


def locate(mesh: TriMesh, points) -> np.ndarray:
    """Containing triangle per query point (-1 if outside), by walk-free scan."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    from scipy.spatial import cKDTree

    key = "centroid_tree"
    if key not in mesh._cache:
        cen = mesh.vertices[mesh.triangles].mean(axis=1)
        mesh._cache[key] = (cKDTree(cen), cen)
    tree, _ = mesh._cache[key]
    kmax = min(32, len(mesh.triangles))
    _, cand = tree.query(pts, k=kmax)
    cand = np.atleast_2d(cand)
    out = np.full(len(pts), -1, dtype=int)
    pending = np.arange(len(pts))
    for col in range(cand.shape[1]):
        if not len(pending):
            break
        tri_idx = cand[pending, col]
        lam = _barycentric(mesh, tri_idx, pts[pending])
        ok = np.all(lam >= -1e-10, axis=1)
        out[pending[ok]] = tri_idx[ok]
        pending = pending[~ok]
    return out


def interpolate(source_ops: FemOperators, f, target_points) -> np.ndarray:
    """Barycentric interpolation; outside points take the nearest-boundary value.

    Points farther than 2h outside the source domain are rejected.
    """
    mesh = source_ops.mesh
    f = np.asarray(f, dtype=float)
    pts = np.atleast_2d(np.asarray(target_points, dtype=float))
    tri_idx = locate(mesh, pts)
    out = np.empty(len(pts))
    inside = tri_idx >= 0
    if inside.any():
        lam = _barycentric(mesh, tri_idx[inside], pts[inside])
        out[inside] = np.sum(lam * f[mesh.triangles[tri_idx[inside]]], axis=1)
    if (~inside).any():
        q = pts[~inside]
        bnd = mesh.vertices[: mesh.n_boundary]
        # exact up to and including 2h, +inf beyond
        dist = _points_polyline_distance(q, bnd, np.nextafter(2 * mesh.h, np.inf))
        if np.any(dist > 2 * mesh.h):
            raise FemError(
                f"{int(np.sum(dist > 2 * mesh.h))} target point(s) outside "
                f"the source domain by more than 2h = {2 * mesh.h:.3g}"
            )
        out[~inside] = _boundary_projection_values(mesh, f, q)
    return out


def _boundary_projection_values(mesh: TriMesh, f, points):
    """Value of the P1 boundary trace at the closest boundary point."""
    nb = mesh.n_boundary
    p1 = mesh.vertices[:nb]
    p2 = mesh.vertices[(np.arange(nb) + 1) % nb]
    d = p2 - p1
    dd = np.sum(d * d, axis=1)
    vals = np.empty(len(points))
    for i, q in enumerate(points):
        w = q[None, :] - p1
        t = np.clip(np.einsum("jk,jk->j", w, d) / dd, 0.0, 1.0)
        proj = p1 + t[:, None] * d
        dist = np.linalg.norm(q[None, :] - proj, axis=1)
        j = int(np.argmin(dist))
        f1, f2 = f[j], f[(j + 1) % nb]
        vals[i] = (1 - t[j]) * f1 + t[j] * f2
    return vals
