"""Rate-of-change identity and Harnack-type boundary integrand along a flow.

Given a flow trajectory and the backward conjugate-heat solve on it, each
snapshot's entropy rate is split into the volume part

    2 tau int |Hess f - I/(2 tau)|^2 u dx

and the boundary part -int <grad W, nu> u dS, the latter computed two ways:
directly from the nodal W field via least-squares patches, and through the
Harnack identity

    -<grad W, nu> = 2 tau (db/dt - 2 grad_M b . grad_M f
                           + A(grad_M f, grad_M f) - b / (2 tau)),

with b the Robin weight (the curvature along the flow).  The agreement of
the two routes and of their sum with the finite-difference entropy rate is
what the identity gaps measure.

The term functions take arrays (f, u, the curvature and the time
derivatives along the moving mesh) and the patch fits of f that
``_patch_fits`` makes, so closed-form fields can be fed in;
``rate_identity_check`` derives each snapshot's arrays and fits once and
combines them with second-order time stencils.  Where a snapshot's boundary
lies is read from the backward solve's meshes, never rederived from the
curves: the boundary velocity is the boundary rows of the mesh velocity.

A snapshot's terms read only its own fields and its stencil neighbours'
arrays, so ``rate_identity_check`` evaluates the snapshots in one pass on one
thread per CPU the process may run on, the calling thread included.  numpy's
solves and products release the GIL, but scipy's k-d tree queries barely
overlap: on scipy 1.17.1, two threads each running ``cKDTree(v).query(v,
51)`` 40 times get 1.0x one thread's throughput on a 472-vertex shrinker
snapshot mesh and 1.34x on a 1,335-vertex ellipse mesh, where two processes
reach about 1.4x on the 472-vertex mesh.  Each thread builds a snapshot's
operators, uses them and drops them before it takes the next snapshot, so at
most one snapshot's operators per thread are alive.  Results are collected
in snapshot order, and no snapshot's arithmetic depends on the others, so
the records are the same bit for bit whatever the thread count.
The patch fits build their design matrices FIT_BLOCK centers at a time: a
whole snapshot's (centers, coefficients, neighbours) matrix is megabytes,
and with two snapshots in flight it set the peak memory.

A snapshot's f is fitted with cubics only in ``_patch_fits``, once per set
of neighbours: on every vertex's PATCH_K nearest vertices (its gradient
enters W), and a vertex whose PATCH_K nearest are all kept by the Hessian's
boundary-layer exclusion finds in them its PATCH_K nearest kept vertices, so
that fit gives its Hessian too; only the other vertices query the kept
vertices and are fitted again.  ``volume_term`` reads the Hessian and
``boundary_term_direct`` the gradient and the boundary rows' neighbours, and
the report's ``meta`` counts the rows queried (each is fitted once) and
shared.  The snapshot's boundary curve is built once, with its operators.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import conjugate, fem, functional
from .conjugate import BackwardSolveState

DEFAULT_SKIP = 5  # snapshots dropped right before t0 (compatibility window)
PATCH_K = 45  # nearest neighbors per local cubic fit (10 coefficients)
QUAD_K = 36  # nearest neighbors per boundary quadratic patch (radius ~ 3h)
LAYER_EXCLUDE = 1.5  # boundary spacings kept out of the Hessian fits
FIT_BLOCK = 128  # centers per block of patch-fit design matrices (peak memory)


class HarnackError(RuntimeError):
    pass


@dataclass
class HarnackReport:
    records: list  # one dict per evaluated snapshot
    skipped_window: tuple  # (first skipped index, t0 index)
    meta: dict = field(default_factory=dict)

    COLUMNS = (
        "t",
        "tau",
        "W_beta",
        "dW_dt_fd",
        "volume_term",
        "boundary_term_direct",
        "boundary_term_harnack",
        "identity_gap_a",
        "identity_gap_gradw",
    )

    def column(self, name):
        return np.array([r[name] for r in self.records])

    def _centered(self):
        """Records whose time stencils are centered (the identity's gauge).

        Endpoint records fall back to one-sided stencils and are flagged; the
        identity gaps there measure the stencil, not the discretization, so
        the summary statistics skip them (unless nothing else is left).
        """
        kept = [r for r in self.records if not r.get("one_sided", False)]
        return kept or self.records

    def max_gap_a_rel(self) -> float:
        out = 0.0
        for r in self._centered():
            scale = max(abs(r["volume_term"]) + abs(r["boundary_term_direct"]), 1e-3)
            out = max(out, r["identity_gap_a"] / scale)
        return out

    def max_gap_gradw_rel(self) -> float:
        out = 0.0
        for r in self._centered():
            scale = max(abs(r["boundary_term_harnack"]), 1e-3)
            out = max(out, r["identity_gap_gradw"] / scale)
        return out


def _nearest(points, centers, k):
    """(distances, indices) of each center's min(k, len(points)) nearest points.

    Each row is in distance order, so its first j columns are a j-nearest set
    too; which of several points at the cut distance a row keeps is the k-d
    tree's choice.
    """
    return cKDTree(points).query(centers, min(k, len(points)))


def _poly_fit(mesh, values, centers, degree, neighbors):
    """Least-squares polynomial models of a nodal field around each center.

    Each center is fitted on ``neighbors``, the (distances, vertex indices)
    of its nearest vertices from ``_nearest``.  Returns (c, R): c[b] holds the
    coefficients in the monomial order 1, x, y, x2, xy, y2, x3, x2y, xy2, y3
    (up to ``degree``) with coordinates scaled by the patch radius R[b]
    (distance to the farthest neighbor), so derivatives of the model at the
    center are read off the low-order coefficients.  The centers are fitted
    FIT_BLOCK at a time, which bounds the design matrices' memory and leaves
    each center's arithmetic as it is.
    """
    v = mesh.vertices
    d, idx = neighbors
    k = idx.shape[1]
    ncoef = (degree + 1) * (degree + 2) // 2
    if k < 3 * ncoef // 2:  # 15 points for a cubic, 9 for a quadratic
        raise HarnackError(f"mesh too small for degree-{degree} patches ({k} points)")
    R = d[:, -1]
    c = np.empty((len(centers), ncoef))
    for s in range(0, len(centers), FIT_BLOCK):
        b = slice(s, s + FIT_BLOCK)
        ib, Rb = idx[b], R[b, None]
        x = (v[ib, 0] - centers[b, None, 0]) / Rb
        y = (v[ib, 1] - centers[b, None, 1]) / Rb
        # design matrix (block, ncoef, k); each degree's block is the previous
        # one times x, plus its last monomial times y
        A = np.empty((len(ib), ncoef, k))
        A[:, 0] = 1.0
        for p in range(1, degree + 1):
            lo, hi = p * (p - 1) // 2, p * (p + 1) // 2
            A[:, hi : hi + p] = A[:, lo:hi] * x[:, None]
            A[:, hi + p] = A[:, hi - 1] * y
        rhs = A @ values[ib][..., None]
        c[b] = np.linalg.solve(A @ A.transpose(0, 2, 1), rhs)[..., 0]
    return c, R


def _kept_vertices(mesh, boundary):
    """Indices of the vertices at least LAYER_EXCLUDE boundary spacings inside."""
    cutoff = LAYER_EXCLUDE * boundary.edge_lengths().mean()
    return np.flatnonzero(mesh.interior_distance_to_boundary(cutoff) >= cutoff)


def _hessian(c, R):
    """Hessians at the centers of cubic fits ``_poly_fit`` returned as (c, R)."""
    H = np.empty((len(c), 2, 2))
    H[:, 0, 0] = 2.0 * c[:, 3]
    H[:, 0, 1] = H[:, 1, 0] = c[:, 4]
    H[:, 1, 1] = 2.0 * c[:, 5]
    return H / R[:, None, None] ** 2


@dataclass
class _PatchFits:
    """A snapshot's cubic fits of f, one fit per row where its two patch sets agree.

    ``hessian`` is f's Hessian at every vertex from cubics on its PATCH_K
    nearest kept vertices, ``grad`` f's gradient from cubics on its PATCH_K
    nearest vertices, and ``quad`` the boundary rows' QUAD_K nearest vertices
    (distances, indices) for the quadratic W patches.
    """

    hessian: np.ndarray
    grad: np.ndarray
    quad: tuple
    shared: int  # rows whose all-vertex fit is also their Hessian fit


def _patch_fits(ops: fem.FemOperators, f) -> _PatchFits:
    """The Hessian and gradient fits of f on the operators' mesh.

    Every row is fitted on its PATCH_K nearest vertices, which gives the
    gradient (exact on cubics).  The Hessian (exact on quadratics) is fitted
    on the PATCH_K nearest kept vertices only: fit points closer than
    LAYER_EXCLUDE boundary spacings to ``ops.boundary`` are dropped, since
    fields transported by the moving-mesh solver carry a mesh-scale boundary
    layer whose second differences do not vanish under refinement, and the
    one-sided cubic models still extrapolate cleanly to the boundary.  A row
    whose PATCH_K nearest vertices are all kept finds in them its PATCH_K
    nearest kept vertices, so that fit is also its Hessian fit; only the other
    rows query the kept vertices and are fitted again.
    """
    mesh = ops.mesh
    v, nb = mesh.vertices, mesh.n_boundary
    keep = _kept_vertices(mesh, ops.boundary)
    kept = np.zeros(len(v), dtype=bool)
    kept[keep] = True
    d, idx = _nearest(v, v, PATCH_K)
    c, R = _poly_fit(mesh, f, v, 3, (d, idx))
    grad = c[:, 1:3] / R[:, None]
    shared = kept[idx].all(axis=1)
    H = np.empty((len(v), 2, 2))
    H[shared] = _hessian(c[shared], R[shared])
    quad = d[:nb, :QUAD_K].copy(), idx[:nb, :QUAD_K].copy()
    del d, idx, c, R  # the wide query goes before the second one is made
    rest = np.flatnonzero(~shared)  # never empty: no boundary vertex is kept
    d, idx = _nearest(v[keep], v[rest], PATCH_K)
    H[rest] = _hessian(*_poly_fit(mesh, f, v[rest], 3, (d, keep[idx])))
    return _PatchFits(H, grad, quad, int(shared.sum()))


def volume_term(ops: fem.FemOperators, fits: _PatchFits, u, tau: float) -> float:
    """2 tau int |Hess f - I/(2 tau)|^2 u dx over the whole domain.

    The Hessian ``fits.hessian`` comes from local cubic least-squares fits
    rather than double gradient recovery: the fits stay second-order
    accurate up to the boundary (one-sided patches), so no boundary ring has
    to be discarded and the near-boundary share of the integral is kept.
    """
    H = fits.hessian - np.eye(2) / (2.0 * tau)
    dens = np.einsum("nij,nij->n", H, H)
    return 2.0 * tau * float(ops.M_lumped @ (u * dens))


def _ddt_stencil(times, i: int, last: int):
    """Indices and weights of a second-order d/dt stencil at times[i].

    Centered where possible, three-point one-sided at the ends; weights are
    the derivatives of the Lagrange basis, so nonuniform spacing is fine.
    """
    if 0 < i < last:
        ks = [i - 1, i, i + 1]
        one_sided = False
    else:
        ks = [0, 1, 2] if i == 0 else [last - 2, last - 1, last]
        one_sided = True
    _, dw = conjugate.lagrange_weights([times[k] for k in ks], times[i])
    return ks, dw, one_sided


def _w_field(f, grad, dfdt, vel, tau: float):
    """Nodal W via the evolution form W = -2 tau df/dt + tau |grad f|^2 + f.

    Because u solves the conjugate heat equation, 2 lap f - |grad f|^2 =
    -2 df/dt + |grad f|^2 + 2/tau pointwise, which removes all second
    derivatives from W.  ``dfdt`` is the time derivative of f along the mesh
    vertices, which move with velocity ``vel``; ``grad``, f's gradient from
    local cubic fits, turns it into the fixed-point derivative.
    Differentiating a W assembled from a recovered Laplacian instead is
    hopeless -- its nodal noise does not vanish near the boundary.
    """
    dtf = dfdt - np.einsum("ij,ij->i", vel, grad)  # fixed-point time derivative
    return -2.0 * tau * dtf + tau * np.einsum("ij,ij->i", grad, grad) + f


def _boundary_normal_gradient(mesh, W: np.ndarray, quad, boundary) -> np.ndarray:
    """<grad W, nu> at boundary vertices from one-sided quadratic patches.

    ``quad`` is the boundary vertices' QUAD_K nearest vertices (distances,
    indices) from ``_nearest``, and ``boundary`` the mesh's boundary curve.
    """
    c, R = _poly_fit(mesh, W, mesh.vertices[: mesh.n_boundary], 2, quad)
    return np.einsum("ij,ij->i", c[:, 1:3] / R[:, None], boundary.outward_normal())


def boundary_term_direct(
    ops: fem.FemOperators, fits: _PatchFits, f, dfdt, vel, u, tau: float
) -> float:
    """-int <grad W, nu> u dS from quadratic patch fits of the nodal W field."""
    W = _w_field(f, fits.grad, dfdt, vel, tau)
    dWdnu = _boundary_normal_gradient(ops.mesh, W, fits.quad, ops.boundary)
    nb = ops.mesh.n_boundary
    return -float(ops.boundary_weights[:nb] @ (u[:nb] * dWdnu))


def boundary_term_harnack(
    ops: fem.FemOperators, f, beta, dbeta_dt, vel_b, u, tau: float
) -> float:
    """2 tau int (db/dt - 2 b_s f_s + kappa f_s^2 - b/2tau) u dS.

    ``beta`` is the curvature b = kappa at the boundary vertices, and
    ``dbeta_dt`` and ``vel_b`` are the time derivatives of the curvature and
    of the boundary point at fixed curve parameter.  db/dt follows the normal
    motion of the boundary: the fixed-parameter derivative is corrected by the
    tangential slide ``vel_b . t`` of the parametrization (the snapshots keep
    uniform arc length, which is not the normal-motion gauge the identity is
    stated in).  The arc-length derivatives b_s and f_s are the boundary
    curve's second-order tangential gradients.
    """
    nb = ops.mesh.n_boundary
    bc = ops.boundary
    db_ds = bc.tangential_gradient(beta)
    db_dt = dbeta_dt - np.einsum("ij,ij->i", vel_b, bc.unit_tangent()) * db_ds
    df_ds = bc.tangential_gradient(f[:nb])
    integrand = 2.0 * tau * (
        db_dt - 2.0 * db_ds * df_ds + beta * df_ds**2 - beta / (2.0 * tau)
    )
    return float(ops.boundary_weights[:nb] @ (u[:nb] * integrand))


def _workers() -> int:
    """Threads that evaluate snapshots: one per CPU this process may run on."""
    return len(os.sched_getaffinity(0))


def _map_in_order(fn, n: int) -> list:
    """[fn(i) for i in range(n)], computed by this thread and _workers() - 1 more.

    Each thread takes the next index from a shared iterator and stores its
    result in that index's slot.  The calling thread works too: every added
    thread gets its own malloc arena, and an idle caller plus a full pool
    measured 2-3 MiB more peak RSS.  After a failure no new index is taken,
    and the failure of the lowest index is raised: the one a serial loop
    would have raised.
    """
    out, failed, todo = [None] * n, {}, iter(range(n))

    def work():
        for i in todo:
            try:
                out[i] = fn(i)
            except Exception as err:
                failed[i] = err
            if failed:
                return

    threads = _workers()
    with ThreadPoolExecutor(threads) as pool:
        extra = [pool.submit(work) for _ in range(threads - 1)]
        work()
        for job in extra:
            job.result()
    if failed:
        raise failed[min(failed)]
    return out


def rate_identity_check(
    state: BackwardSolveState,
    skip: int = DEFAULT_SKIP,
) -> HarnackReport:
    """Evaluate every term of the entropy rate identity per snapshot.

    The last ``skip`` snapshots before t0 are excluded: with minimizer end
    data the third derivatives of f need not be continuous at t0, so the
    boundary quantities there are not trustworthy.  The snapshots are
    evaluated on ``_map_in_order``'s threads, as the module docstring states.
    """
    snaps = state.trajectory.snapshots
    n_eval = state.t0_index + 1 - max(skip, 0)
    if n_eval < 3:
        raise HarnackError("not enough snapshots outside the compatibility window")

    n_W = min(n_eval + 1, state.t0_index + 1)
    params = state.meshes[state.t0_index].boundary_param
    xv = [m.vertices for m in state.meshes[:n_W]]
    times = [s.t for s in snaps]
    # read in snapshot order before any thread starts, so the first
    # snapshot with a non-positive u is the one reported
    f = [conjugate.f_from_state(state, k) for k in range(n_W)]
    beta = [conjugate.interp_periodic(s.curve.curvature(), params) for s in snaps[:n_W]]
    mesh = state.meshes[0]
    nb = mesh.n_boundary
    pattern = fem.P1Pattern(mesh.triangles, mesh.n_vertices)

    def evaluate(k):
        ops = pattern.operators(state.meshes[k])
        u, tau = state.u_fields[k], snaps[k].tau
        W = functional.w_beta(ops, f[k], tau, beta[k]).w_beta
        if k >= n_eval:
            return W, None, False, 0
        ks, wts, one_sided = _ddt_stencil(times, k, state.t0_index)
        dfdt, vel, dbeta_dt = (
            sum(wj * x[j] for j, wj in zip(ks, wts)) for x in (f, xv, beta)
        )
        fits = _patch_fits(ops, f[k])
        terms = (
            volume_term(ops, fits, u, tau),
            boundary_term_direct(ops, fits, f[k], dfdt, vel, u, tau),
            boundary_term_harnack(ops, f[k], beta[k], dbeta_dt, vel[:nb], u, tau),
        )
        return W, terms, one_sided, fits.shared

    W, terms, one_sided_b, shared = zip(*_map_in_order(evaluate, n_W))
    records, warnings_ = [], []
    for i in range(n_eval):
        ks, wts, one_sided_W = _ddt_stencil(times, i, n_W - 1)
        dW_fd = float(sum(wk * W[k] for k, wk in zip(ks, wts)))
        if one_sided_W:
            warnings_.append(f"one-sided dW/dt at snapshot {i}")
        if one_sided_b[i]:
            warnings_.append(f"one-sided db/dt at snapshot {i}")
        vol, bdir, bhar = terms[i]
        records.append({
            "t": snaps[i].t,
            "tau": snaps[i].tau,
            "W_beta": W[i],
            "dW_dt_fd": dW_fd,
            "volume_term": vol,
            "boundary_term_direct": bdir,
            "boundary_term_harnack": bhar,
            "identity_gap_a": abs(dW_fd - (vol + bdir)),
            "identity_gap_gradw": abs(bdir - bhar),
            "one_sided": bool(one_sided_W or one_sided_b[i]),
        })
    # each evaluated snapshot fits every vertex once, and again from the
    # kept vertices each row whose two patch sets differ
    patch_rows = 2 * n_eval * mesh.n_vertices - sum(shared)
    return HarnackReport(
        records,
        (n_eval, state.t0_index),
        meta={"skip": skip, "warnings": warnings_, "h": state.meshes[0].h,
              "patch_query_rows": patch_rows, "patch_shared_rows": sum(shared)},
    )


# ---------------------------------------------------------------------------
# static-grid verification of the evolution identity (Perelman form)


def _d1(a, dx, axis):
    """Fourth-order centered first derivative on a uniform grid."""
    return (
        -np.roll(a, -2, axis) + 8 * np.roll(a, -1, axis)
        - 8 * np.roll(a, 1, axis) + np.roll(a, 2, axis)
    ) / (12.0 * dx)


def _d2(a, dx, axis):
    return (
        -np.roll(a, -2, axis) + 16 * np.roll(a, -1, axis) - 30 * a
        + 16 * np.roll(a, 1, axis) - np.roll(a, 2, axis)
    ) / (12.0 * dx**2)


def _grid_W(X, Y, tau, centers, dx):
    u = np.zeros_like(X)
    for (cx, cy) in centers:
        u += np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (4.0 * tau))
    u /= len(centers) * 4.0 * np.pi * tau
    f = -np.log(u) - np.log(4.0 * np.pi * tau)
    fx, fy = _d1(f, dx, 0), _d1(f, dx, 1)
    lap = _d2(f, dx, 0) + _d2(f, dx, 1)
    return tau * (2.0 * lap - (fx**2 + fy**2)) + f - 2.0, f, fx, fy


def appendix_c_residual(
    centers=((-1.0, 0.0), (1.0, 0.0)),
    tau: float = 1.0,
    half_width: float = 3.0,
    n: int = 161,
    dt: float = 1e-4,
) -> dict:
    """Residual of (d/dt + Lap) W = 2 tau |Hess f - I/2tau|^2 + 2 grad W . grad f
    for the Gaussian-mixture profile, on a static grid patch, plus the two
    intermediate identities (Bochner, and the equation for w = 2 Lap f -
    |grad f|^2 - 2/tau) the proof routes through.
    """
    x = np.linspace(-half_width, half_width, n)
    dx = x[1] - x[0]
    X, Y = np.meshgrid(x, x, indexing="ij")

    W0, f, fx, fy = _grid_W(X, Y, tau, centers, dx)
    Wp, fp = _grid_W(X, Y, tau - dt, centers, dx)[:2]  # t + dt means tau - dt
    Wm, fm = _grid_W(X, Y, tau + dt, centers, dx)[:2]
    Wt = (Wp - Wm) / (2.0 * dt)

    fxx, fyy = _d2(f, dx, 0), _d2(f, dx, 1)
    fxy = _d1(fx, dx, 1)
    lapW = _d2(W0, dx, 0) + _d2(W0, dx, 1)
    Wx, Wy = _d1(W0, dx, 0), _d1(W0, dx, 1)

    half = 1.0 / (2.0 * tau)
    hess_dev = (fxx - half) ** 2 + 2.0 * fxy**2 + (fyy - half) ** 2
    lhs = Wt + lapW
    rhs = 2.0 * tau * hess_dev + 2.0 * (Wx * fx + Wy * fy)

    m = 4 * 2  # margin: two stencil applications deep
    win = (slice(m, -m), slice(m, -m))
    perelman = float(np.abs(lhs[win] - rhs[win]).max())

    # w-equation, d/dt = partial_t - grad f . grad; on the same stencils
    # w = 2 Lap f - |grad f|^2 - 2/tau is (W - f) / tau
    w0 = (W0 - f) / tau
    wt = ((Wp - fp) / (tau - dt) - (Wm - fm) / (tau + dt)) / (2.0 * dt)
    wx, wy = _d1(w0, dx, 0), _d1(w0, dx, 1)
    lapw = _d2(w0, dx, 0) + _d2(w0, dx, 1)
    hess2 = fxx**2 + 2.0 * fxy**2 + fyy**2
    lhs_w = wt - (fx * wx + fy * wy) + lapw
    rhs_w = 2.0 * hess2 - 2.0 / tau**2 + (fx * wx + fy * wy)
    w_eq = float(np.abs(lhs_w[win] - rhs_w[win]).max())

    return {
        "perelman_identity": perelman,
        "w_equation": w_eq,
        "dx": dx,
        "window": m,
    }


def bochner_residual_cubic(half_width: float = 2.0, n: int = 41) -> float:
    """Bochner identity for f = x1^2 x2 with analytic derivatives.

    Lap |grad f|^2 = 2 |Hess f|^2 + 2 grad f . grad Lap f, every term in
    closed form, so the residual is pure floating-point arithmetic.
    """
    x = np.linspace(-half_width, half_width, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    fx, fy = 2.0 * X * Y, X**2
    fxx, fxy, fyy = 2.0 * Y, 2.0 * X, np.zeros_like(X)
    lapf = 2.0 * Y
    # |grad f|^2 = 4 x^2 y^2 + x^4; Lap of it = 8y^2 + 8x^2 + 12x^2
    lap_grad2 = 8.0 * Y**2 + 8.0 * X**2 + 12.0 * X**2
    hess2 = fxx**2 + 2.0 * fxy**2 + fyy**2
    grad_lapf = (np.zeros_like(X), 2.0 * np.ones_like(X))
    rhs = 2.0 * hess2 + 2.0 * (fx * grad_lapf[0] + fy * grad_lapf[1])
    return float(np.abs(lap_grad2 - rhs).max())
