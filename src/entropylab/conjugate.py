"""Backward conjugate heat equation on the moving domains of a flow.

(d/dt + Delta) u = 0 with boundary data grad u . nu = -beta u is solved in
s = t0 - t, where it becomes the forward heat equation on a growing domain.
The mesh built on Omega_{t0} is deformed along the trajectory.  Before the
march, each snapshot's mesh is built once: the t0 mesh plus the harmonic
extension of that snapshot's boundary displacement, with one factor of the
interior stiffness block for all snapshots.  This is the one place where a
snapshot curve is placed on the mesh; the diagnostics downstream read the
motion of these meshes.  The march then only advances u, and a substep's
vertices are the Lagrange interpolant in time of the snapshot meshes.  Each
step solves the moving-mesh theta-scheme

    (M' + theta ds (K' + C')) u' = (M - (1-theta) ds (K + C)) u,
    C[i,j] = int phi_j (w . grad phi_i)

assembled on the new configuration, with w the discrete mesh velocity
(new - old) / ds, not the interpolant's time derivative: the discrete
geometric conservation law (Thomas & Lombard 1979).  The
boundary flux -(w.nu) u then cancels the boundary-motion term identically,
so no boundary matrix appears and the total mass 1'Mu is conserved to solver
precision: 1'K = 0 and the columns of C sum to zero because the basis
gradients form a partition of unity.

The connectivity never changes, so all matrices live on one CSC sparsity
pattern (``fem.P1Pattern``) built once, and A and B are two matrix objects
whose data is overwritten each substep.  Each substep assembles K and M
once, on the new configuration, and carries them over as the next substep's
old K and M.  C is assembled on both configurations: it depends on the
substep's own mesh velocity w, so the new configuration's C is not the next
substep's old one.

Linear solve policy: A moves by O(ds) per substep, so the LU factor of an
earlier A is kept and each substep runs defect correction
x <- x + LU^-1 (b - A x) with it.  The correction made from the first
residual with ||b - A x|| <= DEFECT_RTOL ||b|| is still applied, and is the
last: it leaves the residual at the direct solve's level, where stopping
before it let the residuals' sums add up to a mass drift of 1.2e-14 over the
486 substeps of ``verify --suite shrinker --h 0.04`` (1.8e-15 with it).  If
the residual is still above DEFECT_RTOL after MAX_CORRECTIONS corrections,
A is refactored and solved directly (what ``spsolve`` does), so an
unconverged u is never returned.  The direct solve's residual floor is a
few 1e-16, which is why DEFECT_RTOL sits above it.  The counts and the
worst relative residual are kept in ``BackwardSolveState.linear_solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spl

from . import fem, functional, meshing, minimizer
from .flow import FlowTrajectory


THETA = 0.5  # trapezoidal time stepping; see backward_solve
DEFECT_RTOL = 1e-15  # relative residual at which defect correction stops
MAX_CORRECTIONS = 12  # corrections with a stale factor before refactoring


class ConjugateError(RuntimeError):
    pass


@dataclass
class BackwardSolveState:
    """The backward solve on one trajectory: plain data, pickled by the stage cache.

    Snapshot i's mesh and u are ``meshes[i]`` and ``u_fields[i]``; the meshes
    share one connectivity, so consumers that need operators build them on a
    ``fem.P1Pattern`` of it.
    """

    trajectory: FlowTrajectory
    meshes: list  # per snapshot index 0..t0_index, shared connectivity
    u_fields: list
    conservation_log: list  # (t, lumped mass) per accepted step
    end_result: minimizer.MinimizerResult | None = None
    warnings: list = field(default_factory=list)
    # substeps, factorizations, corrections, worst_rel_residual
    linear_solve: dict = field(default_factory=dict)

    @property
    def t0_index(self) -> int:  # t0 is the last snapshot
        return len(self.meshes) - 1

    def max_mass_drift(self) -> float:
        masses = np.array([m for _, m in self.conservation_log])
        return float(np.abs(masses - 1.0).max())


def f_from_state(state: BackwardSolveState, snapshot: int) -> np.ndarray:
    u = state.u_fields[snapshot]
    if np.any(u <= 0):
        raise ConjugateError(f"non-positive u at snapshot {snapshot}")
    tau = state.trajectory.snapshots[snapshot].tau
    return functional.f_from_u(u, tau)


def end_data(trajectory: FlowTrajectory, h: float = 0.02):
    """Mesh the t0 domain and take the minimizer with beta = H(t0) as u(t0).

    t0 is the trajectory's last snapshot.
    """
    snap = trajectory.snapshots[-1]
    mesh = meshing.triangulate(snap.curve, h)
    kappa = snap.curve.curvature()
    beta = interp_periodic(kappa, mesh.boundary_param)
    result = minimizer.minimize(fem.assemble(mesh), snap.tau, beta)
    if not result.converged:
        raise ConjugateError(
            f"minimizer failed at t0 (residual warnings: {result.warnings})"
        )
    u0 = result.phi**2
    return mesh, u0, result


def interp_periodic(values: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Linear interpolation along a closed polygon at fractional vertex indices.

    ``values`` is a per-vertex field, scalar (m,) or vector (m, 2); vertex
    positions give the points of the polygon itself.
    """
    m = len(values)
    i0 = np.floor(params).astype(int) % m
    frac = params - np.floor(params)
    if values.ndim > 1:
        frac = frac[:, None]
    return values[i0] * (1 - frac) + values[(i0 + 1) % m] * frac


class _AleAssembler:
    """Theta-scheme matrices on the fixed CSC pattern of the ALE connectivity.

    ``step`` keeps the new configuration's geometry, K and M for the next
    step, and returns the same A and B objects each time with new data.
    """

    def __init__(self, mesh: meshing.TriMesh):
        self.tri = mesh.triangles
        self.pattern = fem.P1Pattern(mesh.triangles, mesh.n_vertices)
        self._old = self._geometry(mesh.vertices)
        self.A = self.pattern.matrix(np.zeros(len(self.pattern.indices)))
        self.B = self.pattern.matrix(np.zeros(len(self.pattern.indices)))

    def _geometry(self, vertices):
        try:
            areas, grads, ke, me = fem._p1_elements(vertices, self.tri)
        except fem.FemError as err:
            raise ConjugateError("mesh inverted during ALE motion") from err
        return areas, grads, self.pattern.assemble(ke), self.pattern.assemble(me)

    def _convection(self, areas, grads, w):
        # C[i,j] = grad(phi_i) . int phi_j w = grad(phi_i).(|T|/12)(sum w + w_j)
        q = (areas / 12.0)[:, None]
        wx, wy = w[:, 0][self.tri] * q, w[:, 1][self.tri] * q  # (ntri, 3(j))
        wx += wx.sum(axis=1, keepdims=True)
        wy += wy.sum(axis=1, keepdims=True)
        ce = grads[:, :, None, 0] * wx[:, None, :]
        ce += grads[:, :, None, 1] * wy[:, None, :]
        return self.pattern.assemble(ce)

    def step(self, new_vertices, w, ds: float):
        """(A, B, lumped new mass) of the THETA-scheme from the current mesh."""
        areas_o, grads_o, k_o, m_o = self._old
        new = self._geometry(new_vertices)
        areas_n, grads_n, k_n, m_n = new
        self.A.data = m_n + THETA * ds * (k_n + self._convection(areas_n, grads_n, w))
        self.B.data = m_o - (1.0 - THETA) * ds * (
            k_o + self._convection(areas_o, grads_o, w)
        )
        self._old = new
        return self.A, self.B, self.pattern.row_sums(m_n)


class _ReusedLU:
    """Solves a sequence of nearby systems A x = b with one LU factor.

    See the module docstring for the policy; ``stats`` counts its work.
    """

    def __init__(self):
        self.lu = None
        self.stats = {"substeps": 0, "factorizations": 0, "corrections": 0,
                      "worst_rel_residual": 0.0}

    def solve(self, A, b):
        self.stats["substeps"] += 1
        b_norm = np.linalg.norm(b)
        if self.lu is not None:
            x = self.lu.solve(b)
            for _ in range(MAX_CORRECTIONS):
                r = b - A @ x
                x += self.lu.solve(r)
                self.stats["corrections"] += 1
                if np.linalg.norm(r) <= DEFECT_RTOL * b_norm:
                    return self._accept(A, x, b, b_norm)
        self.lu = None  # no two factors at once: it set the peak RSS
        self.lu = spl.splu(A)
        self.stats["factorizations"] += 1
        return self._accept(A, self.lu.solve(b), b, b_norm)

    def _accept(self, A, x, b, b_norm):
        rel = float(np.linalg.norm(b - A @ x) / b_norm) if b_norm > 0 else 0.0
        self.stats["worst_rel_residual"] = max(self.stats["worst_rel_residual"], rel)
        return x


def lagrange_weights(nodes, t):
    """(w, dw): value and derivative weights at t of the interpolating polynomial.

    For the polynomial p of degree len(nodes) - 1 with p(nodes[j]) = y_j,
    p(t) = sum_j w[j] y_j and p'(t) = sum_j dw[j] y_j.  At a node the value
    weights are exactly 1 and 0.  The few nodes are Python floats, and the
    products and the sum run left to right.
    """
    x = [float(v) for v in nodes]
    t = float(t)
    w, dw = [], []
    for j, xj in enumerate(x):
        others = x[:j] + x[j + 1:]
        denom = math.prod([xj - v for v in others])
        d = [t - v for v in others]
        w.append(math.prod(d) / denom)
        # a plain loop: sum() of floats is compensated from Python 3.12 on
        acc = 0.0
        for m in range(len(d)):
            acc += math.prod(d[:m] + d[m + 1:])
        dw.append(acc / denom)
    return np.array(w), np.array(dw)


def backward_solve(
    trajectory: FlowTrajectory,
    mesh0: meshing.TriMesh,
    u_end: np.ndarray,
    steps_per_tau: float = 250.0,
    end_result=None,
) -> BackwardSolveState:
    """March u from the t0 snapshot, the last one, back to the first snapshot.

    Substeps between snapshots are graded proportionally to tau (the time
    error scales with ds/tau for near-shrinker data), with at least one step
    per snapshot interval and ``steps_per_tau`` steps per unit of log tau
    overall.  Substep vertices are the Lagrange quadratic in time through the
    snapshot meshes (i+1, i, i-1), or (i, i-1, i-2) on the t0 interval, and
    linear when there are only two snapshots: piecewise-linear motion leaves
    an O(dt) kink in the boundary velocity that shows up as a spurious
    boundary layer in u.  The snapshot meshes are all built, and their
    quality checked, before the march, so ``meshes[k]`` is snapshot k's
    extended mesh exactly, whatever the substep count, and quality warnings
    precede positivity warnings.  The scheme is trapezoidal
    (THETA = 1/2), not implicit Euler (theta = 1): that is what makes the
    boundary-derivative diagnostics downstream converge -- first-order
    stepping leaves an O(ds) boundary layer in u whose third derivatives do
    not vanish with h.  Positivity is monitored, not guaranteed: u <= 0 is
    clamped with a warning, and the clamp breaks mass conservation.  Fast
    mesh motion reaches it (a circle squashed to 4:1 ellipses over t = 0..0.06
    drifts by 2.5e-3 at 20 steps per tau, against ~1e-15 along flows).
    """
    snaps = trajectory.snapshots
    t0_index = len(snaps) - 1
    if t0_index < 1:
        raise ConjugateError("need at least two snapshots")
    assembler = _AleAssembler(mesh0)
    ops0 = assembler.pattern.operators(mesh0)
    mass0 = float(ops0.M_lumped @ u_end)
    if abs(mass0 - 1.0) > 1e-6:
        raise ConjugateError(f"end data not normalized: int u = {mass0}")

    nb = mesh0.n_boundary
    v0, params = mesh0.vertices, mesh0.boundary_param
    # each snapshot's mesh: the t0 mesh plus the harmonic extension
    # (-Delta d = 0) of its boundary displacement; t0's is mesh0 itself
    K_ib = ops0.K[nb:, :nb]
    solve_interior = spl.factorized(ops0.K[nb:, nb:])
    meshes, warnings_ = [], []
    for k, s in enumerate(snaps[:t0_index]):
        d_b = interp_periodic(s.curve.vertices, params) - v0[:nb]
        d_i = solve_interior(-K_ib @ d_b)
        mesh_k = mesh0.with_vertices(v0 + np.vstack([d_b, d_i]))
        if mesh_k.min_angle_deg() < 10.0:
            warnings_.append(
                f"mesh quality degraded at snapshot {k} "
                f"(min angle {mesh_k.min_angle_deg():.1f} deg)"
            )
        meshes.append(mesh_k)
    meshes.append(mesh0)

    solver = _ReusedLU()
    u_fields = [None] * (t0_index + 1)
    u_fields[t0_index] = u_end.copy()
    log = [(snaps[t0_index].t, mass0)]
    verts = v0
    u = u_end.copy()

    for i in range(t0_index, 0, -1):
        t_hi, t_lo = snaps[i].t, snaps[i - 1].t
        tau_hi = snaps[i].tau
        dt_snap = t_hi - t_lo
        n_sub = max(1, int(np.ceil(steps_per_tau * dt_snap / tau_hi)))
        sub = np.linspace(t_hi, t_lo, n_sub + 1)
        if t0_index == 1:
            ks = (1, 0)  # only two snapshots: linear in time
        else:
            ks = (i + 1, i, i - 1) if i < t0_index else (i, i - 1, i - 2)
        nodes = [snaps[k].t for k in ks]
        for j in range(1, n_sub + 1):
            t_new = sub[j]
            ds = sub[j - 1] - t_new
            w_t, _ = lagrange_weights(nodes, t_new)
            new_verts = sum(wk * meshes[k].vertices for wk, k in zip(w_t, ks))
            A, B, m_lumped = assembler.step(new_verts, (new_verts - verts) / ds, ds)
            u = solver.solve(A, B @ u)
            verts = new_verts
            mass = float(m_lumped @ u)
            log.append((float(t_new), mass))
        if np.any(u <= 0):
            warnings_.append(f"non-positive u reached at snapshot {i - 1}; clamped")
            u = np.maximum(u, 1e-300)
        u_fields[i - 1] = u.copy()

    return BackwardSolveState(
        trajectory, meshes, u_fields, log, end_result, warnings_,
        solver.stats,
    )


def solve_from_minimizer(
    trajectory: FlowTrajectory,
    h: float = 0.02,
    steps_per_tau: float = 250.0,
) -> BackwardSolveState:
    """end_data + backward_solve in one call."""
    mesh0, u0, result = end_data(trajectory, h)
    return backward_solve(trajectory, mesh0, u0, steps_per_tau, end_result=result)
