"""Curve shortening flow of embedded planar curves.

Semi-implicit arc-length discretization: each step solves a cyclic
tridiagonal system for the curvature term (coefficients frozen at the old
spacing) via Sherman-Morrison on top of two banded solves, then resamples
the polygon to uniform arc length.  The singular time is estimated from the
exact area law dA/dt = -2 pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .geometry import GeometryError, PlanarCurve, _is_embedded


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

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

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

    @staticmethod
    def from_records(records, a, T_est, truncated=False):
        snaps = [
            Snapshot(
                r["t"],
                r["tau"],
                PlanarCurve(np.asarray(r["vertices"]), check_embedded=False),
                r["area"],
                r["length"],
            )
            for r in records
        ]
        return FlowTrajectory(snaps, a, T_est, truncated)


def _segment_lengths(x: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.roll(x, -1, axis=0) - x, axis=1)


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
    ab = np.zeros((3, m))
    ab[0, 1:] = c[:-1]
    ab[1] = bb
    ab[2, :-1] = a[1:]
    rhs2 = np.column_stack([rhs, np.zeros(m)])
    rhs2[0, -1] = gamma
    rhs2[-1, -1] = c[-1]
    sol = solve_banded((1, 1), ab, rhs2)
    z = sol[:, -1]
    y = sol[:, :-1]
    fact = (y[0] + a[0] * y[-1] / gamma) / (1.0 + z[0] + a[0] * z[-1] / gamma)
    return y - np.outer(z, fact)


def _resample_uniform(vertices: np.ndarray) -> np.ndarray:
    """Resample the closed curve to uniform arc length, same vertex count.

    A periodic cubic spline through the vertices is used instead of the
    polygon itself: resampling along chords loses an O(h^2) sliver of area
    per pass, which accumulates over thousands of steps, while the spline
    keeps the redistribution area-neutral to higher order.  The first vertex
    stays fixed so boundary indices remain a stable parametrization.
    """
    from scipy.interpolate import CubicSpline

    m = len(vertices)
    closed = np.vstack([vertices, vertices[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    cs = CubicSpline(cum, closed, bc_type="periodic")
    return cs(np.arange(m) * cum[-1] / m)


def _laplacian_weights(x: np.ndarray, dt: float):
    seg = _segment_lengths(x)
    hp = seg
    hm = np.roll(seg, 1)
    w = 0.5 * (hp + hm)
    return dt / (w * hm), dt / (w * hp)


def _apply_lap(x, am, ap):
    return (
        am[:, None] * np.roll(x, 1, axis=0)
        + ap[:, None] * np.roll(x, -1, axis=0)
        - (am + ap)[:, None] * x
    )


def _step_raw(x: np.ndarray, dt: float) -> np.ndarray:
    """One linearly implicit midpoint step of x_t = Delta_s x.

    Arc-length weights are evaluated on an explicit half-step predictor, so
    the frozen-coefficient error is quadratic in dt as well; dt sits below
    the explicit stability bound, so damping is not a concern.
    """
    am, ap = _laplacian_weights(x, 0.5 * dt)
    x_mid = x + _apply_lap(x, am, ap)
    am, ap = _laplacian_weights(x_mid, dt)
    rhs = x + 0.5 * _apply_lap(x, am, ap)
    new = _cyclic_tridiag_solve(-0.5 * am, 1.0 + 0.5 * (am + ap), -0.5 * ap, rhs)
    return _resample_uniform(new)


def _max_turning_per_length(x: np.ndarray) -> float:
    t = np.roll(x, -1, axis=0) - x
    tp = np.roll(t, -1, axis=0)
    ang = np.abs(np.arctan2(t[:, 0] * tp[:, 1] - t[:, 1] * tp[:, 0], np.sum(t * tp, axis=1)))
    seg = np.linalg.norm(t, axis=1)
    w = 0.5 * (seg + np.roll(seg, -1))
    return float((ang / w).max())


def run_flow(
    curve0: PlanarCurve,
    t_end_fraction: float,
    snapshot_count: int,
    dt_scale: float = 1.0,
    a: float | None = None,
) -> FlowTrajectory:
    """Flow curve0 to t1 = t_end_fraction * T_est, storing uniform snapshots."""
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

    x = _resample_uniform(curve0.vertices)
    m = len(x)
    t = 0.0
    truncated = False

    def snap(t, x):
        c = PlanarCurve(x.copy(), check_embedded=False)
        return Snapshot(float(t), float(a - t), c, c.enclosed_area(), c.arc_length())

    snaps = [snap(0.0, x)]
    next_snap = 1
    while next_snap < snapshot_count:
        seg_min = _segment_lengths(x).min()
        h = np.sum(_segment_lengths(x)) / m
        if _max_turning_per_length(x) > 1.0 / (3.0 * h):
            truncated = True
            break
        dt = dt_scale * 0.4 * seg_min**2
        dt = min(dt, snap_times[next_snap] - t)
        x_new = _step_raw(x, dt)
        if not _is_embedded(x_new):
            truncated = True
            break
        x = x_new
        t += dt
        if t >= snap_times[next_snap] - 1e-14:
            t = snap_times[next_snap]
            snaps.append(snap(t, x))
            next_snap += 1
    return FlowTrajectory(snaps, a, T_est, truncated, meta={"dt_scale": dt_scale})


def analytic_shrinking_disk_trajectory(
    R0: float, times, a: float | None = None, n_vertices: int = 512
) -> FlowTrajectory:
    """Exact shrinking circles R(t) = sqrt(R0^2 - 2t), for oracle use."""
    times = np.asarray(times, dtype=float)
    T = R0**2 / 2.0
    if np.any(times >= T):
        raise FlowError(f"times must stay below the singular time {T}")
    if a is None:
        a = T
    snaps = []
    for t in times:
        R = float(np.sqrt(R0**2 - 2.0 * t))
        c = PlanarCurve.circle(R, n_vertices)
        snaps.append(
            Snapshot(float(t), a - float(t), c, c.enclosed_area(), c.arc_length())
        )
    return FlowTrajectory(snaps, a, T, False, meta={"analytic": True, "R0": R0})
