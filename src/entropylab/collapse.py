"""Localized volume-ratio scans and the explicit collapsed examples.

The non-collapse criterion compares V(Omega n B_r) with r^(n+1) on balls
whose hypothesis ratio c1 = (V(Omega n B_r) + r^2 int |beta| dS) /
V(Omega n B_{r/2}) stays bounded.  Polyline domains get exact polygon-circle
clipping; analytic domains (slabs, grim reaper regions, the catenoid body)
are measured by scrambled low-discrepancy sampling restricted to the
tightest available bounding box, with a replicate-spread error estimate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .geometry import AnalyticDomain, GeometryError, PlanarCurve

DEFAULT_BUDGET = 10**6
N_REPLICATES = 8
BETA_SPECS = ("zero", "mean_curvature")
GRIM_REAPER_GRID = 200_001  # x1 cells for the grim reaper boundary integral


class CollapseError(ValueError):
    pass


# -- exact polygon / circle intersection area ----------------------------


def _circle_crossings(a, d, dd: float, r2: float) -> list:
    """Sorted parameters [0, hits..., 1] of the segment a + t d, t in [0, 1],
    with the interior hits t where |a + t d|^2 = r^2."""
    ts = [0.0]
    disc = (a @ d) ** 2 - dd * (a @ a - r2)
    if disc > 0.0:
        root = np.sqrt(disc)
        ts += [t for t in ((-(a @ d) - root) / dd, (-(a @ d) + root) / dd)
               if 0.0 < t < 1.0]
    return ts + [1.0]


def _polygon_circle_area(vertices: np.ndarray, center, r: float) -> float:
    """Area of (polygon n disk), signed by polygon orientation.

    Each directed edge contributes the signed area of the circular triangle
    (center, p1, p2) clipped to the disk: segment pieces inside the disk add
    the usual cross-product term, pieces outside add the sector the chord
    subtends.  Summing over a closed CCW loop yields the intersection area.
    """
    p = np.asarray(vertices, dtype=float) - np.asarray(center, dtype=float)
    q = np.roll(p, -1, axis=0)
    total = 0.0
    r2 = r * r
    for a, b in zip(p, q):
        d = b - a
        dd = d @ d
        if dd == 0.0:
            continue
        ts = _circle_crossings(a, d, dd, r2)
        for t0, t1 in zip(ts[:-1], ts[1:]):
            mid = a + 0.5 * (t0 + t1) * d
            s0 = a + t0 * d
            s1 = a + t1 * d
            if mid @ mid <= r2:
                total += 0.5 * (s0[0] * s1[1] - s0[1] * s1[0])
            else:
                ang = np.arctan2(
                    s0[0] * s1[1] - s0[1] * s1[0], s0 @ s1
                )  # chord seen from outside subtends < pi
                total += 0.5 * r2 * ang
    return total


# -- sampling boxes for analytic domains ---------------------------------


def _sampling_box(domain: AnalyticDomain, center, r: float):
    """Axis-aligned box containing (domain n B_r), as tight as cheaply known."""
    center = np.asarray(center, dtype=float)
    dim = domain.dim
    lo = center - r
    hi = center + r
    v = domain.variant
    if v == "disk":
        R, cx, cy = domain.params
        lo = np.maximum(lo, (cx - R, cy - R))
        hi = np.minimum(hi, (cx + R, cy + R))
    elif v == "ball":
        R = domain.params[0]
        lo = np.maximum(lo, -R)
        hi = np.minimum(hi, R)
    elif v == "ellipse":
        a, b = domain.params
        lo = np.maximum(lo, (-a, -b))
        hi = np.minimum(hi, (a, b))
    elif v == "half_plane":
        hi[-1] = min(hi[-1], domain.params[0])
    elif v == "slab":
        d = domain.params[0]
        lo[-1] = max(lo[-1], -d)
        hi[-1] = min(hi[-1], d)
    elif v in ("grim_reaper_2d", "grim_reaper_product"):
        lo[-2] = max(lo[-2], -np.pi / 2)
        hi[-2] = min(hi[-2], np.pi / 2)
        lo[-1] = max(lo[-1], 0.0)
    elif v == "catenoid_3d":
        zmax = float(np.arccosh(max(np.linalg.norm(center[:2]) + r, 1.0)))
        lo[-1] = max(lo[-1], -zmax)
        hi[-1] = min(hi[-1], zmax)
    if np.any(hi <= lo):
        return None
    return lo, hi, dim


def _row_seed(center, r: float, seed: int) -> int:
    key = "{}|{:.17g}|{}".format(
        ",".join(f"{c:.17g}" for c in np.atleast_1d(center)), float(r), int(seed)
    )
    return zlib.crc32(key.encode())


def ball_intersection_volume(domain, center, r: float, budget: int = DEFAULT_BUDGET,
                             seed: int = 0):
    """V(Omega n B_r(center)) with an error estimate.

    Polyline domains are clipped exactly (error 0); analytic domains use
    scrambled Sobol sampling in N_REPLICATES independent replicates, whose
    spread gives the reported standard error.
    """
    if r <= 0:
        raise CollapseError("ball radius must be positive")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if isinstance(domain, PlanarCurve):
        return abs(_polygon_circle_area(domain.vertices, center, r)), 0.0
    if not isinstance(domain, AnalyticDomain):
        raise CollapseError(f"unsupported domain {type(domain).__name__}")
    if budget < 10**3:
        raise CollapseError("sampling budget below 10^3 is meaningless")

    box = _sampling_box(domain, center, r)
    if box is None:
        return 0.0, 0.0
    lo, hi, dim = box
    box_vol = float(np.prod(hi - lo))
    # scipy.stats costs about a second to import: load it on first use
    from scipy.stats import qmc

    # Sobol balance wants powers of two; round the per-replicate count up
    m_bits = int(np.ceil(np.log2(max(budget // N_REPLICATES, 2))))
    means = []
    base = _row_seed(center, r, seed)
    for k in range(N_REPLICATES):
        sob = qmc.Sobol(d=dim, scramble=True, seed=base + k)
        pts = lo + sob.random_base2(m_bits) * (hi - lo)
        inside = domain.contains(pts)
        inside &= np.linalg.norm(pts - center, axis=1) < r
        means.append(inside.mean() * box_vol)
    value = float(np.mean(means))
    err = float(np.std(means, ddof=1) / np.sqrt(N_REPLICATES))
    return value, err


# -- boundary integrals of |beta| ----------------------------------------


def _polyline_boundary_integral(curve: PlanarCurve, center, r):
    """int |H| ds over the part of the polyline inside B_r, segment-exact."""
    beta = np.abs(curve.curvature())
    p = curve.vertices - np.asarray(center, dtype=float)
    q = np.roll(p, -1, axis=0)
    b2 = np.roll(beta, -1)
    total = 0.0
    r2 = r * r
    for a, b, ba, bb in zip(p, q, beta, b2):
        d = b - a
        dd = d @ d
        if dd == 0.0:
            continue
        ts = _circle_crossings(a, d, dd, r2)
        seg_len = np.sqrt(dd)
        for t0, t1 in zip(ts[:-1], ts[1:]):
            mid = a + 0.5 * (t0 + t1) * d
            if mid @ mid < r2:
                tm = 0.5 * (t0 + t1)
                total += (ba * (1 - tm) + bb * tm) * (t1 - t0) * seg_len
    return total


def boundary_beta_integral(domain, center, r: float, beta_spec) -> float:
    """int_{boundary(Omega) n B_r(center)} |beta| dS for beta_spec "zero"
    or "mean_curvature" (|beta| = |H|)."""
    if beta_spec not in BETA_SPECS:
        raise CollapseError(f"unsupported beta spec {beta_spec!r}")
    if r <= 0:
        raise CollapseError("ball radius must be positive")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if not isinstance(domain, (PlanarCurve, AnalyticDomain)):
        raise CollapseError(f"unsupported domain {type(domain).__name__}")
    if beta_spec == "zero":
        return 0.0
    if isinstance(domain, PlanarCurve):
        return float(_polyline_boundary_integral(domain, center, r))
    v = domain.variant

    if v in ("half_plane", "slab", "catenoid_3d"):
        return 0.0  # flat (half-plane, slab) or minimal (catenoid) boundaries

    if v in ("disk", "ellipse"):
        curve = domain.boundary_curve(4096)
        return float(_polyline_boundary_integral(curve, center, r))

    if v in ("grim_reaper_2d", "grim_reaper_product"):
        if domain.dim != 2:
            raise CollapseError("grim reaper boundary integral implemented in 2D")
        # H ds = dx1 exactly (H = cos x1, ds = dx1 / cos x1): the integral is
        # the x1-measure of the in-ball part of the curve, to grid resolution
        x1 = np.linspace(-np.pi / 2, np.pi / 2, GRIM_REAPER_GRID + 1)[1:-1]
        z = -np.log(np.cos(x1))
        inside = (x1 - center[0]) ** 2 + (z - center[1]) ** 2 < r * r
        return float(inside.sum() * np.pi / GRIM_REAPER_GRID)

    if v == "ball":
        R, dim = domain.params
        H = (dim - 1) / R
        if np.linalg.norm(center) + R <= r:  # sphere fully inside the ball
            surf = {2: 2 * np.pi * R, 3: 4 * np.pi * R**2}.get(int(dim))
            if surf is None:
                raise CollapseError("sphere surface implemented for dim 2, 3")
            return H * surf
        raise CollapseError("partial sphere cap integral not implemented")

    raise CollapseError(f"no boundary integral for variant {v!r}")


# -- ratio scans ---------------------------------------------------------


@dataclass
class RatioScan:
    rows: list  # dicts with center, r, V_half, V_full, beta_integral, c1, ratio
    dim: int
    collapsed_trend: bool
    meta: dict = field(default_factory=dict)

    COLUMNS = ("r", "V_half", "V_full", "beta_integral", "c1", "ratio", "mc_error")

    def column(self, name):
        return np.array([row[name] for row in self.rows])


def ratio_scan(domain, centers, radii, beta_spec="zero",
               budget: int = DEFAULT_BUDGET, seed: int = 0) -> RatioScan:
    """Scan V(Omega n B_r)/r^dim along (center, r) pairs.

    The collapsed-trend flag is a statement about the finite scan only: at
    least three rows, and the ratio decreases monotonically to below half its
    first value.  Rows with an empty half-ball get c1 = inf and are flagged,
    not dropped.
    """
    if beta_spec not in BETA_SPECS:
        raise CollapseError(f"unsupported beta spec {beta_spec!r}")
    centers = [np.atleast_1d(np.asarray(c, dtype=float)) for c in centers]
    radii = [float(r) for r in radii]
    if not centers or not radii:
        raise CollapseError("need at least one center and one radius")
    if len(centers) == 1:
        centers = centers * len(radii)
    if len(centers) != len(radii):
        raise CollapseError("centers and radii must pair up")
    dim = domain.dim if isinstance(domain, AnalyticDomain) else 2

    rows = []
    for center, r in zip(centers, radii):
        v_full, e_full = ball_intersection_volume(domain, center, r, budget, seed)
        v_half, e_half = ball_intersection_volume(domain, center, r / 2, budget, seed)
        b_int = boundary_beta_integral(domain, center, r, beta_spec)
        # exact polygon clipping leaves O(eps) dust for disjoint sets
        empty = v_half <= 1e-12 * (r / 2.0) ** dim
        c1 = np.inf if empty else (v_full + r * r * b_int) / v_half
        rows.append({
            "center": tuple(center),
            "r": r,
            "V_half": v_half,
            "V_full": v_full,
            "beta_integral": b_int,
            "c1": c1,
            "ratio": v_full / r**dim,
            "mc_error": e_full + e_half,
            "empty_half_ball": bool(empty),
        })

    ratios = [row["ratio"] for row in rows]
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(ratios[:-1], ratios[1:]))
    trend = monotone and len(rows) >= 3 and ratios[-1] < ratios[0] / 2
    return RatioScan(rows, dim, trend, meta={"beta_spec": str(beta_spec),
                                             "budget": budget, "seed": seed})


def shrinking_sphere_ratio(n: int, s: float, r: float) -> float:
    """r^2 int_{M'_s} H dS / V(Omega'_s n B_{r/2}) for the shrinking sphere.

    The rescaled sphere at time s < 0 has radius rho = sqrt(-2 n s).  When
    B_r contains it the value is n (n+1) r^2 / rho^2 = -(n+1) r^2 / (2 s),
    which identifies c(n) = (n+1)/2 in the -c(n) r^2 / s rate.
    """
    if s >= 0:
        raise CollapseError("s must be negative (pre-singularity time)")
    rho = np.sqrt(-2.0 * n * s)
    if r < rho:
        return 0.0  # the ball misses the sphere entirely (concentric setup)
    v_half = _ball_volume(min(r / 2.0, rho), n + 1)
    surf = _sphere_area(rho, n + 1)
    return float(r * r * (n / rho) * surf / v_half)


def _ball_volume(R: float, d: int) -> float:
    from scipy.special import gamma

    return float(np.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0) * R**d)


def _sphere_area(R: float, d: int) -> float:
    """Surface area of the (d-1)-sphere of radius R in R^d."""
    from scipy.special import gamma

    return float(2.0 * np.pi ** (d / 2.0) / gamma(d / 2.0) * R ** (d - 1))
