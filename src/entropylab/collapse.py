"""Localized volume-ratio scans and the explicit collapsed examples.

The non-collapse criterion compares V(Omega n B_r) with r^(n+1) on balls
whose hypothesis ratio c1 = (V(Omega n B_r) + r^2 int |beta| dS) /
V(Omega n B_{r/2}) stays bounded.  Polyline domains get exact polygon-circle
clipping, vectorized over the edges; analytic domains (slabs, grim reaper
regions, the catenoid body) are measured by scrambled low-discrepancy
sampling restricted to the tightest available bounding box, with a
replicate-spread error estimate.  Each replicate draws its Sobol points in
blocks of SAMPLE_BLOCK, so the working set stays in cache; the count is the
one-shot count, bit for bit.  A scan computes each (center, radius) volume
once: with dyadic radii about a fixed center, every half ball but the first
is the previous row's full ball, so n rows take n + 1 volumes, not 2n.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .geometry import AnalyticDomain, GeometryError, PlanarCurve

DEFAULT_BUDGET = 10**6
N_REPLICATES = 8
BETA_SPECS = ("zero", "mean_curvature")
GRIM_REAPER_GRID = 200_001  # x1 cells for the grim reaper boundary integral
SAMPLE_BLOCK = 2**13  # Sobol points drawn and tested at a time


class CollapseError(ValueError):
    pass


# -- exact polygon / circle intersection area ----------------------------


def _split(x):
    """Dekker's split: x = hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_product(x, y):
    """TwoProduct (Dekker 1971): x * y = p + e exactly, barring over/underflow."""
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _two_sum(x, y):
    """TwoSum (Knuth): x + y = s + e exactly."""
    s = x + y
    z = s - x
    return s, (x - (s - z)) + (y - z)


def _dot2(x0, y0, x1, y1):
    """x0*y0 + x1*y1 as hi + lo: hi is the plain rounded sum, and hi + lo is
    as accurate as twice the working precision (Ogita, Rump, Oishi 2005)."""
    p0, e0 = _two_product(x0, y0)
    p1, e1 = _two_product(x1, y1)
    s, e = _two_sum(p0, p1)
    return s, e + (e0 + e1)


def _circle_crossings(a: np.ndarray, d: np.ndarray, r2: float):
    """Split the m segments a + t d, t in [0, 1], at the circle |x|^2 = r2.

    Returns t0, t1 of shape (m, 3): each edge's pieces [0, h1], [h1, h2],
    [h2, 1], where h1 < h2 are the interior crossings.  A crossing outside
    (0, 1) collapses its outer piece ([0, 0] or [1, 1]), and ``live`` marks
    the pieces that exist; zero-length edges have none.  ``inside`` marks
    the live pieces whose midpoint lies strictly inside the circle: a piece
    between crossings lies wholly on one side, and one that only touches
    the circle at its midpoint lies outside the open disk.
    """
    # disc = ad*ad - dd*(aa - r2) cancels near a tangency, and so do ad for a
    # nearly tangent edge and aa - r2 for a vertex near the circle.  Each
    # term is formed in twice the working precision, so disc errs by about
    # eps * |disc| + eps**2 * ad**2.  Plain rounding errs by eps * ad**2,
    # which the square root turns into an error of sqrt(eps) in a crossing.
    ad, ad_lo = _dot2(a[:, 0], d[:, 0], a[:, 1], d[:, 1])
    dd, dd_lo = _dot2(d[:, 0], d[:, 0], d[:, 1], d[:, 1])
    aa, aa_lo = _dot2(a[:, 0], a[:, 0], a[:, 1], a[:, 1])
    s, s_lo = _two_sum(aa, -r2)
    s_lo += aa_lo
    p, p_lo = _two_product(ad, ad)
    q, q_lo = _two_product(dd, s)
    disc = (p - q) + ((p_lo - q_lo) + (2.0 * ad * ad_lo - dd * s_lo - dd_lo * s))
    ad += ad_lo
    edge = dd > 0.0
    crosses = edge & (disc > 0.0)
    root = np.sqrt(np.where(crosses, disc, 0.0))
    dd_safe = np.where(edge, dd, 1.0)
    h1 = (-ad - root) / dd_safe
    h2 = (-ad + root) / dd_safe
    hit1 = crosses & (0.0 < h1) & (h1 < 1.0)
    hit2 = crosses & (0.0 < h2) & (h2 < 1.0)
    t = np.column_stack([np.zeros_like(ad), np.where(hit1, h1, 0.0),
                         np.where(hit2, h2, 1.0), np.ones_like(ad)])
    t0, t1 = t[:, :3], t[:, 1:]
    live = np.column_stack([hit1, edge, hit2])
    tm = 0.5 * (t0 + t1)
    mx = a[:, :1] + tm * d[:, :1]
    my = a[:, 1:] + tm * d[:, 1:]
    inside = live & (mx * mx + my * my < r2)
    return t0, t1, live, inside


def _polygon_circle_area(vertices: np.ndarray, center, r: float) -> float:
    """Area of (polygon n disk), signed by polygon orientation.

    Each directed edge contributes the signed area of the circular triangle
    (center, p1, p2) clipped to the disk: segment pieces inside the disk add
    the usual cross-product term, pieces outside add the sector the chord
    subtends.  Summing over a closed CCW loop yields the intersection area;
    the terms are summed exactly, since they cancel when the center lies
    outside the polygon.
    """
    a = np.asarray(vertices, dtype=float) - np.asarray(center, dtype=float)
    d = np.roll(a, -1, axis=0) - a
    r2 = r * r
    t0, t1, live, inside = _circle_crossings(a, d, r2)
    s0x, s0y = a[:, :1] + t0 * d[:, :1], a[:, 1:] + t0 * d[:, 1:]
    s1x, s1y = a[:, :1] + t1 * d[:, :1], a[:, 1:] + t1 * d[:, 1:]
    cross = s0x * s1y - s0y * s1x
    # a chord seen from outside the disk subtends less than pi
    sector = r2 * np.arctan2(cross, s0x * s1x + s0y * s1y)
    term = 0.5 * np.where(inside, cross, sector)
    return math.fsum(term[live])


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
    span = hi - lo
    box_vol = float(np.prod(span))
    # scipy.stats costs about a second to import: load it on first use
    from scipy.stats import qmc

    # Sobol balance wants powers of two; round the per-replicate count up
    n = 2 ** int(np.ceil(np.log2(max(budget // N_REPLICATES, 2))))
    means = []
    base = _row_seed(center, r, seed)
    for k in range(N_REPLICATES):
        sob = qmc.Sobol(d=dim, scramble=True, seed=base + k)
        count = _count_inside(domain, sob, n, lo, span, center, r)
        means.append(count / n * box_vol)
    value = float(np.mean(means))
    err = float(np.std(means, ddof=1) / np.sqrt(N_REPLICATES))
    return value, err


def _count_inside(domain, sob, n: int, lo, span, center, r: float) -> int:
    """How many of sob's next n points, scaled into the box lo + [0, span],
    lie in B_r(center) n domain.

    The points come in blocks of SAMPLE_BLOCK (``Sobol.random`` continues
    the sequence).  Each coordinate is scaled and each squared distance
    summed one coordinate at a time, in the order ``np.linalg.norm`` sums
    them, and the test is sqrt(dist2) < r, not dist2 < r^2, which rounds
    differently; so the count is that of scaling and testing all n points at
    once.  Only the in-ball points reach ``domain.contains``.
    """
    block = min(SAMPLE_BLOCK, n)
    pts = np.empty((len(lo), block))  # one row per coordinate
    count = 0
    for _ in range(n // block):
        u = sob.random(block)
        for j, x in enumerate(pts):
            np.multiply(u[:, j], span[j], out=x)
            x += lo[j]
            dx = x - center[j]
            dx *= dx
            if j == 0:
                dist2 = dx
            else:
                dist2 += dx
        near = np.sqrt(dist2, out=dist2) < r
        count += int(np.count_nonzero(domain.contains(pts[:, near].T)))
    return count


# -- boundary integrals of |beta| ----------------------------------------


def _polyline_boundary_integral(vertices, beta, center, r: float) -> float:
    """int beta ds over the part of the closed polyline inside B_r, with beta
    given at the vertices and linear along each edge; segment-exact."""
    a = np.asarray(vertices, dtype=float) - np.asarray(center, dtype=float)
    d = np.roll(a, -1, axis=0) - a
    t0, t1, _, inside = _circle_crossings(a, d, r * r)
    tm = 0.5 * (t0 + t1)
    b0 = np.asarray(beta)[:, None]
    b1 = np.roll(b0, -1, axis=0)
    seg_len = np.sqrt(d[:, :1] * d[:, :1] + d[:, 1:] * d[:, 1:])
    piece = (b0 * (1 - tm) + b1 * tm) * (t1 - t0) * seg_len
    return math.fsum(piece[inside])


@functools.cache
def _grim_reaper_grid():
    """Cell midpoints x1 on (-pi/2, pi/2) and the curve heights -log cos x1."""
    x1 = np.linspace(-np.pi / 2, np.pi / 2, GRIM_REAPER_GRID + 1)[1:-1]
    z = -np.log(np.cos(x1))
    x1.flags.writeable = z.flags.writeable = False  # shared by every caller
    return x1, z


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
    if isinstance(domain, AnalyticDomain) and domain.variant in ("disk", "ellipse"):
        domain = domain.boundary_curve(4096)
    if isinstance(domain, PlanarCurve):
        return _polyline_boundary_integral(
            domain.vertices, np.abs(domain.curvature()), center, r
        )
    v = domain.variant

    if v in ("half_plane", "slab", "catenoid_3d"):
        return 0.0  # flat (half-plane, slab) or minimal (catenoid) boundaries

    if v in ("grim_reaper_2d", "grim_reaper_product"):
        if domain.dim != 2:
            raise CollapseError("grim reaper boundary integral implemented in 2D")
        # H ds = dx1 exactly (H = cos x1, ds = dx1 / cos x1): the integral is
        # the x1-measure of the in-ball part of the curve, to grid resolution
        x1, z = _grim_reaper_grid()
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

    # a volume depends only on (center, radius) here, so each is computed
    # once: on dyadic radii every half ball is the previous row's full ball
    volumes = {}

    def volume(center, r):
        key = (center.tobytes(), r)
        if key not in volumes:
            volumes[key] = ball_intersection_volume(domain, center, r, budget, seed)
        return volumes[key]

    rows = []
    for center, r in zip(centers, radii):
        v_full, e_full = volume(center, r)
        v_half, e_half = volume(center, r / 2)
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
    meta = {"beta_spec": str(beta_spec), "budget": budget, "seed": seed,
            "volumes_evaluated": len(volumes),
            "volumes_reused": 2 * len(rows) - len(volumes)}
    return RatioScan(rows, dim, trend, meta=meta)


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
