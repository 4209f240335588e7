"""Discrete differential geometry of embedded closed planar curves.

Curves are closed polylines with counter-clockwise orientation, so the
outward normal points away from the enclosed region.  Curvature uses the
turning-angle formula, which satisfies the discrete Gauss-Bonnet identity
sum(kappa_i * ds_i) = 2*pi exactly.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Raised for degenerate or self-intersecting curve input."""


def _as_vertex_array(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise GeometryError("vertices must be an (m, 2) array")
    if not np.isfinite(v).all():
        raise GeometryError("vertex coordinates must be finite")
    # only an exact repeat of vertex 0 closes the polygon: a tolerance relative
    # to the coordinates drops a distinct last vertex far from the origin
    if v.shape[0] >= 2 and np.array_equal(v[0], v[-1]):
        v = v[:-1]
    return v


def _is_embedded(x: np.ndarray) -> bool:
    """Self-intersection test of the closed polyline x by plane sweep.

    Candidate pairs are segments whose x-intervals overlap (then filtered by
    y-interval overlap); the exact crossing test runs only on those.  For
    well-spaced curves this is effectively O(m log m).
    """
    m = len(x)
    d = np.roll(x, -1, axis=0) - x
    e = x + d
    xmin = np.minimum(x[:, 0], e[:, 0])
    xmax = np.maximum(x[:, 0], e[:, 0])
    ymin = np.minimum(x[:, 1], e[:, 1])
    ymax = np.maximum(x[:, 1], e[:, 1])
    order = np.argsort(xmin, kind="stable")
    ends = np.searchsorted(xmin[order], xmax[order], side="right")
    k = np.arange(m)
    counts = np.maximum(ends - k - 1, 0)
    tot = int(counts.sum())
    if tot == 0:
        return True
    ii = np.repeat(k, counts)
    jj = _ragged_arange(counts) + ii + 1
    a = order[ii]
    b = order[jj]
    diff = (a - b) % m
    keep = (diff != 1) & (diff != m - 1) & (diff != 0)
    keep &= (ymin[a] <= ymax[b]) & (ymin[b] <= ymax[a])
    a, b = a[keep], b[keep]
    if not len(a):
        return True
    r = d[a]
    s = d[b]
    pqx = x[b, 0] - x[a, 0]
    pqy = x[b, 1] - x[a, 1]
    rxs = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    qpxr = pqx * r[:, 1] - pqy * r[:, 0]
    qpxs = pqx * s[:, 1] - pqy * s[:, 0]
    # t = qpxs/rxs, u = qpxr/rxs; the in-(0,1) test is done division-free
    t = qpxs * rxs
    u = qpxr * rxs
    rxs2 = rxs * rxs
    return not bool(np.any((t > 0) & (t < rxs2) & (u > 0) & (u < rxs2)))


@dataclass
class PlanarCurve:
    """Embedded closed polyline representing the boundary of a planar region."""

    vertices: np.ndarray
    check_embedded: bool = True
    dim = 2  # a class attribute, not a field: the ambient dimension

    def __post_init__(self):
        self.vertices = _as_vertex_array(self.vertices)
        m = len(self.vertices)
        if m < 3:
            raise GeometryError("need at least 3 distinct vertices")
        if np.any(self.edge_lengths() < 1e-14):
            raise GeometryError("degenerate (zero-length) segment")
        if self.check_embedded and not self.is_embedded():
            raise GeometryError("curve is not embedded (self-intersection)")

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def ccw(self) -> bool:
        return self.signed_area() > 0.0

    def edges(self) -> np.ndarray:
        v = self.vertices
        return np.roll(v, -1, axis=0) - v

    def edge_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.edges(), axis=1)

    def signed_area(self) -> float:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))

    def enclosed_area(self) -> float:
        return abs(self.signed_area())

    def arc_length(self) -> float:
        return float(self.edge_lengths().sum())

    def is_embedded(self) -> bool:
        """True if no two non-adjacent edges cross."""
        return _is_embedded(self.vertices)

    # -- differential quantities ----------------------------------------

    def turning_angles(self) -> np.ndarray:
        """Signed exterior angle at each vertex (positive where CCW-convex)."""
        e = self.edges()
        e_prev = np.roll(e, 1, axis=0)
        cross = e_prev[:, 0] * e[:, 1] - e_prev[:, 1] * e[:, 0]
        dot = np.sum(e_prev * e, axis=1)
        return np.arctan2(cross, dot)

    def curvature(self) -> np.ndarray:
        """Discrete curvature: turning angle over averaged adjacent edge length.

        Positive where the curve bends toward the enclosed region; for a
        CCW convex curve this gives kappa > 0 everywhere.
        """
        ds = self.vertex_weights()
        return self.turning_angles() / ds

    def vertex_weights(self) -> np.ndarray:
        """Arc-length quadrature weight per vertex (half of adjacent edges)."""
        L = self.edge_lengths()
        return 0.5 * (L + np.roll(L, 1))

    def outward_normal(self) -> np.ndarray:
        """Unit outward normals per vertex (for CCW orientation)."""
        t = self.unit_tangent()
        return np.column_stack([t[:, 1], -t[:, 0]])

    def unit_tangent(self) -> np.ndarray:
        e = self.edges()
        t = np.roll(e, 1, axis=0) + e
        return t / np.linalg.norm(t, axis=1)[:, None]

    def tangential_gradient(self, values) -> np.ndarray:
        """Arc-length derivative d/ds of a per-vertex field, O(h^2) centered."""
        f = np.asarray(values, dtype=float)
        if len(f) != len(self.vertices):
            raise GeometryError("field length must equal vertex count")
        if len(f) < 3:
            raise GeometryError("need at least 3 vertices")
        L = self.edge_lengths()
        hm = np.roll(L, 1)          # |x_i - x_{i-1}|
        hp = L                      # |x_{i+1} - x_i|
        fm = np.roll(f, 1)
        fp = np.roll(f, -1)
        return (fp * hm**2 - fm * hp**2 + f * (hp**2 - hm**2)) / (
            hm * hp * (hm + hp)
        )

    # -- construction helpers -------------------------------------------

    @staticmethod
    def circle(radius: float, m: int, center=(0.0, 0.0)) -> "PlanarCurve":
        return PlanarCurve.ellipse(radius, radius, m, center)

    @staticmethod
    def ellipse(a: float, b: float, m: int, center=(0.0, 0.0)) -> "PlanarCurve":
        th = 2 * np.pi * np.arange(m) / m
        v = np.column_stack(
            [center[0] + a * np.cos(th), center[1] + b * np.sin(th)]
        )
        return PlanarCurve(v, check_embedded=False)

    @staticmethod
    def rectangle(x0, y0, x1, y1, m_per_side: int = 1) -> "PlanarCurve":
        def side(p, q):
            t = np.linspace(0.0, 1.0, m_per_side, endpoint=False)[:, None]
            return (1 - t) * np.asarray(p) + t * np.asarray(q)

        v = np.vstack(
            [
                side((x0, y0), (x1, y0)),
                side((x1, y0), (x1, y1)),
                side((x1, y1), (x0, y1)),
                side((x0, y1), (x0, y0)),
            ]
        )
        return PlanarCurve(v, check_embedded=False)

    def contains_points(self, points) -> np.ndarray:
        """Even-odd crossing test.

        Edges are binned by the y-bins their span covers, and each point is
        tested only against the edges of its own bin: no other edge can
        straddle the point's y.  A bin is about as tall as the mean y-extent
        of the non-horizontal edges (Haines 1994), so each edge covers about
        two bins and each point meets a few edges, whatever the curve; when
        every edge spans the full height there is one bin.  Each (point,
        edge) pair uses the same crossing arithmetic as a dense test.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        ylo = np.minimum(v[:, 1], w[:, 1])
        yhi = np.maximum(v[:, 1], w[:, 1])
        # bin(y) is monotone in y, so an edge with ylo <= y < yhi is listed
        # in bin(y); horizontal edges never straddle and are left out
        e = np.flatnonzero(ylo < yhi)
        nbins = 1
        if len(e):
            mean_dy = np.mean(yhi[e] - ylo[e])
            nbins = int(np.clip((yhi.max() - ylo.min()) / mean_dy, 1, len(v)))
        bounds = np.linspace(ylo.min(), yhi.max(), nbins + 1)
        first = np.clip(np.searchsorted(bounds, ylo[e], side="right") - 1, 0, nbins - 1)
        span = np.clip(np.searchsorted(bounds, yhi[e], side="right") - 1, 0, nbins - 1)
        span -= first - 1
        bin_of = np.repeat(first, span) + _ragged_arange(span)
        bin_edges = np.repeat(e, span)[np.argsort(bin_of, kind="stable")]
        bin_count = np.bincount(bin_of, minlength=nbins)
        bin_start = np.cumsum(bin_count) - bin_count

        pbin = np.searchsorted(bounds, pts[:, 1], side="right") - 1
        p = np.flatnonzero((pbin >= 0) & (pbin < nbins))
        n = bin_count[pbin[p]]
        i = np.repeat(p, n)
        j = bin_edges[np.repeat(bin_start[pbin[p]], n) + _ragged_arange(n)]
        x, y = pts[i, 0], pts[i, 1]
        x1, y1 = v[j, 0], v[j, 1]
        x2, y2 = w[j, 0], w[j, 1]
        cond = (y1 <= y) != (y2 <= y)
        xs = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        crossings = np.bincount(i[cond & (x < xs)], minlength=len(pts))
        return crossings % 2 == 1


def _ragged_arange(counts) -> np.ndarray:
    """Concatenation of arange(c) for each c in counts."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts, counts)


# -- analytic example domains -------------------------------------------


# variant -> the parameters its constructor takes, in spec form (bracketed
# ones are optional): the one list of the analytic variants.  JSON params
# use the same names, and disk also takes a center [x, y].
ANALYTIC_VARIANTS = {
    "disk": "R", "half_plane": "a", "slab": "d[:dim]", "grim_reaper_2d": "",
    "grim_reaper_product": "[n]", "catenoid_3d": "", "ball": "R[:dim]",
    "ellipse": "a:b",
}


@dataclass(frozen=True)
class AnalyticDomain:
    """Explicit domain with exact membership and boundary curvature data.

    Variants: disk(R, center), half_plane(a), slab(d, dim), grim_reaper_2d,
    grim_reaper_product(n), catenoid_3d, ball(R, dim), ellipse(a, b).
    The counts dim and n are integers >= 1, the half plane's level and the
    disk's center are finite, and every other parameter is a positive,
    finite size.
    """

    variant: str
    params: tuple = ()

    def __post_init__(self):
        form = ANALYTIC_VARIANTS.get(self.variant)
        if form is None:
            raise GeometryError(f"unknown analytic variant {self.variant!r}")
        names = re.findall(r"\w+", form) + ["cx", "cy"] * (self.variant == "disk")
        if len(self.params) != len(names):
            raise GeometryError(f"{self.variant} takes {names}, got {self.params!r}")
        params = []
        for name, v in zip(names, self.params):
            real = isinstance(v, numbers.Real) and not isinstance(v, bool)
            try:
                x = float(v) if real else math.nan
            except OverflowError:  # an integer past the float range
                raise GeometryError(f"{self.variant}: {name} is too large") from None
            if name in ("dim", "n"):
                ok, rule = x.is_integer() and x >= 1, "an integer >= 1"
            elif name in ("cx", "cy") or self.variant == "half_plane":
                ok, rule = math.isfinite(x), "finite"
            else:
                ok, rule = 0.0 < x < math.inf, "positive and finite"
            if not ok:
                raise GeometryError(f"{self.variant}: {name} must be {rule}, got {v!r}")
            params.append(int(v) if name in ("dim", "n") else x)
        object.__setattr__(self, "params", tuple(params))

    # constructors
    @staticmethod
    def disk(R, center=(0.0, 0.0)):
        """Disk of radius R about center = (cx, cy)."""
        return AnalyticDomain("disk", (R, *center))

    @staticmethod
    def half_plane(a):
        """Half-space x2 < a in the plane."""
        return AnalyticDomain("half_plane", (a,))

    @staticmethod
    def slab(d, dim=2):
        """|x_dim| < d in R^dim (last coordinate bounded)."""
        return AnalyticDomain("slab", (d, dim))

    @staticmethod
    def grim_reaper_2d():
        return AnalyticDomain("grim_reaper_2d")

    @staticmethod
    def grim_reaper_product(n=1):
        """R^(n-1) x G in R^(n+1); n = 1 is the planar grim reaper region."""
        return AnalyticDomain("grim_reaper_product", (n,))

    @staticmethod
    def catenoid_3d():
        return AnalyticDomain("catenoid_3d")

    @staticmethod
    def ball(R, dim=3):
        return AnalyticDomain("ball", (R, dim))

    @staticmethod
    def ellipse(a, b):
        return AnalyticDomain("ellipse", (a, b))

    @property
    def dim(self) -> int:
        if self.variant in ("ball", "slab"):
            return self.params[1]
        if self.variant == "grim_reaper_product":
            return self.params[0] + 1
        if self.variant == "catenoid_3d":
            return 3
        return 2

    # membership -----------------------------------------------------------

    def contains(self, points) -> np.ndarray:
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if self.variant == "disk":
            R, cx, cy = self.params
            return np.hypot(x[:, 0] - cx, x[:, 1] - cy) < R
        if self.variant == "ball":
            R = self.params[0]
            return np.linalg.norm(x, axis=1) < R
        if self.variant == "half_plane":
            return x[:, -1] < self.params[0]
        if self.variant == "slab":
            return np.abs(x[:, -1]) < self.params[0]
        if self.variant == "ellipse":
            a, b = self.params
            return (x[:, 0] / a) ** 2 + (x[:, 1] / b) ** 2 < 1.0
        if self.variant in ("grim_reaper_2d", "grim_reaper_product"):
            # region G in the last two coordinates, free in the others
            xn, xz = x[:, -2], x[:, -1]
            # here and for the catenoid every row is evaluated, and the
            # region mask discards the rows where log cos or arccosh is
            # undefined; the ufuncs act element by element, so no in-region
            # row's value depends on the other rows
            with np.errstate(invalid="ignore", divide="ignore"):
                return (np.abs(xn) < np.pi / 2) & (xz > -np.log(np.cos(xn)))
        if self.variant == "catenoid_3d":
            rho = np.hypot(x[:, 0], x[:, 1])
            with np.errstate(invalid="ignore"):
                return (rho >= 1.0) & (np.abs(x[:, 2]) <= np.arccosh(rho))

    # boundary data --------------------------------------------------------

    def boundary_curve(self, m: int) -> PlanarCurve:
        """Sampled boundary polyline for 2D bounded variants."""
        if self.variant == "disk":
            R, cx, cy = self.params
            return PlanarCurve.circle(R, m, center=(cx, cy))
        if self.variant == "ellipse":
            a, b = self.params
            return PlanarCurve.ellipse(a, b, m)
        raise GeometryError(f"{self.variant!r} has no bounded 2D boundary curve")


# -- domain description files -------------------------------------------


def load_domain(path):
    """Load a domain description file: polyline curve or analytic variant.

    JSON schema: {"type": "polyline", "vertices": [[x, y], ...]} or
    {"type": "analytic", "variant": "...", "params": {...}}, where params
    are the keyword arguments of the variant's AnalyticDomain constructor.
    A clockwise polyline is reversed, keeping its vertex 0 first.
    """
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise GeometryError(f"a domain is a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "polyline":
        curve = PlanarCurve(np.asarray(obj["vertices"], dtype=float))
        if not curve.ccw:  # the same domain, traversed from the same vertex 0
            curve = PlanarCurve(np.roll(curve.vertices[::-1], 1, axis=0))
        return curve
    if kind == "analytic":
        variant = obj.get("variant")
        if not isinstance(variant, str) or variant not in ANALYTIC_VARIANTS:
            raise GeometryError(f"unknown analytic variant {variant!r}")
        try:
            return getattr(AnalyticDomain, variant)(**obj.get("params", {}))
        except TypeError as e:  # an unknown or missing key
            raise GeometryError(f"{variant} params: {e}") from None
    raise GeometryError(f"unknown domain type {kind!r}")
