"""Reference values and output checks for the benchmark workloads.

Every reference here is computed without entropylab: closed forms, or plain
numpy geometry on polygons the benchmark builds itself.  Each ``check_*``
function takes a command's parsed output and returns a list of failure
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# -- references ------------------------------------------------------------


def disk_mu(R: float, tau: float) -> float:
    """mu_beta of the disk of radius R for beta = x.nu / 2tau.

    f = |x|^2/4tau (shifted to unit mass) makes tau|grad f|^2 + f constant,
    so it is critical and mu = log of the Gaussian mass inside the disk.
    """
    return math.log(-math.expm1(-R * R / (4.0 * tau)))


def slab_disk_area(r: float, d: float = 1.0) -> float:
    """Area of the disk of radius r about the origin inside |y| < d."""
    if r <= d:
        return math.pi * r * r
    return 2.0 * (d * math.sqrt(r * r - d * d) + r * r * math.asin(d / r))


def ellipse_polygon(a: float, b: float, m: int) -> np.ndarray:
    th = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([a * np.cos(th), b * np.sin(th)])


def trefoil_polygon(m: int, amplitude: float = 0.15) -> np.ndarray:
    """Counter-clockwise polygon r = 1 + amplitude cos 3 theta (non-convex)."""
    th = 2.0 * np.pi * np.arange(m) / m
    r = 1.0 + amplitude * np.cos(3.0 * th)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def shoelace_area(v: np.ndarray) -> float:
    w = np.roll(v, -1, axis=0)
    return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


def inradius(v: np.ndarray, center=(0.0, 0.0)) -> float:
    """Distance from center to the nearest point of the closed polygon."""
    c = np.asarray(center, dtype=float)
    p, q = v, np.roll(v, -1, axis=0)
    e = q - p
    s = np.clip(np.einsum("ij,ij->i", c - p, e) / np.einsum("ij,ij->i", e, e), 0.0, 1.0)
    return float(np.linalg.norm(p + s[:, None] * e - c, axis=1).min())


def circumradius(v: np.ndarray, center=(0.0, 0.0)) -> float:
    return float(np.linalg.norm(v - np.asarray(center, dtype=float), axis=1).max())


# -- output readers ----------------------------------------------------------


def read_csv(path: str) -> list[dict]:
    """Rows of a numeric CSV as dicts of floats."""
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# -- checks ----------------------------------------------------------------


def check_entropy(payload: dict, mu_ref: float | None = None,
                  mu_range: tuple | None = None) -> list[str]:
    mu = payload["mu"]
    errs = []
    if not payload["el_residual"] <= 1e-5:
        errs.append(f"el_residual {payload['el_residual']:.3e} > 1e-5")
    if not payload["W_constancy"] <= 1e-2 * (1.0 + abs(mu)):
        errs.append(f"W_constancy {payload['W_constancy']:.3e} > 1e-2 (1 + |mu|)")
    if mu_ref is not None and not abs(mu - mu_ref) <= 5e-3:
        errs.append(f"mu {mu!r} differs from closed form {mu_ref!r} by more than 5e-3")
    if mu_range is not None and not mu_range[0] <= mu <= mu_range[1]:
        errs.append(f"mu {mu!r} outside {list(mu_range)}")
    return errs


def check_logsobolev(payload: dict) -> list[str]:
    v = payload["violations"]
    return [f"{v} log-Sobolev violations"] if v != 0 else []


def check_area_law(rows: list[dict]) -> list[str]:
    """Curve shortening flow loses area at exactly 2 pi per unit time."""
    t = np.array([r["t"] for r in rows])
    area = np.array([r["area"] for r in rows])
    err = float(np.abs(area - (area[0] - 2.0 * np.pi * t)).max())
    return [f"area-law error {err:.3e} > 1e-4"] if not err <= 1e-4 else []


def check_mass_drift(payload: dict) -> list[str]:
    d = payload["max_mass_drift"]
    return [f"max_mass_drift {d:.3e} > 1e-10"] if not d <= 1e-10 else []


def check_identity_gaps(payload: dict) -> list[str]:
    return [
        f"{k} {payload[k]:.4f} > 0.10"
        for k in ("max_gap_a_rel", "max_gap_gradw_rel")
        if not payload[k] <= 0.10
    ]


def check_shrinker(values: dict) -> list[str]:
    """Own bounds on the values of verify-shrinker.json (its 'ok' is ignored)."""
    bounds = {
        "W_constant_along_flow": 5e-3,
        "boundary_term_harnack": 5e-3,
        "volume_term": 5e-3,
        "mass_drift": 1e-10,
    }
    return [
        f"{k} {values[k]['value']:.3e} > {b:g}"
        for k, b in bounds.items()
        if not abs(values[k]["value"]) <= b
    ]


def check_slab_scan(rows: list[dict]) -> list[str]:
    errs = []
    for row in rows:
        ref = slab_disk_area(row["r"])
        if not abs(row["V_full"] - ref) <= 1e-3 * ref:
            errs.append(f"slab V_full {row['V_full']!r} at r={row['r']:g}, exact {ref!r}")
    return errs


def check_polygon_scan(rows: list[dict], vertices: np.ndarray) -> list[str]:
    """Exact clipping of a polygon about the origin, rows below and above it."""
    r_in, r_out = inradius(vertices), circumradius(vertices)
    area = shoelace_area(vertices)
    errs, below, above = [], 0, 0

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))

    for row in rows:
        r = row["r"]
        if r < r_in:
            below += 1
            if not close(row["V_full"], math.pi * r * r):
                errs.append(f"V_full {row['V_full']!r} != pi r^2 at r={r:g}")
        elif r > r_out:
            above += 1
            if not close(row["V_full"], area):
                errs.append(f"V_full {row['V_full']!r} != polygon area {area!r} at r={r:g}")
            if not close(row["beta_integral"], 2.0 * math.pi):
                errs.append(f"beta_integral {row['beta_integral']!r} != 2 pi at r={r:g}")
    if not (below and above):
        errs.append("scan has no radius below the inradius or above the circumradius")
    return errs


def check_grim_reaper_scan(rows: list[dict]) -> list[str]:
    ratio = [row["ratio"] for row in rows]
    errs = []
    if not all(b < a for a, b in zip(ratio, ratio[1:])):
        errs.append(f"ratio not strictly decreasing: {ratio}")
    if not ratio[-1] < 0.05:
        errs.append(f"ratio {ratio[-1]!r} >= 0.05 at r={rows[-1]['r']:g}")
    return errs
