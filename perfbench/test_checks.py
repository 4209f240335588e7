"""Tests for the benchmark's references and checks: ``python3 -m pytest perfbench``.

Each reference is compared with an independent computation, and each check
is shown to accept a correct output and to reject a perturbed one.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import checks
import tracing


# -- references --------------------------------------------------------------


@pytest.mark.parametrize("R,tau", [(1.0, 0.5), (1.0, 0.25), (2.0, 0.3)])
def test_disk_mu_is_W_of_the_radial_profile(R, tau):
    """W_beta of u ~ e^{-|x|^2/4tau} on B_R with beta = R/2tau, by quadrature."""
    c = math.log(1.0 - math.exp(-R * R / (4 * tau)))  # mass normalization of f

    def u(r):
        return math.exp(-(r * r / (4 * tau) + c)) / (4 * math.pi * tau)

    # tau |grad f|^2 + f - 2 = r^2/4tau + r^2/4tau + c - 2
    volume, _ = quad(lambda r: (r * r / (2 * tau) + c - 2) * u(r) * 2 * math.pi * r, 0, R)
    boundary = 2 * tau * (R / (2 * tau)) * u(R) * 2 * math.pi * R
    assert volume + boundary == pytest.approx(checks.disk_mu(R, tau), abs=1e-10)


def test_disk_mu_reference_value():
    assert checks.disk_mu(1.0, 0.5) == pytest.approx(-0.93275, abs=1e-5)


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 4.0, 64.0])
def test_slab_area_by_quadrature(r):
    area, _ = quad(lambda y: 2 * math.sqrt(max(r * r - y * y, 0.0)), -min(r, 1.0), min(r, 1.0))
    assert checks.slab_disk_area(r) == pytest.approx(area, rel=1e-9)


def test_square_radii_and_area():
    sq = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    assert checks.inradius(sq) == pytest.approx(1.0)
    assert checks.circumradius(sq) == pytest.approx(math.sqrt(2.0))
    assert checks.shoelace_area(sq) == pytest.approx(4.0)
    assert checks.inradius(sq, (0.5, 0.0)) == pytest.approx(0.5)


def test_ellipse_polygon_area_and_radii():
    m, a, b = 512, 1.2, 0.8
    v = checks.ellipse_polygon(a, b, m)
    # the inscribed polygon of an ellipse is an affine image of a regular one
    assert checks.shoelace_area(v) == pytest.approx(0.5 * m * a * b * math.sin(2 * math.pi / m), rel=1e-14)
    assert checks.circumradius(v) == pytest.approx(a)
    assert b * math.cos(math.pi / m) <= checks.inradius(v) <= b


def test_trefoil_is_non_convex_and_ccw():
    v = checks.trefoil_polygon(512)
    assert checks.shoelace_area(v) > 0
    e = np.roll(v, -1, axis=0) - v
    turn = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    assert (turn < 0).any() and (turn > 0).any()


# -- checks accept correct outputs and reject perturbed ones ------------------


def test_entropy_check():
    mu = checks.disk_mu(1.0, 0.5)
    good = {"mu": mu + 1e-5, "el_residual": 1e-7, "W_constancy": 1e-4}
    assert checks.check_entropy(good, mu_ref=mu) == []
    assert checks.check_entropy(dict(good, mu=mu + 6e-3), mu_ref=mu)
    assert checks.check_entropy(dict(good, el_residual=2e-5))
    assert checks.check_entropy(dict(good, W_constancy=0.03))
    zero = {"mu": -0.02, "el_residual": 1e-7, "W_constancy": 1e-4}
    assert checks.check_entropy(zero, mu_range=(-0.05, 0.01)) == []
    assert checks.check_entropy(dict(zero, mu=0.02), mu_range=(-0.05, 0.01))


def test_logsobolev_check():
    assert checks.check_logsobolev({"violations": 0}) == []
    assert checks.check_logsobolev({"violations": 1})


def test_area_law_check():
    t = np.linspace(0.0, 0.2, 21)
    rows = [{"t": ti, "area": 3.0 - 2 * math.pi * ti + 1e-6 * math.sin(ti)} for ti in t]
    assert checks.check_area_law(rows) == []
    rows[7]["area"] += 2e-4
    assert checks.check_area_law(rows)


def test_mass_drift_and_gap_checks():
    assert checks.check_mass_drift({"max_mass_drift": 3e-15}) == []
    assert checks.check_mass_drift({"max_mass_drift": 1e-9})
    gaps = {"max_gap_a_rel": 0.02, "max_gap_gradw_rel": 0.06}
    assert checks.check_identity_gaps(gaps) == []
    assert checks.check_identity_gaps(dict(gaps, max_gap_gradw_rel=0.505))
    assert checks.check_identity_gaps(dict(gaps, max_gap_a_rel=0.388))


def test_shrinker_check_ignores_ok_flag():
    good = {k: {"value": 1e-4, "ok": True} for k in
            ("W_constant_along_flow", "boundary_term_harnack", "volume_term")}
    good["mass_drift"] = {"value": 2e-15, "ok": True}
    assert checks.check_shrinker(good) == []
    for key, bad in (("volume_term", 6e-3), ("mass_drift", 1e-6),
                     ("boundary_term_harnack", -6e-3)):
        perturbed = dict(good, **{key: {"value": bad, "ok": True}})
        assert checks.check_shrinker(perturbed)


def test_slab_scan_check():
    rows = [{"r": r, "V_full": checks.slab_disk_area(r) * (1 + 1e-5)} for r in (4, 8, 16)]
    assert checks.check_slab_scan(rows) == []
    rows[1]["V_full"] *= 1.002
    assert checks.check_slab_scan(rows)


def _polygon_rows(v):
    area = checks.shoelace_area(v)
    rows = []
    for r in np.linspace(0.1, 2.5, 25):
        if r < checks.inradius(v):
            rows.append({"r": r, "V_full": math.pi * r * r, "beta_integral": 0.0})
        elif r > checks.circumradius(v):
            rows.append({"r": r, "V_full": area, "beta_integral": 2 * math.pi})
        else:
            rows.append({"r": r, "V_full": 0.5 * area, "beta_integral": 1.0})
    return rows


def test_polygon_scan_check():
    v = checks.ellipse_polygon(1.2, 0.8, 512)
    assert checks.check_polygon_scan(_polygon_rows(v), v) == []
    for idx, key in ((0, "V_full"), (-1, "V_full"), (-1, "beta_integral")):
        rows = _polygon_rows(v)
        rows[idx][key] *= 1 + 1e-10
        assert checks.check_polygon_scan(rows, v)
    # a scan that never leaves the annulus between the two radii proves nothing
    rows = [r for r in _polygon_rows(v) if 0.8 <= r["r"] <= 1.2]
    assert checks.check_polygon_scan(rows, v)


def test_grim_reaper_check():
    rows = [{"r": 2.0**k, "ratio": 0.5 / 2.0**k} for k in range(1, 9)]
    assert checks.check_grim_reaper_scan(rows) == []
    flat = [dict(r) for r in rows]
    flat[3]["ratio"] = flat[2]["ratio"]
    assert checks.check_grim_reaper_scan(flat)
    high = [dict(r, ratio=r["ratio"] + 0.05) for r in rows]
    assert checks.check_grim_reaper_scan(high)


# -- span reduction -------------------------------------------------------------


def test_layer_metrics_self_time_and_nesting():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "meshing.triangulate", "start": 1.0, "end": 5.0, "parent": 0},
        {"name": "meshing._triangulate_once", "start": 1.5, "end": 4.5, "parent": 1},
        {"name": "geometry.PlanarCurve.contains_points", "start": 2.0, "end": 3.0, "parent": 2},
        {"name": "functional.log_sobolev_constants", "start": 6.0, "end": 8.0, "parent": 0},
        {"name": "functional.log_sobolev_check", "start": 6.5, "end": 7.0, "parent": 4},
        {"name": "functional.log_sobolev_check", "start": 8.0, "end": 8.5, "parent": 0},
    ]
    m = tracing.layer_metrics(spans, {"cli.cache_hits": 2})
    assert m["meshing.triangulate_s"] == 4.0
    assert m["meshing.attempts"] == 1 and m["meshing.triangulate_calls"] == 1
    assert m["geometry.contains_points_s"] == 1.0
    assert m["functional.log_sobolev_s"] == 2.5  # nested check not counted twice
    assert m["meshing.self_s"] == 3.0
    assert m["geometry.self_s"] == 1.0
    assert m["functional.self_s"] == 2.5
    assert m["cli.self_s"] == 10.0 - 4.0 - 2.0 - 0.5
    assert m["cli.cache_hits"] == 2 and m["cli.cache_misses"] == 0
    assert set(m) | set(tracing.RUNNER_METRICS) == set(tracing.PER_LAYER)
