"""End-to-end acceptance battery.

Each test prints one [PASS]/[FAIL] line with the measured numbers before
asserting, so a full run gives a one-page summary of every criterion.
Criteria 1 and 8 are the ``verify --suite shrinker`` and ``--suite collapse``
batteries of ``entropylab.cli``; their tests report and assert them.
"""

import numpy as np
import pytest

from entropylab import (
    cli,
    conjugate,
    fem,
    flow,
    functional as fn,
    harnack,
    minimizer as mz,
)
from entropylab.geometry import PlanarCurve
from entropylab.meshing import triangulate

TAU = 0.5
MU_DISK = np.log(1.0 - np.exp(-0.5))


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# -- shared expensive stages ------------------------------------------------


@pytest.fixture(scope="module")
def shrinker_checks():
    # criterion 1's battery at h = 0.02, 500 steps per unit tau
    return cli.verify_shrinker()


@pytest.fixture(scope="module")
def ellipse_trajectory():
    curve = PlanarCurve.ellipse(1.2, 0.8, 512)
    return flow.run_flow(curve, 0.6, 81)


@pytest.fixture(scope="module")
def ellipse_states(ellipse_trajectory):
    traj = ellipse_trajectory
    # base level: every other snapshot, h = 0.02, 500 steps per unit tau;
    # fine level: all snapshots, h and time step refined together
    base_traj = flow.FlowTrajectory(
        traj.snapshots[::2], traj.a, traj.T_est, traj.truncated
    )
    base = conjugate.solve_from_minimizer(base_traj, h=0.02, steps_per_tau=500)
    fine = conjugate.solve_from_minimizer(
        traj, h=0.02 / np.sqrt(2.0), steps_per_tau=1000
    )
    return base, fine


@pytest.fixture(scope="module")
def ellipse_reports(ellipse_states):
    base, fine = ellipse_states
    # the skip windows cover the same time interval at both levels
    return (
        harnack.rate_identity_check(base, skip=5),
        harnack.rate_identity_check(fine, skip=10),
    )


@pytest.fixture(scope="module")
def disk_ops():
    return fem.assemble(triangulate(PlanarCurve.circle(1.0, 512), 0.02))


@pytest.fixture(scope="module")
def disk_min(disk_ops):
    return mz.minimize(disk_ops, TAU, 1.0)


@pytest.fixture(scope="module")
def large_ops():
    return fem.assemble(triangulate(PlanarCurve.circle(6.0, 512), 0.15))


@pytest.fixture(scope="module")
def large_min(large_ops):
    return mz.minimize(large_ops, TAU, 0.0, tol=1e-7)


# -- criteria ----------------------------------------------------------------


def test_01_shrinker_equality_battery(shrinker_checks):
    c = {name: check["value"] for name, check in shrinker_checks.items()}
    ok = all(check["ok"] for check in shrinker_checks.values())
    _report(
        "criterion 1 (shrinking-disk equalities)",
        ok,
        f"|W-mu|={c['W_equals_mu']:.2e} bhar={c['boundary_term_harnack']:.2e} "
        f"bdir={c['boundary_term_direct']:.2e} vol={c['volume_term']:.2e} "
        f"f_err={c['f_profile_error']:.2e} (tol 5e-3)",
    )
    assert ok


def test_02_identity_gaps_shrink_under_refinement(ellipse_reports):
    rep_base, rep_fine = ellipse_reports
    ga_b, gg_b = rep_base.max_gap_a_rel(), rep_base.max_gap_gradw_rel()
    ga_f, gg_f = rep_fine.max_gap_a_rel(), rep_fine.max_gap_gradw_rel()
    shrink_a = ga_b / ga_f
    shrink_g = gg_b / gg_f
    ok = (
        ga_b <= 0.10 and gg_b <= 0.10 and ga_f <= 0.10 and gg_f <= 0.10
        and shrink_a >= 2.0 and shrink_g >= 2.0
    )
    _report(
        "criterion 2 (identity gaps, two resolutions)",
        ok,
        f"gapA {ga_b:.4f}->{ga_f:.4f} (x{shrink_a:.2f}), "
        f"gapGradW {gg_b:.4f}->{gg_f:.4f} (x{shrink_g:.2f}); "
        "tol: each <= 0.10, shrink >= 2",
    )
    assert ok


def test_03_mass_conservation(shrinker_checks, ellipse_states):
    drifts = [shrinker_checks["mass_drift"]["value"]] + [
        s.max_mass_drift() for s in ellipse_states
    ]
    worst = max(drifts)
    ok = worst <= 1e-3
    _report(
        "criterion 3 (conjugate mass conservation)",
        ok,
        f"max |int u - 1| = {worst:.2e} over 3 solves (tol 1e-3)",
    )
    assert ok


def test_04_mu_reference_values(disk_min, large_min):
    # (a) unit disk at tau = 1/2 with beta = 1
    err_disk = abs(disk_min.mu - MU_DISK)
    # (b) truncated half plane: normalization shift = log(1/2)
    box = PlanarCurve.rectangle(-7.0, -7.0, 7.0, 0.0, 64)
    ops_hp = fem.assemble(triangulate(box, 0.09))
    f_hp = np.sum(ops_hp.mesh.vertices**2, axis=1) / (4.0 * TAU)
    _, shift = fn.normalize(ops_hp, f_hp, TAU)
    err_hp = abs(shift - np.log(0.5))
    # (c) large disk with beta = 0: mu close to the whole-plane value 0
    in_range = -0.05 <= large_min.mu <= 0.01
    ok = (
        err_disk <= 5e-3 and disk_min.mu < 0 and err_hp <= 1e-3
        and in_range and disk_min.converged and large_min.converged
    )
    _report(
        "criterion 4 (reference mu values)",
        ok,
        f"disk |mu-log(1-e^-1/2)|={err_disk:.2e} (tol 5e-3, sign neg), "
        f"half-plane |shift-log(1/2)|={err_hp:.2e} (tol 1e-3), "
        f"large disk mu={large_min.mu:.4f} in [-0.05, 0.01]",
    )
    assert ok


def test_05_minimizer_criticality(disk_min, large_min):
    worst_wc = max(
        disk_min.W_constancy / (1 + abs(disk_min.mu)),
        large_min.W_constancy / (1 + abs(large_min.mu)),
    )
    worst_res = max(disk_min.el_residual, large_min.el_residual)
    ok = worst_wc <= 1e-2 and worst_res <= 1e-5
    _report(
        "criterion 5 (criticality of minimizers)",
        ok,
        f"W-field constancy <= {worst_wc:.2e} (tol 1e-2), "
        f"EL residual <= {worst_res:.2e} (tol 1e-5)",
    )
    assert ok


def test_06_sandwich_bounds(disk_ops, disk_min, large_ops, large_min):
    rows = []
    ok = True
    for ops, res, curve, sup_beta, r in (
        (disk_ops, disk_min, PlanarCurve.circle(1.0, 512), 1.0, 0.5),
        (large_ops, large_min, PlanarCurve.circle(6.0, 512), 0.0, 3.0),
    ):
        consts = fn.log_sobolev_constants(ops)
        lb, _ = fn.lower_bound_rhs(TAU, sup_beta, consts)
        ub = fn.volume_ratio_upper_bound(curve, "zero", (0.0, 0.0), r)["value"]
        ok = ok and lb <= res.mu <= ub
        rows.append(f"{lb:.2f} <= {res.mu:.4f} <= {ub:.1f}")
    _report("criterion 6 (lower/upper sandwich)", ok, "; ".join(rows))
    assert ok


def test_07_scaling_invariance(disk_ops):
    lam, x0 = 3.0, np.array([1.0, -2.0])
    f1 = np.sum(disk_ops.mesh.vertices**2, axis=1) / (4.0 * TAU)
    rep1 = fn.w_beta(disk_ops, f1, TAU, 1.0)
    curve = PlanarCurve.circle(1.0 / lam, 512, center=(-x0[0] / lam, -x0[1] / lam))
    ops2 = fem.assemble(triangulate(curve, 0.02 / lam))
    y = ops2.mesh.vertices
    x = lam * y + x0
    f2 = np.sum(x**2, axis=1) / (4.0 * TAU)
    nb = ops2.mesh.n_boundary
    nu = ops2.mesh.boundary_curve().outward_normal()
    beta2 = lam * np.einsum("ij,ij->i", x[:nb], nu) / (2.0 * TAU)
    rep2 = fn.w_beta(ops2, f2, TAU / lam**2, beta2)
    diff = abs(rep1.w_beta - rep2.w_beta)
    ok = diff <= 1e-3
    _report(
        "criterion 7 (scaling covariance)",
        ok,
        f"|W - W_scaled| = {diff:.2e} at lambda=3, x0=(1,-2) (tol 1e-3)",
    )
    assert ok


def test_08_collapsed_examples():
    checks = cli.verify_collapse()
    c = {name: check["value"] for name, check in checks.items()}
    ok = all(check["ok"] for check in checks.values())
    _report(
        "criterion 8 (collapsed model geometries)",
        ok,
        f"slab R^2={c['slab_inverse_r_fit']:.5f} (>=0.99), "
        f"catenoid R^2={c['catenoid_r2_log_r_fit']:.5f} (>=0.98), "
        f"grim reaper ratio@256={c['grim_reaper_ratio_at_256']:.4f} (<0.05, H-term<= "
        f"{c['grim_reaper_h_term']:.3f}), "
        f"sphere c(n) exact to 1%: {checks['shrinking_sphere_c_rel_err']['ok']}",
    )
    assert ok


def test_09_static_grid_identities():
    single = harnack.appendix_c_residual(centers=((0.0, 0.0),), n=21, dt=0.05)
    r_coarse = harnack.appendix_c_residual(n=41)["perelman_identity"]
    r_fine = harnack.appendix_c_residual(n=81)["perelman_identity"]
    order = float(np.log2(r_coarse / r_fine))
    boch = harnack.bochner_residual_cubic()
    ok = single["perelman_identity"] <= 1e-10 and order >= 1.8 and boch <= 1e-8
    _report(
        "criterion 9 (pointwise evolution identities)",
        ok,
        f"single-Gaussian residual={single['perelman_identity']:.2e} (tol 1e-10), "
        f"two-Gaussian order={order:.2f} (>=1.8), Bochner={boch:.2e} (tol 1e-8)",
    )
    assert ok


def test_10_log_sobolev_battery(disk_ops):
    # the battery the logsobolev command runs, at its default seed
    _, rows = fn.log_sobolev_battery(disk_ops, (0.1, 1.0, 10.0), 100, seed=0)
    violations = sum(not holds for *_, holds in rows)
    ok = violations == 0
    _report(
        "criterion 10 (log-Sobolev inequality battery)",
        ok,
        f"{violations} violations over 100 fields x eps in {{0.1, 1, 10}}",
    )
    assert ok


def test_11_flow_oracles(ellipse_trajectory):
    # circle radius law
    traj_c = flow.run_flow(PlanarCurve.circle(1.0, 512), 0.75, 16)
    s = traj_c.snapshots[-1]
    r_err = abs(
        np.linalg.norm(s.curve.vertices, axis=1).mean() - np.sqrt(1.0 - 2.0 * s.t)
    )
    # area law on the ellipse (reusing the criterion-2 trajectory) and on a
    # non-convex wavy circle
    th = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    rho = 1.0 + 0.15 * np.cos(3 * th)
    wavy = PlanarCurve(np.column_stack([rho * np.cos(th), rho * np.sin(th)]))
    a_err = 0.0
    for traj in (ellipse_trajectory, flow.run_flow(wavy, 0.5, 11)):
        A0 = traj.snapshots[0].area
        for snap in traj.snapshots:
            a_err = max(a_err, abs(snap.area - (A0 - 2.0 * np.pi * snap.t)))
    ok = r_err <= 1e-4 and a_err <= 1e-4
    _report(
        "criterion 11 (flow against exact laws)",
        ok,
        f"circle radius err={r_err:.2e} (tol 1e-4), "
        f"area-law err={a_err:.2e} (tol 1e-4)",
    )
    assert ok
