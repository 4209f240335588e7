"""End-to-end acceptance battery.

Each test prints one [PASS]/[FAIL] line with the measured numbers before
asserting, so a full run gives a one-page summary of every criterion.
"""

import numpy as np
import pytest

from entropylab import (
    cli,
    collapse,
    conjugate,
    fem,
    flow,
    functional as fn,
    harnack,
    minimizer as mz,
)
from entropylab.geometry import AnalyticDomain, PlanarCurve
from entropylab.meshing import triangulate

TAU = 0.5
MU_DISK = np.log(1.0 - np.exp(-0.5))


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# -- shared expensive stages ------------------------------------------------


@pytest.fixture(scope="module")
def battery_state():
    # backward solve on the exact shrinking circle, dense snapshots
    times = np.arange(0.0, 0.4 + 1e-12, 0.0025)
    traj = flow.analytic_shrinking_disk_trajectory(1.0, times)
    return conjugate.solve_from_minimizer(traj, h=0.02, steps_per_tau=500)


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


def test_01_shrinker_equality_battery(battery_state):
    st = battery_state
    rep = harnack.rate_identity_check(st)
    W = rep.column("W_beta")
    w_const = float(np.abs(W - MU_DISK).max())
    bhar = float(np.abs(rep.column("boundary_term_harnack")).max())
    bdir = float(np.abs(rep.column("boundary_term_direct")).max())
    vol = float(np.abs(rep.column("volume_term")).max())
    # profile check at the earliest snapshot (farthest from the end data)
    mesh = st.meshes[0]
    tau0 = st.trajectory.snapshots[0].tau
    f_num = conjugate.f_from_state(st, 0)
    f_ex = np.sum(mesh.vertices**2, axis=1) / (4.0 * tau0) + MU_DISK
    u = st.u_fields[0]
    ops0 = fem.assemble(mesh)
    f_err = float(np.sqrt(ops0.M_lumped @ (u * (f_num - f_ex) ** 2)))
    ok = w_const <= 5e-3 and bhar <= 5e-3 and bdir <= 5e-3 and vol <= 5e-3 \
        and f_err <= 5e-3
    _report(
        "criterion 1 (shrinking-disk equalities)",
        ok,
        f"|W-mu|={w_const:.2e} bhar={bhar:.2e} bdir={bdir:.2e} "
        f"vol={vol:.2e} f_err={f_err:.2e} (tol 5e-3)",
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


def test_03_mass_conservation(battery_state, ellipse_states):
    drifts = [battery_state.max_mass_drift()] + [
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


def _r_squared(y, pred):
    resid = y - pred
    return 1.0 - float(resid @ resid) / float((y - y.mean()) @ (y - y.mean()))


def test_08_collapsed_examples():
    # slab: V(B_r n slab)/r^2 ~ C/r
    slab = AnalyticDomain.slab(1.0)
    radii = [4.0 * 2.0**k for k in range(8)]
    scan = collapse.ratio_scan(slab, [(0.0, 0.0)], radii)
    r = scan.column("r")
    y = scan.column("ratio")
    x = 1.0 / r
    coef = float((x @ y) / (x @ x))
    r2_slab = _r_squared(y, coef * x)

    # catenoid body: V(B_r) ~ C r^2 log(1 + r)
    cat = AnalyticDomain.catenoid_3d()
    radii_c = [4.0, 8.0, 16.0, 32.0, 64.0]
    scan_c = collapse.ratio_scan(cat, [(0.0, 0.0, 0.0)], radii_c)
    rc = scan_c.column("r")
    vc = scan_c.column("V_full")
    pc = rc**2 * np.log(1.0 + rc)
    coef_c = float((pc @ vc) / (pc @ pc))
    r2_cat = _r_squared(vc, coef_c * pc)

    # grim reaper: ratio decays with centers riding the translator
    gr = AnalyticDomain.grim_reaper_2d()
    radii_g = [2.0**k for k in range(1, 9)]
    centers = [(0.0, r_ * r_) for r_ in radii_g]
    scan_g = collapse.ratio_scan(gr, centers, radii_g, beta_spec="mean_curvature")
    ratios_g = scan_g.column("ratio")
    hterm = (
        scan_g.column("r") ** 2 * scan_g.column("beta_integral")
        / scan_g.column("V_half")
    )
    c1_max = float(scan_g.column("c1").max())
    gr_ok = (
        np.all(np.diff(ratios_g) < 0)
        and ratios_g[-1] < 0.05
        and hterm.max() <= 1.0
        and c1_max < 4.0
    )

    # shrinking spheres: rate constant c(n) = (n+1)/2 within 1%
    sph_ok = True
    for n in (1, 2, 3):
        s, r_ = -0.01, 2.0
        val = collapse.shrinking_sphere_ratio(n, s, r_)
        cn = val * (-s) / r_**2
        sph_ok = sph_ok and abs(cn - (n + 1) / 2.0) <= 0.01 * (n + 1) / 2.0

    ok = r2_slab >= 0.99 and r2_cat >= 0.98 and gr_ok and sph_ok
    _report(
        "criterion 8 (collapsed model geometries)",
        ok,
        f"slab R^2={r2_slab:.5f} (>=0.99), catenoid R^2={r2_cat:.5f} (>=0.98), "
        f"grim reaper ratio@256={ratios_g[-1]:.4f} (<0.05, H-term<= "
        f"{hterm.max():.3f}), sphere c(n) exact to 1%: {sph_ok}",
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
    consts = fn.log_sobolev_constants(disk_ops)
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(100):
        psi = np.abs(rng.standard_normal(disk_ops.mesh.n_vertices)) + 1e-6
        phi = psi / np.sqrt(disk_ops.M_lumped @ psi**2)
        for eps in (0.1, 1.0, 10.0):
            chk = fn.log_sobolev_check(disk_ops, phi, eps, consts["c_S"])
            violations += not chk["holds"]
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
