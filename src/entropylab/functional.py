"""Boundary entropy functional W_beta and the associated bounds.

All volume quadratures are phrased in terms of phi = sqrt(u): the gradient
term uses the stiffness pairing 4*tau*phi'K phi (exact continuum identity
|grad f|^2 u = 4|grad phi|^2), the remaining volume integrals use the lumped
mass, and the pointwise field W = tau(2*lap f - |grad f|^2) + f - 2 is
evaluated in its equivalent form -4*tau*(lap phi)/phi + f - 2 with the weak
Laplacian carrying the Robin data 2<grad phi, nu> = -beta*phi.  With these
choices the discrete integration-by-parts identity int W u = W_beta holds to
rounding for every f and beta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .fem import FemOperators, triangle_gradients

N_PLUS_1 = 2  # ambient dimension for all PDE work
_U_FLOOR = 1e-300
LOG_SOBOLEV_MARGIN = 2.0  # factor on the estimated Sobolev and trace constants


class FunctionalError(ValueError):
    pass


@dataclass
class EntropyReport:
    w_beta: float
    normalization: float
    W_field: np.ndarray
    ibp_value: float
    ibp_gap: float
    shift: float = 0.0
    parts: dict = field(default_factory=dict)


def u_from_f(f, tau: float) -> np.ndarray:
    if tau <= 0:
        raise FunctionalError(f"tau must be positive, got {tau}")
    f = np.asarray(f, dtype=float)
    return np.exp(-f) / (4.0 * np.pi * tau) ** (N_PLUS_1 / 2.0)


def f_from_u(u, tau: float) -> np.ndarray:
    if tau <= 0:
        raise FunctionalError(f"tau must be positive, got {tau}")
    u = np.maximum(np.asarray(u, dtype=float), _U_FLOOR)
    return -np.log(u) - (N_PLUS_1 / 2.0) * np.log(4.0 * np.pi * tau)


def log_mass(ops: FemOperators, f, tau: float) -> float:
    """log of the lumped integral of u = e^{-f}/(4 pi tau), underflow-safe."""
    f = np.asarray(f, dtype=float)
    return float(
        logsumexp(-f, b=ops.M_lumped) - (N_PLUS_1 / 2.0) * np.log(4.0 * np.pi * tau)
    )


def normalize(ops: FemOperators, f, tau: float):
    """Shift f so that the lumped integral of u is 1; returns (f, shift)."""
    shift = log_mass(ops, f, tau)
    return np.asarray(f, dtype=float) + shift, shift


def _beta_full(ops: FemOperators, beta) -> np.ndarray:
    nb = ops.mesh.n_boundary
    b = np.zeros(ops.mesh.n_vertices)
    arr = np.asarray(beta, dtype=float)
    b[:nb] = arr if arr.ndim else float(arr)
    return b


def w_beta(ops: FemOperators, f, tau: float, beta, pre_normalized: bool = False):
    """Evaluate W_beta(Omega, f, tau) and the nodal field W on a fixed mesh.

    beta is the prescribed normal derivative of f on the boundary, given as a
    scalar or per-boundary-vertex array.  Unless pre_normalized, f is shifted
    so the lumped mass of u is 1 and the shift is recorded in the report.
    """
    if tau <= 0:
        raise FunctionalError(f"tau must be positive, got {tau}")
    f = np.asarray(f, dtype=float)
    shift = 0.0
    if not pre_normalized:
        f, shift = normalize(ops, f, tau)
    u = u_from_f(f, tau)
    mass = float(ops.M_lumped @ u)
    if abs(mass - 1.0) > 1e-6:
        raise FunctionalError(f"normalization failed: int u = {mass}")

    phi = np.sqrt(u)
    b = _beta_full(ops, beta)
    w = ops.boundary_weights

    grad_term = 4.0 * tau * float(phi @ (ops.K @ phi))
    potential = float(ops.M_lumped @ (u * (f - N_PLUS_1)))
    boundary = 2.0 * tau * float(w @ (b * u))
    value = grad_term + potential + boundary

    # weak Laplacian of phi with Robin data 2<grad phi, nu> = -beta*phi
    lap_phi = (-0.5 * w * b * phi - ops.K @ phi) / ops.M_lumped
    phi_safe = np.maximum(phi, np.sqrt(_U_FLOOR))
    W_field = -4.0 * tau * lap_phi / phi_safe + f - N_PLUS_1

    ibp_value = float(ops.M_lumped @ (u * W_field))
    return EntropyReport(
        w_beta=value,
        normalization=mass,
        W_field=W_field,
        ibp_value=ibp_value,
        ibp_gap=abs(value - ibp_value),
        shift=shift,
        parts={
            "gradient": grad_term,
            "potential": potential,
            "boundary": boundary,
        },
    )


# ---------------------------------------------------------------------------
# log-Sobolev machinery and the two-sided bounds on mu_beta
# ---------------------------------------------------------------------------

def _l2_norm(ops, psi):
    return float(np.sqrt(max(psi @ (ops.M @ psi), 0.0)))


def _grad_l1(ops, psi):
    gt = triangle_gradients(ops, psi)
    return float(np.sum(ops.areas * np.linalg.norm(gt, axis=1)))


def _l1_norm(ops, psi):
    return float(ops.M_lumped @ np.abs(psi))


def _sobolev_ratio(ops, psi):
    den = _grad_l1(ops, psi) + _l1_norm(ops, psi)
    return _l2_norm(ops, psi) / den if den > 0 else 0.0


def _trace_ratio(ops, psi):
    """ratio for int_bdry psi^2 <= c * int (|grad psi^2| + psi^2)."""
    nb = ops.mesh.n_boundary
    num = float(ops.boundary_weights[:nb] @ psi[:nb] ** 2)
    den = _grad_l1(ops, psi**2) + float(ops.M_lumped @ psi**2)
    return num / den if den > 0 else 0.0


def _trial_family(ops, seed=0):
    """Trial fields for the constant estimates: constants, bumps, rough noise."""
    mesh = ops.mesh
    v = mesh.vertices
    rng = np.random.default_rng(seed)
    trials = [np.ones(mesh.n_vertices)]
    lo, hi = v.min(axis=0), v.max(axis=0)
    diam = float(np.linalg.norm(hi - lo))
    for _ in range(40):
        c = lo + rng.random(2) * (hi - lo)
        width = diam * 10 ** rng.uniform(-2.0, -0.3)
        r2 = np.sum((v - c) ** 2, axis=1)
        trials.append(np.exp(-r2 / (2 * width**2)))
        trials.append((r2 < width**2).astype(float) + 1e-9)
    nb = mesh.n_boundary
    for _ in range(10):
        # boundary-concentrated bumps probe the trace constant
        i = rng.integers(nb)
        width = diam * 10 ** rng.uniform(-2.0, -0.7)
        r2 = np.sum((v - v[i]) ** 2, axis=1)
        trials.append(np.exp(-r2 / (2 * width**2)))
    for _ in range(10):
        trials.append(np.abs(rng.standard_normal(mesh.n_vertices)))
    return trials


def log_sobolev_constants(ops: FemOperators, seed: int = 0):
    """Estimate the L1-Sobolev constant c_S and the trace constant c_trace.

    Both are suprema of Rayleigh-type ratios; they are estimated over a trial
    family and inflated by LOG_SOBOLEV_MARGIN.  The values are estimates, not
    proven bounds; the margin is recorded alongside.
    """
    trials = _trial_family(ops, seed)
    c_s = max(_sobolev_ratio(ops, t) for t in trials)
    c_tr = max(_trace_ratio(ops, t) for t in trials)
    return {
        "c_S": LOG_SOBOLEV_MARGIN * c_s,
        "c_trace": LOG_SOBOLEV_MARGIN * c_tr,
        "c_S_raw": c_s,
        "c_trace_raw": c_tr,
        "margin": LOG_SOBOLEV_MARGIN,
    }


def log_sobolev_rhs(eps: float, c_S: float) -> float:
    """Right-hand side of the log-Sobolev inequality in dimension d = 2.

    Chain: Lp interpolation at q=1 gives int psi log psi <= d log||psi||_{d/(d-1)};
    the L1 Sobolev inequality and log x <= x - 1 give
    int psi log psi <= ||grad psi||_1 + (1 - d + d log d) + d log c_S;
    psi = phi^2 and Young 2|phi||grad phi| <= eps|grad phi|^2 + phi^2/eps
    yield the stated bound.  With d = 2 the additive constant is 2 log 2 - 1.
    """
    if eps <= 0:
        raise FunctionalError("eps must be positive")
    d = N_PLUS_1
    c_d = 1.0 - d + d * np.log(d)
    return -(c_d + d * np.log(c_S)) - 1.0 / eps


def log_sobolev_check(ops: FemOperators, phi, eps: float, c_S: float) -> dict:
    phi = np.asarray(phi, dtype=float)
    mass = float(ops.M_lumped @ phi**2)
    if abs(mass - 1.0) > 1e-8:
        raise FunctionalError(f"phi not normalized: int phi^2 = {mass}")
    u = phi**2
    logu = np.where(u > 0, np.log(np.maximum(u, _U_FLOOR)), 0.0)
    lhs = eps * float(phi @ (ops.K @ phi)) - float(ops.M_lumped @ (u * logu))
    rhs = log_sobolev_rhs(eps, c_S)
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs >= rhs)}


def lower_bound_rhs(tau: float, sup_beta: float, constants: dict):
    """Lower bound for mu_beta(Omega, tau), constants assembled step by step.

    Chain (dimension d = 2, flat metric): transforming to phi = sqrt(u)
    gives W_beta = int(4 tau |grad phi|^2 - phi^2 log phi^2) + 2 tau int beta
    phi^2 - log(4 pi tau) - 2; the trace inequality plus Young absorb the
    boundary term into 2 tau |grad phi|^2 at the cost of
    2 tau c_tr b (c_tr b + 1); rescaling the metric by 1/(2 tau) turns the
    remainder into the eps = 1 log-Sobolev form and contributes +log(2 tau);
    the rescaled Sobolev constant is bounded by c_S (1 + sqrt(2 tau)).
    """
    if tau <= 0:
        raise FunctionalError("tau must be positive")
    b = abs(float(sup_beta))
    c_s = float(constants["c_S"])
    c_tr = float(constants["c_trace"])

    boundary_cost = 2.0 * tau * c_tr * b * (c_tr * b + 1.0)
    c_s_tau = c_s * (1.0 + np.sqrt(2.0 * tau))
    ls = log_sobolev_rhs(1.0, c_s_tau)
    value = ls + np.log(2.0 * tau) - np.log(4.0 * np.pi * tau) - N_PLUS_1 - boundary_cost
    return float(value), {
        "log_sobolev": ls,
        "c_S_rescaled": c_s_tau,
        "metric_rescaling": float(np.log(2.0 * tau)),
        "normalization": float(-np.log(4.0 * np.pi * tau) - N_PLUS_1),
        "boundary_cost": -boundary_cost,
    }


# cutoff profile zeta(rho) = cos^2(pi (rho - r/2) / r) on r/2 <= rho <= r;
# then 4 r^2 |grad zeta|^2 / zeta = 16 pi^2 sin^2(pi s / 2) <= 16 pi^2.
CUTOFF_CONSTANT = 16.0 * np.pi**2


def volume_ratio_upper_bound(domain, beta, center, r: float) -> dict:
    """Upper bound for mu_beta(Omega, r^2) from the cutoff test function.

    Substituting e^{-f} = a*zeta with the cos^2 cutoff (= 1 on B_{r/2},
    supported in B_r) gives

        mu <= -(d) + log(V(Omega n B_r) / (4 pi r^2)^{d/2})
              + C_cut V(Omega n B_r) / V(Omega n B_{r/2})
              + 2 r^2 int_{bdry n B_r} |beta| dS / V(Omega n B_{r/2})

    with d = n+1 and C_cut = sup 4 r^2 |grad zeta|^2 / zeta = 16 pi^2.
    """
    from . import collapse

    d = getattr(domain, "dim", N_PLUS_1)
    center = np.asarray(center, dtype=float)
    v_r, _ = collapse.ball_intersection_volume(domain, center, r)
    v_half, _ = collapse.ball_intersection_volume(domain, center, r / 2.0)
    if v_half <= 1e-12 * (r / 2.0) ** d:  # exact clipping leaves roundoff dust
        raise FunctionalError("empty half-ball: V(Omega n B_{r/2}) = 0")
    b_int = collapse.boundary_beta_integral(domain, center, r, beta)

    log_term = float(np.log(v_r) - (d / 2.0) * np.log(4.0 * np.pi * r**2))
    grad_term = CUTOFF_CONSTANT * v_r / v_half
    bdry_term = 2.0 * r**2 * b_int / v_half
    value = -d + log_term + grad_term + bdry_term
    return {
        "value": float(value),
        "log_term": log_term,
        "gradient_term": float(grad_term),
        "boundary_term": float(bdry_term),
        "V_r": float(v_r),
        "V_half": float(v_half),
    }
