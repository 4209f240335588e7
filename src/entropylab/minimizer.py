"""Constrained minimization of the transformed entropy functional.

mu_beta(Omega, tau) is computed by minimizing

    E(phi) = int (4 tau |grad phi|^2 - phi^2 log phi^2)
             + 2 tau int_bdry beta phi^2 - 2 - log(4 pi tau)

over phi > 0 with lumped-mass normalization int phi^2 = 1.  E is
``functional.energy``, the same implementation that ``w_beta`` reports, and
the closing mu is ``w_beta`` at f_min.  Descent directions are
preconditioned by the operator M + 8 tau K (+ boundary part), which keeps
the iteration count essentially independent of the mesh size.

The default start is the Gaussian exp(-r^2 / 8 tau) plus a 1e-3 offset.  With
beta = 0 and a tau the mesh does not resolve, the Gaussian is below the
offset at every vertex, so the start is near the constant (and, once the
Gaussian underflows, equal to it), an exact critical point (a saddle) that
the descent would report as converged; ``minimize`` raises
``ConvergenceError`` naming tau instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .fem import FemOperators, recover_gradient
from .functional import N_PLUS_1, FunctionalError, _beta_full, _log_u, energy, w_beta

PHI_FLOOR_REL = 1e-12


class ConvergenceError(RuntimeError):
    pass


@dataclass
class MinimizerResult:
    """el_residual is the M^-1 norm of the constrained gradient g - 2 lam M phi.
    w_beta's W field is g / (2 M phi) - (1 + log 4 pi tau) at every vertex,
    so W_constancy, the u-weighted standard deviation of W, is el_residual / 2
    to rounding."""

    phi: np.ndarray
    mu: float
    f_min: np.ndarray
    el_residual: float
    W_constancy: float
    converged: bool
    iterations: int
    mu_multiplier: float = 0.0
    warnings: list = field(default_factory=list)


def _gradient(ops, phi, tau, bfull, w):
    logu = _log_u(phi)
    return (
        8.0 * tau * (ops.K @ phi)
        - 2.0 * ops.M_lumped * phi * (logu + 1.0)
        + 4.0 * tau * w * bfull * phi
    )


def _mass_normalize(ops, phi):
    return phi / np.sqrt(ops.M_lumped @ phi**2)


def minimize(
    ops: FemOperators,
    tau: float,
    beta,
    phi0=None,
    max_iter: int = 20000,
    tol: float = 1e-9,
) -> MinimizerResult:
    """Projected, preconditioned gradient descent for mu_beta(Omega, tau)."""
    if tau <= 0:
        raise FunctionalError("tau must be positive")
    n = ops.mesh.n_vertices
    w = ops.boundary_weights
    bfull = _beta_full(ops, beta)

    if phi0 is None:
        # a constant is an exact critical point for beta = 0 (a saddle for
        # large domains); start from a Gaussian of the natural width instead
        xc = (ops.M_lumped @ ops.mesh.vertices) / ops.M_lumped.sum()
        r2 = np.sum((ops.mesh.vertices - xc) ** 2, axis=1)
        if not bfull.any() and r2.min() > 8.0 * tau * np.log(1e3):
            # the Gaussian sits below the offset at every vertex, so the
            # start is near the constant saddle, which would pass as converged
            raise ConvergenceError(
                f"tau={tau:g} is not resolved by the mesh: the start Gaussian is "
                "below its 1e-3 offset at every vertex; refine h or raise tau"
            )
        phi = np.exp(-r2 / (8.0 * tau)) + 1e-3
    else:
        phi = np.abs(np.asarray(phi0, dtype=float)) + 1e-12
    phi = _mass_normalize(ops, phi)

    precond = (
        sp.diags(ops.M_lumped)
        + 8.0 * tau * ops.K
        + 4.0 * tau * sp.diags(w * np.abs(bfull))
    ).tocsc()
    solve = spl.factorized(precond)

    warnings_ = []
    e = energy(ops, phi, tau, bfull)
    converged = False
    floored = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        g = _gradient(ops, phi, tau, bfull, w)
        lam = 0.5 * float(phi @ g)
        resid = g - 2.0 * lam * ops.M_lumped * phi
        resid_norm = float(np.sqrt(np.sum(resid**2 / ops.M_lumped)))
        if resid_norm <= tol * (1.0 + abs(lam)):
            converged = True
            break

        d = solve(resid)
        # keep the step tangent to the constraint sphere (M-orthogonal)
        d -= float(phi @ (ops.M_lumped * d)) * phi
        slope = float(resid @ d)
        if slope <= 0:
            d = resid / ops.M_lumped
            slope = float(resid @ d)

        alpha = 1.0  # the full preconditioned step first, then halved
        accepted = False
        for _ in range(40):
            cand = phi - alpha * d
            floor = PHI_FLOOR_REL * np.abs(cand).max()
            n_floored = int(np.count_nonzero(cand < floor))
            cand = np.maximum(cand, floor)
            cand = _mass_normalize(ops, cand)
            e_new = energy(ops, cand, tau, bfull)
            # the 1e-14 slack is load-bearing: near convergence 1e-4 alpha
            # slope (~1e-20) is far below the rounding of e (~1e-14), and
            # without the slack the full step is refused on rounding alone;
            # the search then halves alpha until e_new <= e by chance, phi
            # does not move, and each iteration repeats the last (disk:1,
            # radial, tau 0.25, h 0.02 ran 20,000 iterations and exited 3)
            if e_new <= e - 1e-4 * alpha * slope + 1e-14:
                phi, e = cand, e_new
                floored = n_floored / n
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            warnings_.append(f"line search stalled at iteration {it}")
            break

    if floored > 0.01:
        warnings_.append(
            f"phi floored on {100 * floored:.1f}% of vertices "
            "(boundary layer too thin for this h)"
        )
    if not converged:
        warnings_.append(f"not converged in {it} iterations (residual {resid_norm:.3g})")

    g = _gradient(ops, phi, tau, bfull, w)
    lam = 0.5 * float(phi @ g)
    resid = g - 2.0 * lam * ops.M_lumped * phi
    el_residual = float(np.sqrt(np.sum(resid**2 / ops.M_lumped)))
    mu_multiplier = lam - 1.0 - (N_PLUS_1 / 2.0) * np.log(4.0 * np.pi * tau)

    f_min = -_log_u(phi) - (N_PLUS_1 / 2.0) * np.log(4.0 * np.pi * tau)
    report = w_beta(ops, f_min, tau, beta)
    u = phi**2
    mean = float(ops.M_lumped @ (u * report.W_field))
    var = float(ops.M_lumped @ (u * (report.W_field - mean) ** 2))
    return MinimizerResult(
        phi=phi,
        mu=report.w_beta,
        f_min=f_min,
        el_residual=el_residual,
        W_constancy=float(np.sqrt(max(var, 0.0))),
        converged=converged,
        iterations=it,
        mu_multiplier=mu_multiplier,
        warnings=warnings_,
    )


def verify_euler_lagrange(result: MinimizerResult, ops: FemOperators, tau, beta) -> dict:
    """Residual report for the Euler-Lagrange characterization.

    (i) weak residual of -4 tau lap phi - 2 phi log phi = (mu + 2 + log 4 pi
    tau) phi with the Robin condition 2<grad phi, nu> = -beta phi folded into
    the weak form; (ii) the recovered normal derivative of f_min against the
    prescribed beta (one-sided recovery, O(h) accurate).
    """
    nb = ops.mesh.n_boundary
    w = ops.boundary_weights
    bfull = _beta_full(ops, beta)
    phi = result.phi

    lam = result.mu_multiplier + 1.0 + (N_PLUS_1 / 2.0) * np.log(4.0 * np.pi * tau)
    R = (
        4.0 * tau * (ops.K @ phi)
        + 2.0 * tau * w * bfull * phi
        - ops.M_lumped * phi * _log_u(phi)
        - (lam + 1.0) * ops.M_lumped * phi
    )
    weak_residual = float(np.sqrt(np.sum(R**2 / ops.M_lumped)))

    grad_f = recover_gradient(ops, result.f_min)
    nu = ops.boundary.outward_normal()
    flux = np.einsum("ij,ij->i", grad_f[:nb], nu)
    flux_err = float(np.abs(flux - bfull[:nb]).max())
    return {
        "weak_residual": weak_residual,
        "flux_error": flux_err,
        "h": ops.mesh.h,
    }
