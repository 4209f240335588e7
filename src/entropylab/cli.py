"""Command-line orchestration: configuration and run persistence.

One binary with subcommands {entropy, flow, conjugate, harnack, collapse,
logsobolev, verify}.  Every run writes a JSON manifest (config echo,
versions, input hashes, wall time, output list, warnings, and the error of a
run that fails with exit 3 or 4) atomically at the end; CSV outputs
serialize floats with 17 significant digits so reruns with an identical
config and seed are byte-identical.  The mesh, flow and backward-solve
stages are cached in one store under ``--out``, shared by every tag, under a
hash of the exact inputs that feed them and of the package's code; the
manifest logs each stage's key and whether it hit.

Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 acceptance-suite failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import re
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy

from . import (
    __version__,
    collapse,
    conjugate,
    fem,
    flow,
    functional,
    geometry,
    harnack,
    meshing,
    minimizer,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4

_NUMERICAL_ERRORS = (
    flow.FlowError,
    conjugate.ConjugateError,
    harnack.HarnackError,
    minimizer.ConvergenceError,
    meshing.MeshQualityError,
    np.linalg.LinAlgError,
)
_VALIDATION_ERRORS = (
    ValueError,
    KeyError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    geometry.GeometryError,
)


class ValidationError(ValueError):
    pass


def _fmt(x) -> str:
    """17-significant-digit decimal, round-trip exact for binary64."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str) or x is None:
        return str(x)
    return f"{float(x):.17g}"


# -- configuration ---------------------------------------------------------


@dataclass
class RunConfig:
    subcommand: str
    domain: str = "disk:1"
    tau: float = 0.5
    h: float = 0.02
    beta: str = "zero"
    frac: float = 0.5
    snapshots: int = 21
    dt_scale: float = 1.0
    a: float | None = None
    seed: int = 0
    budget: int = collapse.DEFAULT_BUDGET
    radii: str = "geometric:4,512"
    centers: str = "origin"
    eps: str = "0.1,1,10"
    fields: int = 100
    steps_per_tau: float = 500.0
    skip: int = harnack.DEFAULT_SKIP
    tol: float = 1e-8
    vertices: int = 512
    suite: str = "shrinker"
    out: str = "runs"
    tag: str = "run"

    @staticmethod
    def from_dict(obj: dict) -> "RunConfig":
        unknown = set(obj) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        cfg = RunConfig(**obj)
        cfg.validate()
        return cfg

    def validate(self):
        if self.subcommand not in _PIPELINES:
            raise ValidationError(f"unknown subcommand {self.subcommand!r}")
        if self.suite not in _SUITES:
            raise ValidationError(f"unknown suite {self.suite!r}")
        for name in ("tau", "h", "frac", "dt_scale", "a", "tol", "steps_per_tau"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValidationError(f"{name.replace('_', '-')} must be finite")
        if not self.tau > 0:
            raise ValidationError("tau must be positive")
        if not self.h > 0:
            raise ValidationError("h must be positive")
        if not 0.0 < self.dt_scale <= 1.0:
            raise ValidationError("dt-scale must lie in (0, 1]")
        if not 0.0 < self.frac <= 0.95:
            raise ValidationError("frac must lie in (0, 0.95]")
        if self.snapshots < 2:
            raise ValidationError("need at least two snapshots")
        try:
            collapse.samples_per_replicate(self.budget)
        except collapse.CollapseError as e:
            raise ValidationError(str(e)) from None
        if self.vertices < 16:
            raise ValidationError("need at least 16 boundary vertices")
        if not self.tol > 0:
            raise ValidationError("tol must be positive")
        if not self.steps_per_tau > 0:
            raise ValidationError("steps-per-tau must be positive")
        if self.skip < 0:
            raise ValidationError("skip must be non-negative")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.subcommand == "harnack" and self.snapshots - self.skip < 3:
            raise ValidationError("harnack needs snapshots - skip >= 3")
        if self.fields < 1:
            raise ValidationError("need at least one field")
        parse_eps(self.eps)


_CURVE_M = 512  # boundary resolution of disk:/ellipse: outside the flow


def parse_domain(spec: str, m: int = _CURVE_M):
    """Domain spec strings: disk:R, ellipse:a:b, file:path, analytic:...

    Bounded 2D variants return a PlanarCurve for the PDE pipelines (disk:
    and ellipse: sampled at m vertices on the exact curve, 512 by default);
    analytic:* returns an AnalyticDomain for the collapse scans.
    """
    kind, *args = str(spec).split(":")
    if kind == "file":
        return geometry.load_domain(_spec_args(spec, kind, "path", args)[0])
    if kind in ("disk", "ellipse"):
        return _analytic(spec, kind, kind, args).boundary_curve(m)
    if kind == "analytic":
        variant, *args = args or [""]
        return _analytic(spec, f"analytic:{variant}", variant, args)
    raise ValidationError(f"unknown domain spec {spec!r}")


def _analytic(spec: str, kind: str, variant: str, args: list):
    """The AnalyticDomain a spec names; AnalyticDomain checks the values."""
    if variant not in geometry.ANALYTIC_VARIANTS:
        raise ValidationError(f"unknown analytic variant {variant!r}")
    _spec_args(spec, kind, geometry.ANALYTIC_VARIANTS[variant], args)
    try:
        return getattr(geometry.AnalyticDomain, variant)(*map(float, args))
    except ValueError as e:  # GeometryError, or a parameter that is not a number
        raise ValidationError(f"spec {spec!r}: {e}") from None


def _spec_args(spec: str, kind: str, params: str, args: list) -> list:
    """args, if their count fits ``params``; else a ValidationError naming
    the expected form."""
    n = len(re.findall(r"\w+", params))
    if not n - params.count("[") <= len(args) <= n:
        form = f"{kind}:{params}".replace(":[", "[:").rstrip(":")
        raise ValidationError(f"spec {spec!r} is not of the form {form}")
    return args


def parse_eps(spec: str) -> list:
    """The --eps list: comma-separated numbers, each finite and positive."""
    try:
        eps = [float(e) for e in str(spec).split(",")]
    except ValueError:
        eps = []
    if not eps or not all(0.0 < e < np.inf for e in eps):
        raise ValidationError(f"eps {spec!r} is not a list of finite positive numbers")
    return eps


def parse_radii(spec: str):
    """Radii spec strings: geometric:lo,hi, linear:lo,hi,n, list:r1,r2,...

    Every radius is finite and positive, and n is an integer >= 1.
    """
    kind, _, rest = str(spec).partition(":")
    vals = [float(v) for v in rest.split(",")] if rest else []
    if kind == "geometric":
        lo, hi = _spec_args(spec, kind, "lo,hi", vals)
        if not 0.0 < lo <= hi < np.inf:
            raise ValidationError(f"spec {spec!r} needs 0 < lo <= hi < inf")
        # lo 2^k while it is <= hi; the relative slack keeps a hi that is
        # lo 2^k written to fewer digits (thirds to 12 digits: 0.333333333333
        # and 1.33333333333 are 2^2 apart to 1.5e-12)
        n = int(np.floor(np.log2(hi / lo * (1.0 + 1e-9)))) + 1
        radii = [lo * 2.0**k for k in range(n)]
    elif kind == "linear":
        lo, hi, n = _spec_args(spec, kind, "lo,hi,n", vals)
        if not (n.is_integer() and n >= 1):
            raise ValidationError(f"spec {spec!r}: n must be an integer >= 1")
        radii = list(np.linspace(lo, hi, int(n)))
    elif kind == "list":
        radii = vals
    else:
        raise ValidationError(f"unknown radii spec {spec!r}")
    if not all(0.0 < r < np.inf for r in radii):
        raise ValidationError(f"spec {spec!r}: radii must be positive and finite")
    return radii


def parse_centers(spec: str, radii, dim: int = 2):
    """Ball centers in R^dim: origin, grim_reaper_schedule or list:x1,y1,..."""
    if spec == "origin":
        return [(0.0,) * dim]
    if spec == "grim_reaper_schedule":
        # centers (0, .., 0, r^2) ride up the reaper region so B_{r/2} stays inside
        return [(0.0,) * (dim - 1) + (r * r,) for r in radii]
    if spec.startswith("list:"):
        vals = [float(v) for v in spec[5:].split(",")]
        if len(vals) % dim:
            raise ValidationError(
                f"centers list needs a multiple of {dim} floats (dimension {dim})"
            )
        if not np.isfinite(vals).all():
            raise ValidationError(f"spec {spec!r}: centers must be finite")
        return [tuple(vals[i:i + dim]) for i in range(0, len(vals), dim)]
    raise ValidationError(f"unknown centers spec {spec!r}")


def _beta_for_mesh(cfg: RunConfig, curve, mesh):
    """Per-boundary-vertex beta array (or scalar) for the PDE pipelines."""
    spec = cfg.beta
    if spec == "zero":
        return 0.0
    if spec == "mean_curvature":
        return conjugate.interp_periodic(curve.curvature(), mesh.boundary_param)
    if spec == "radial":
        xb = mesh.vertices[: mesh.n_boundary]
        nu = mesh.boundary_curve().outward_normal()
        return np.einsum("ij,ij->i", xb, nu) / (2.0 * cfg.tau)
    if spec.startswith("file:"):
        beta = np.loadtxt(spec[5:], ndmin=1)
        if beta.shape != (mesh.n_boundary,) or not np.isfinite(beta).all():
            raise ValidationError(
                f"beta {spec!r} needs {mesh.n_boundary} finite values, one per mesh "
                f"boundary vertex; it has {beta.size}, "
                f"{beta.size - np.isfinite(beta).sum()} of them not finite"
            )
        return beta
    raise ValidationError(f"unknown beta spec {spec!r}")


# -- persistence -----------------------------------------------------------


def _atomic_write(path: str, data: bytes):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: str, obj, indent=2) -> str:
    _atomic_write(path, (json.dumps(obj, indent=indent, default=_fmt) + "\n").encode())
    return path


def _write_table(path: str, header, rows) -> str:
    """A header line, then one line of _fmt values per row."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _atomic_write(path, ("\n".join(lines) + "\n").encode())
    return path


def _hash_obj(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=_fmt).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunManifest:
    config: dict
    versions: dict
    wall_time_s: float
    input_hashes: dict
    outputs: list
    warnings: list = field(default_factory=list)
    cache: dict = field(default_factory=dict)  # stage -> {"key", "hit"}
    error: str | None = None  # set when the run failed (exit 3 or 4)

    def write(self, path: str):
        _write_json(path, asdict(self))


def _code_fingerprint() -> str:
    """sha256 of the package, numpy and scipy versions and the package's .py
    sources (SuperLU, Qhull and Sobol decide the cached results too)."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    versions = f"{__version__}\0{np.__version__}\0{scipy.__version__}"
    digest = hashlib.sha256(versions.encode())
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


class _Cache:
    """Pickle store for expensive pipeline stages, keyed by a hash of their
    inputs and of the code fingerprint (entries of other code never match).

    The store is content-addressed, so every run under one root shares it;
    its directory is made on the first write.
    """

    def __init__(self, root: str):
        self.dir = os.path.join(root, "cache")
        self.log = {}
        self.code = _code_fingerprint()

    def get_or_run(self, stage: str, key_obj, fn):
        key = _hash_obj({"code": self.code, "inputs": key_obj})
        path = os.path.join(self.dir, f"{stage}-{key}.pkl")
        if os.path.exists(path):
            self.log[stage] = {"key": key, "hit": True}
            with open(path, "rb") as fh:
                return pickle.load(fh)
        value = fn()
        os.makedirs(self.dir, exist_ok=True)
        _atomic_write(path, pickle.dumps(value))
        self.log[stage] = {"key": key, "hit": False}
        return value


# -- pipelines -------------------------------------------------------------


def _require_curve(domain, m: int = _CURVE_M):
    if isinstance(domain, geometry.AnalyticDomain):
        try:
            return domain.boundary_curve(m)
        except geometry.GeometryError:
            raise ValidationError(
                "this subcommand needs a bounded planar domain "
                "(disk:R, ellipse:a:b, or a polyline file)"
            )
    return domain


def _curve_hash(curve) -> str:
    """sha256 of a curve's vertices: cache keys name the curve, not the spec
    text, since a file: domain may change on disk."""
    return hashlib.sha256(curve.vertices.tobytes()).hexdigest()


def _mesh_stage(curve, h: float, cache: _Cache):
    """The cached mesh of ``curve`` at target size h."""
    return cache.get_or_run("mesh", {"curve": _curve_hash(curve), "h": h},
                            lambda: meshing.triangulate(curve, h))


def _run_entropy(cfg: RunConfig, out: str, cache: _Cache, warnings_: list):
    curve = _require_curve(parse_domain(cfg.domain))
    mesh = _mesh_stage(curve, cfg.h, cache)
    ops = fem.assemble(mesh)
    beta = _beta_for_mesh(cfg, curve, mesh)
    result = minimizer.minimize(ops, cfg.tau, beta, tol=cfg.tol)
    warnings_.extend(result.warnings)
    if not result.converged:
        raise minimizer.ConvergenceError(
            f"minimizer did not converge in {result.iterations} iterations; "
            "try a larger h or a looser tol"
        )
    payload = {
        "mu": result.mu,
        "tau": cfg.tau,
        "W_constancy": result.W_constancy,
        "el_residual": result.el_residual,
        "mu_multiplier": result.mu_multiplier,
        "iterations": result.iterations,
        "backtracks": result.backtracks,
        "restarts": result.restarts,
        "h": mesh.h,
        "n_vertices": mesh.n_vertices,
    }
    return [
        _write_json(os.path.join(out, "entropy.json"), payload),
        _write_table(
            os.path.join(out, "entropy.csv"),
            ("tag", "tau", "mu", "W_constancy", "el_residual", "iterations"),
            [(cfg.tag, cfg.tau, result.mu, result.W_constancy,
              result.el_residual, result.iterations)],
        ),
    ]


_TRUNCATION_CAUSES = {
    "turning": "turning angle per length above 1/(3h), curvature no longer resolved",
    "embedding": "the next step would make the curve self-intersect",
}


def _flow_stage(cfg: RunConfig, cache: _Cache, warnings_: list):
    """Flow of the domain's boundary sampled at --vertices, cached; a flow
    that stopped early is reported in ``warnings_``.

    Analytic curves are sampled exactly at that count; a polyline file is
    resampled linearly by vertex index.
    """
    curve = _require_curve(parse_domain(cfg.domain, cfg.vertices), cfg.vertices)
    key = {name: getattr(cfg, name) for name in _FLOW_CHAIN
           if name not in ("domain", "h")}
    key["curve"] = _curve_hash(curve)

    def run():
        c = curve
        if len(c) != cfg.vertices:
            c = geometry.PlanarCurve(
                conjugate.interp_periodic(
                    c.vertices, np.arange(cfg.vertices) * len(c) / cfg.vertices
                )
            )
        # run_flow's T_est: the enclosed area falls at 2 pi per unit time
        t_est = c.enclosed_area() / (2.0 * np.pi)
        if cfg.a is not None and cfg.a < t_est:
            raise ValidationError(f"a={cfg.a} must be >= the curve's T_est={t_est}")
        return flow.run_flow(c, cfg.frac, cfg.snapshots, cfg.dt_scale, cfg.a)

    traj = cache.get_or_run("flow", key, run)
    if traj.truncated:
        reason = traj.meta["truncation"]
        warnings_.append(
            f"flow stopped early by the {reason} guard after "
            f"{traj.meta['steps']} steps ({_TRUNCATION_CAUSES[reason]})"
        )
    return traj, key


def _run_flow(cfg: RunConfig, out: str, cache: _Cache, warnings_: list):
    traj, _ = _flow_stage(cfg, cache, warnings_)
    return [
        _write_table(
            os.path.join(out, "flow.csv"),
            ("t", "tau", "area", "length"),
            [(s.t, s.tau, s.area, s.length) for s in traj.snapshots],
        ),
        _write_json(
            os.path.join(out, "trajectory.json"),
            {"a": traj.a, "T_est": traj.T_est, "truncated": traj.truncated,
             "truncation": traj.meta["truncation"], "steps": traj.meta["steps"],
             "records": traj.to_records()},
            indent=None,
        ),
    ]


def _conjugate_stage(cfg: RunConfig, cache: _Cache, warnings_: list):
    """The cached backward solve along the flow; both add their warnings."""
    traj, flow_key = _flow_stage(cfg, cache, warnings_)
    key = {"flow": flow_key, "h": cfg.h, "steps_per_tau": cfg.steps_per_tau}
    state = cache.get_or_run(
        "conjugate",
        key,
        lambda: conjugate.solve_from_minimizer(
            traj, h=cfg.h, steps_per_tau=cfg.steps_per_tau
        ),
    )
    warnings_.extend(state.warnings)
    return state


def _run_conjugate(cfg: RunConfig, out: str, cache: _Cache, warnings_: list):
    state = _conjugate_stage(cfg, cache, warnings_)
    return [
        _write_table(os.path.join(out, "conservation.csv"), ("t", "mass"),
                     state.conservation_log),
        _write_json(
            os.path.join(out, "conjugate.json"),
            {
                "t0_index": state.t0_index,
                "max_mass_drift": state.max_mass_drift(),
                "mu_at_t0": state.end_result.mu if state.end_result else None,
                "linear_solve": state.linear_solve,
                "warnings": state.warnings,
            },
        ),
    ]


def _run_harnack(cfg: RunConfig, out: str, cache: _Cache, warnings_: list):
    state = _conjugate_stage(cfg, cache, warnings_)
    report = harnack.rate_identity_check(state, skip=cfg.skip)
    warnings_.extend(report.meta.get("warnings", []))
    return [
        _write_table(
            os.path.join(out, "harnack.csv"),
            report.COLUMNS,
            [[r[name] for name in report.COLUMNS] for r in report.records],
        ),
        _write_json(
            os.path.join(out, "harnack.json"),
            {
                "max_gap_a_rel": report.max_gap_a_rel(),
                "max_gap_gradw_rel": report.max_gap_gradw_rel(),
                "skipped_window": list(report.skipped_window),
                "meta": report.meta,
            },
        ),
    ]


def _run_collapse(cfg: RunConfig, out: str, cache: _Cache, warnings_: list):
    domain = parse_domain(cfg.domain)
    radii = parse_radii(cfg.radii)
    centers = parse_centers(cfg.centers, radii, domain.dim)
    scan = collapse.ratio_scan(
        domain, centers, radii, beta_spec=cfg.beta,
        budget=cfg.budget, seed=cfg.seed,
    )
    return [
        _write_table(
            os.path.join(out, "collapse.csv"),
            scan.COLUMNS,
            [[row[name] for name in scan.COLUMNS] for row in scan.rows],
        ),
        _write_json(
            os.path.join(out, "collapse.json"),
            {"dim": scan.dim, "collapsed_trend": scan.collapsed_trend,
             "meta": scan.meta},
        ),
    ]


def _run_logsobolev(cfg: RunConfig, out: str, cache: _Cache, warnings_: list):
    curve = _require_curve(parse_domain(cfg.domain))
    ops = fem.assemble(_mesh_stage(curve, cfg.h, cache))
    eps_list = parse_eps(cfg.eps)
    consts, rows = functional.log_sobolev_battery(ops, eps_list, cfg.fields, cfg.seed)
    violations = sum(not holds for *_, holds in rows)
    if violations:
        warnings_.append(f"{violations} log-Sobolev violations")
    return [
        _write_table(os.path.join(out, "logsobolev.csv"),
                     ("field", "eps", "lhs", "rhs", "holds"), rows),
        _write_json(
            os.path.join(out, "logsobolev.json"),
            {"constants": consts, "violations": violations,
             "fields": cfg.fields, "eps": eps_list},
        ),
    ]


def _run_verify(cfg: RunConfig, out: str, cache: _Cache, warnings_: list):
    suite, names = _SUITES[cfg.suite]
    checks = suite(**{name: getattr(cfg, name) for name in names})
    jpath = _write_json(os.path.join(out, f"verify-{cfg.suite}.json"), checks)
    failed = [name for name, c in checks.items() if not c["ok"]]
    if failed:
        raise AcceptanceFailure(f"suite {cfg.suite!r} failed: {failed}", [jpath])
    return [jpath]


class AcceptanceFailure(RuntimeError):
    def __init__(self, message: str, outputs: list):
        super().__init__(message)
        self.outputs = outputs  # the files the failed run wrote


def _check(value, tol, ok=None) -> dict:
    """One suite check; unless ``ok`` is given, it passes when value <= tol."""
    return {"value": value, "tol": tol, "ok": bool(value <= tol if ok is None else ok)}


def verify_shrinker(h=RunConfig.h, steps_per_tau=RunConfig.steps_per_tau) -> dict:
    """Acceptance criterion 1, and criterion 3's mass drift on its solve.

    The shrinking unit circle is the equality case of the entropy formula:
    along 161 exact snapshots W_beta stays at mu = log(1 - e^{-1/2}), the
    volume term and both boundary routes vanish, and f at the earliest
    snapshot is |x|^2/4tau + mu (u-weighted lumped L^2), each within 5e-3.
    """
    times = np.arange(0.0, 0.4 + 1e-12, 0.0025)
    traj = flow.analytic_shrinking_disk_trajectory(1.0, times)
    state = conjugate.solve_from_minimizer(traj, h=h, steps_per_tau=steps_per_tau)
    report = harnack.rate_identity_check(state)
    W = report.column("W_beta")
    mu = np.log(1.0 - np.exp(-0.5))
    mesh, u = state.meshes[0], state.u_fields[0]
    f_exact = np.sum(mesh.vertices**2, axis=1) / (4.0 * traj.snapshots[0].tau) + mu
    f_diff = conjugate.f_from_state(state, 0) - f_exact
    values = {
        "W_constant_along_flow": np.abs(W - W[0]).max(),
        "W_equals_mu": np.abs(W - mu).max(),
    }
    for name in ("boundary_term_harnack", "boundary_term_direct", "volume_term"):
        values[name] = np.abs(report.column(name)).max()
    values["f_profile_error"] = np.sqrt(fem.assemble(mesh).M_lumped @ (u * f_diff**2))
    checks = {name: _check(float(value), 5e-3) for name, value in values.items()}
    checks["mass_drift"] = _check(state.max_mass_drift(), 1e-3)
    return checks


def _origin_fit_r2(x, y) -> float:
    """R^2 of the least-squares fit y ~ c x through the origin."""
    resid = y - float((x @ y) / (x @ x)) * x
    return 1.0 - float(resid @ resid) / float((y - y.mean()) @ (y - y.mean()))


def verify_collapse(budget=RunConfig.budget, seed=RunConfig.seed) -> dict:
    """Acceptance criterion 8: the collapsed model geometries.

    The slab |y| < 1 has V(B_r)/r^2 ~ C/r (R^2 >= 0.99, r = 4..512) and a
    collapsed trend; the catenoid body V(B_r) ~ C r^2 log(1 + r) (R^2 >= 0.98).
    Along the grim reaper (centers riding the translator, beta = H) the ratio
    falls strictly to below 0.05 at r = 256, with H-term <= 1 and c1 < 4.
    The shrinking sphere's rate constant is c(n) = (n+1)/2 to 1%, n = 1, 2, 3.
    """
    slab = collapse.ratio_scan(
        geometry.AnalyticDomain.slab(1.0), [(0.0, 0.0)],
        [4.0 * 2.0**k for k in range(8)], budget=budget, seed=seed,
    )
    r2_slab = _origin_fit_r2(1.0 / slab.column("r"), slab.column("ratio"))

    cat = collapse.ratio_scan(
        geometry.AnalyticDomain.catenoid_3d(), [(0.0, 0.0, 0.0)],
        [4.0, 8.0, 16.0, 32.0, 64.0], budget=budget, seed=seed,
    )
    r = cat.column("r")
    r2_cat = _origin_fit_r2(r**2 * np.log(1.0 + r), cat.column("V_full"))

    radii = [2.0**k for k in range(1, 9)]
    reaper = collapse.ratio_scan(
        geometry.AnalyticDomain.grim_reaper_2d(),
        parse_centers("grim_reaper_schedule", radii), radii,
        beta_spec="mean_curvature", budget=budget, seed=seed,
    )
    col = reaper.column
    ratios, c1 = col("ratio"), col("c1").max()
    h_term = (col("r") ** 2 * col("beta_integral") / col("V_half")).max()

    # c(n) = ratio (-s) / r^2 at s = -0.01, r = 2 (B_r contains the sphere)
    sphere_err = 0.0
    for n in (1, 2, 3):
        c = collapse.shrinking_sphere_ratio(n, -0.01, 2.0) * 0.01 / 4.0
        sphere_err = max(sphere_err, abs(c - (n + 1) / 2.0) / ((n + 1) / 2.0))
    decreasing = bool(np.all(np.diff(ratios) < 0))
    return {
        "slab_inverse_r_fit": _check(r2_slab, 0.99, r2_slab >= 0.99),
        "slab_collapsed_trend": _check(
            slab.collapsed_trend, True, slab.collapsed_trend
        ),
        "catenoid_r2_log_r_fit": _check(r2_cat, 0.98, r2_cat >= 0.98),
        "grim_reaper_ratio_decreasing": _check(decreasing, True, decreasing),
        "grim_reaper_ratio_at_256": _check(ratios[-1], 0.05, ratios[-1] < 0.05),
        "grim_reaper_h_term": _check(h_term, 1.0),
        "grim_reaper_c1": _check(c1, 4.0, c1 < 4.0),
        "shrinking_sphere_c_rel_err": _check(sphere_err, 0.01),
    }


# suite -> (battery, the RunConfig fields it reads: its verify flags)
_SUITES = {
    "shrinker": (verify_shrinker, ("h", "steps_per_tau")),
    "collapse": (verify_collapse, ("seed", "budget")),
}
_VERIFY_FLAGS = sum((names for _, names in _SUITES.values()), ())

# --h is read from conjugate on; flow accepts it so that one argv drives the
# whole chain
_FLOW_CHAIN = ("domain", "h", "frac", "snapshots", "dt_scale", "a", "vertices")

# subcommand -> (pipeline, help, the RunConfig fields the pipeline reads);
# each field is a flag of the subcommand, and so are --out and --tag
_PIPELINES = {
    "entropy": (_run_entropy, "minimize W_beta, report mu",
                ("domain", "tau", "h", "beta", "tol")),
    "flow": (_run_flow, "curve shortening flow snapshots", _FLOW_CHAIN),
    "conjugate": (_run_conjugate, "backward conjugate heat solve along the flow",
                  _FLOW_CHAIN + ("steps_per_tau",)),
    "harnack": (_run_harnack, "rate identity and Harnack integrand checks",
                _FLOW_CHAIN + ("steps_per_tau", "skip")),
    "collapse": (_run_collapse, "volume-ratio scans",
                 ("domain", "beta", "seed", "radii", "centers", "budget")),
    "logsobolev": (_run_logsobolev, "log-Sobolev inequality checks",
                   ("domain", "h", "seed", "eps", "fields")),
    "verify": (_run_verify, "acceptance batteries", ("suite",) + _VERIFY_FLAGS),
}


def run(cfg: RunConfig) -> RunManifest:
    """Run the pipeline; write its manifest, also for a failure with exit 3 or 4."""
    cfg.validate()
    out = os.path.join(cfg.out, cfg.tag)
    os.makedirs(out, exist_ok=True)
    warnings_: list = []
    cache = _Cache(cfg.out)
    start = time.monotonic()
    pipeline, _, names = _PIPELINES[cfg.subcommand]
    failure = None
    try:
        outputs = pipeline(cfg, out, cache, warnings_)
    except (AcceptanceFailure,) + _NUMERICAL_ERRORS as e:
        failure, outputs = e, getattr(e, "outputs", [])
    if cfg.subcommand == "verify":
        names = ("suite",) + _SUITES[cfg.suite][1]
    # echo only the settings the run read
    names = ("subcommand",) + names + ("out", "tag")
    config = {name: getattr(cfg, name) for name in names}
    manifest = RunManifest(
        config=config,
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "entropylab": __version__,
        },
        wall_time_s=time.monotonic() - start,
        input_hashes={"config": _hash_obj(config)},
        outputs=[os.path.relpath(p, out) for p in outputs],
        warnings=warnings_,
        cache=cache.log,
        error=None if failure is None else f"{type(failure).__name__}: {failure}",
    )
    manifest.write(os.path.join(out, "manifest.json"))
    if failure is not None:
        raise failure
    return manifest


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand's flags, named, typed and defaulted by RunConfig."""
    p = argparse.ArgumentParser(
        prog="entropylab",
        description="boundary entropy functionals on moving planar domains",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    # None marks a verify flag that was not given, so that _parse_args can
    # reject the flags of the suite that does not run; RunConfig fills in
    # the default
    for command, (_, hlp, names) in _PIPELINES.items():
        # no abbreviations: "--h" on a subcommand without --h is an error,
        # not a request for --help
        sp = sub.add_parser(command, help=hlp, allow_abbrev=False)
        for name in names + ("out", "tag"):
            default = getattr(RunConfig, name)
            sp.add_argument(
                "--" + name.replace("_", "-"),
                type=float if name == "a" else type(default),
                default=(None if command == "verify" and name in _VERIFY_FLAGS
                         else default),
                choices=tuple(_SUITES) if name == "suite" else None,
            )
    return p


def _parse_args(argv) -> dict:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    if args["subcommand"] == "verify":
        for suite, (_, names) in _SUITES.items():
            for name in names:
                if suite != args["suite"] and args[name] is not None:
                    flag = "--" + name.replace("_", "-")
                    parser.error(f"verify: {flag} is read only by --suite {suite}")
    return {k: v for k, v in args.items() if v is not None}


def _outermost_missing(path: str):
    """The outermost directory on path that does not exist yet, or None."""
    missing = None
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing, path = path, os.path.dirname(path)
    return missing


def main(argv=None) -> int:
    try:
        cfg = RunConfig.from_dict(_parse_args(argv))
    except ValidationError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    created = _outermost_missing(os.path.join(cfg.out, cfg.tag))
    code = _run_and_report(cfg)
    if code == EXIT_VALIDATION and created is not None:
        # a rejected run leaves no directory behind
        shutil.rmtree(created, ignore_errors=True)
    return code


def _run_and_report(cfg: RunConfig) -> int:
    try:
        manifest = run(cfg)
    except AcceptanceFailure as e:
        print(f"acceptance failure: {e}", file=sys.stderr)
        return EXIT_ACCEPTANCE
    except ValidationError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as e:
        print(
            f"numerical failure in {cfg.subcommand}: {e}\n"
            "hint: refine h / reduce dt-scale, or loosen the tolerance",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as e:
        print(f"invalid input for {cfg.subcommand}: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    print(json.dumps({"outputs": manifest.outputs,
                      "wall_time_s": round(manifest.wall_time_s, 3),
                      "warnings": manifest.warnings}))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
