"""Command-line orchestration: configuration, run persistence, plot data.

One binary with subcommands {entropy, flow, conjugate, harnack, collapse,
logsobolev, verify}.  Every run writes a JSON manifest (config echo,
versions, input hashes, wall time, output list, warnings) atomically at the
end; CSV outputs serialize floats with 17 significant digits so reruns with
an identical config and seed are byte-identical.  The harnack pipeline
caches its flow and backward-solve stages under a hash of the exact inputs
that feed them and of the package's code.

Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 acceptance-suite failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
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

    VALID_SUBCOMMANDS = (
        "entropy", "flow", "conjugate", "harnack", "collapse",
        "logsobolev", "verify",
    )

    @staticmethod
    def from_dict(obj: dict) -> "RunConfig":
        known = {f.name for f in fields(RunConfig)}
        unknown = set(obj) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        cfg = RunConfig(**obj)
        cfg.validate()
        return cfg

    def validate(self):
        if self.subcommand not in self.VALID_SUBCOMMANDS:
            raise ValidationError(f"unknown subcommand {self.subcommand!r}")
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
        if self.budget < 10**3:
            raise ValidationError("sampling budget below 10^3 is meaningless")
        if self.vertices < 16:
            raise ValidationError("need at least 16 boundary vertices")
        if not self.tol > 0:
            raise ValidationError("tol must be positive")
        if not self.steps_per_tau > 0:
            raise ValidationError("steps-per-tau must be positive")
        if self.skip < 0:
            raise ValidationError("skip must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


_CURVE_M = 512  # boundary resolution of disk:/ellipse: outside the flow


def parse_domain(spec: str, m: int = _CURVE_M):
    """Domain spec strings: disk:R, ellipse:a:b, file:path, analytic:...

    Bounded 2D variants return a PlanarCurve for the PDE pipelines (disk:
    and ellipse: sampled at m vertices on the exact curve, 512 by default);
    analytic:* returns an AnalyticDomain for the collapse scans.
    """
    parts = str(spec).split(":")
    kind, args = parts[0], parts[1:]
    if kind == "disk":
        return geometry.PlanarCurve.circle(float(args[0]), m)
    if kind == "ellipse":
        return geometry.PlanarCurve.ellipse(float(args[0]), float(args[1]), m)
    if kind == "file":
        return geometry.load_domain(args[0])
    if kind == "analytic":
        variant = args[0]
        params = [float(p) for p in args[1:]]
        if variant not in _ANALYTIC_VARIANTS:
            raise ValidationError(f"unknown analytic variant {variant!r}")
        ctor = getattr(geometry.AnalyticDomain, variant)
        return ctor(*params) if params else ctor()
    raise ValidationError(f"unknown domain spec {spec!r}")


_ANALYTIC_VARIANTS = (
    "disk", "half_plane", "slab", "grim_reaper_2d", "grim_reaper_product",
    "catenoid_3d", "ball", "ellipse",
)


def parse_radii(spec: str):
    kind, _, rest = str(spec).partition(":")
    vals = [float(v) for v in rest.split(",")] if rest else []
    if kind == "geometric":
        lo, hi = vals
        n = int(round(np.log2(hi / lo))) + 1
        return [lo * 2.0**k for k in range(n)]
    if kind == "linear":
        lo, hi, n = vals
        return list(np.linspace(lo, hi, int(n)))
    if kind == "list":
        return vals
    raise ValidationError(f"unknown radii spec {spec!r}")


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
        return np.loadtxt(spec[5:])
    raise ValidationError(f"unknown beta spec {spec!r}")


# -- persistence -----------------------------------------------------------


def _atomic_write(path: str, text: str):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


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

    def write(self, path: str):
        _atomic_write(path, json.dumps(asdict(self), indent=2, default=_fmt) + "\n")


def emit_plot_data(report, path: str):
    """Whitespace-separated columns with a '#' header, one row per record.

    Works for any report exposing COLUMNS and column(name).
    """
    cols = [report.column(name) for name in report.COLUMNS]
    lines = ["# " + " ".join(report.COLUMNS)]
    for i in range(len(cols[0])):
        lines.append(" ".join(_fmt(arr[i]) for arr in cols))
    _atomic_write(path, "\n".join(lines) + "\n")


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
    inputs and of the code fingerprint (entries of other code never match)."""

    def __init__(self, root: str):
        self.dir = os.path.join(root, "cache")
        os.makedirs(self.dir, exist_ok=True)
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
        fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=".tmp-")
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(value, fh)
        os.replace(tmp, path)
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


def _run_entropy(cfg: RunConfig, out: str, warnings_: list):
    curve = _require_curve(parse_domain(cfg.domain))
    mesh = meshing.triangulate(curve, cfg.h)
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
        "h": mesh.h,
        "n_vertices": mesh.n_vertices,
    }
    jpath = os.path.join(out, "entropy.json")
    _atomic_write(jpath, json.dumps(payload, indent=2, default=_fmt) + "\n")
    cpath = os.path.join(out, "entropy.csv")
    _write_csv(
        cpath,
        ("tag", "tau", "mu", "W_constancy", "el_residual", "iterations"),
        [(cfg.tag, cfg.tau, result.mu, result.W_constancy,
          result.el_residual, result.iterations)],
    )
    return [jpath, cpath]


def _flow_stage(cfg: RunConfig, cache: _Cache):
    """Flow of the domain's boundary sampled at --vertices, cached.

    Analytic curves are sampled exactly at that count; a polyline file is
    resampled linearly by vertex index.
    """
    curve = _require_curve(parse_domain(cfg.domain, cfg.vertices), cfg.vertices)
    key = {
        "domain": cfg.domain,
        "vertices": cfg.vertices,
        "frac": cfg.frac,
        "snapshots": cfg.snapshots,
        "dt_scale": cfg.dt_scale,
        "a": cfg.a,
    }

    def run():
        c = curve
        if len(c) != cfg.vertices:
            c = geometry.PlanarCurve(
                conjugate.interp_periodic(
                    c.vertices, np.arange(cfg.vertices) * len(c) / cfg.vertices
                )
            )
        return flow.run_flow(c, cfg.frac, cfg.snapshots, cfg.dt_scale, cfg.a)

    return cache.get_or_run("flow", key, run), key


_TRUNCATION_CAUSES = {
    "turning": "turning angle per length above 1/(3h), curvature no longer resolved",
    "embedding": "the next step would make the curve self-intersect",
}


def _warn_if_truncated(traj, warnings_: list):
    """Name the guard that stopped the flow early, for every stage built on it."""
    if traj.truncated:
        reason = traj.meta["truncation"]
        warnings_.append(
            f"flow stopped early by the {reason} guard after "
            f"{traj.meta['steps']} steps ({_TRUNCATION_CAUSES[reason]})"
        )


def _run_flow(cfg: RunConfig, out: str, warnings_: list):
    cache = _Cache(out)
    traj, _ = _flow_stage(cfg, cache)
    _warn_if_truncated(traj, warnings_)
    cpath = os.path.join(out, "flow.csv")
    _write_csv(
        cpath,
        ("t", "tau", "area", "length"),
        [(s.t, s.tau, s.area, s.length) for s in traj.snapshots],
    )
    jpath = os.path.join(out, "trajectory.json")
    _atomic_write(
        jpath,
        json.dumps(
            {"a": traj.a, "T_est": traj.T_est, "truncated": traj.truncated,
             "truncation": traj.meta["truncation"], "steps": traj.meta["steps"],
             "records": traj.to_records()},
            default=_fmt,
        )
        + "\n",
    )
    return [cpath, jpath]


def _conjugate_stage(cfg: RunConfig, cache: _Cache):
    traj, flow_key = _flow_stage(cfg, cache)
    key = {"flow": flow_key, "h": cfg.h, "steps_per_tau": cfg.steps_per_tau}
    state = cache.get_or_run(
        "conjugate",
        key,
        lambda: conjugate.solve_from_minimizer(
            traj, h=cfg.h, steps_per_tau=cfg.steps_per_tau
        ),
    )
    return state


def _run_conjugate(cfg: RunConfig, out: str, warnings_: list):
    cache = _Cache(out)
    state = _conjugate_stage(cfg, cache)
    _warn_if_truncated(state.trajectory, warnings_)
    warnings_.extend(state.warnings)
    cpath = os.path.join(out, "conservation.csv")
    _write_csv(cpath, ("t", "mass"), state.conservation_log)
    jpath = os.path.join(out, "conjugate.json")
    _atomic_write(
        jpath,
        json.dumps(
            {
                "t0_index": state.t0_index,
                "max_mass_drift": state.max_mass_drift(),
                "mu_at_t0": state.end_result.mu if state.end_result else None,
                "linear_solve": state.linear_solve,
                "warnings": state.warnings,
            },
            indent=2,
            default=_fmt,
        )
        + "\n",
    )
    return [cpath, jpath]


def _run_harnack(cfg: RunConfig, out: str, warnings_: list):
    cache = _Cache(out)
    state = _conjugate_stage(cfg, cache)
    _warn_if_truncated(state.trajectory, warnings_)
    warnings_.extend(state.warnings)
    report = harnack.rate_identity_check(state, skip=cfg.skip)
    warnings_.extend(report.meta.get("warnings", []))
    cpath = os.path.join(out, "harnack.csv")
    _write_csv(
        cpath,
        report.COLUMNS,
        [[r[name] for name in report.COLUMNS] for r in report.records],
    )
    ppath = os.path.join(out, "harnack.dat")
    emit_plot_data(report, ppath)
    jpath = os.path.join(out, "harnack.json")
    _atomic_write(
        jpath,
        json.dumps(
            {
                "max_gap_a_rel": report.max_gap_a_rel(),
                "max_gap_gradw_rel": report.max_gap_gradw_rel(),
                "skipped_window": list(report.skipped_window),
                "meta": report.meta,
            },
            indent=2,
            default=_fmt,
        )
        + "\n",
    )
    return [cpath, ppath, jpath]


def _run_collapse(cfg: RunConfig, out: str, warnings_: list):
    domain = parse_domain(cfg.domain)
    radii = parse_radii(cfg.radii)
    dim = domain.dim if isinstance(domain, geometry.AnalyticDomain) else 2
    centers = parse_centers(cfg.centers, radii, dim)
    scan = collapse.ratio_scan(
        domain, centers, radii, beta_spec=cfg.beta,
        budget=cfg.budget, seed=cfg.seed,
    )
    cpath = os.path.join(out, "collapse.csv")
    _write_csv(
        cpath, scan.COLUMNS, [[row[name] for name in scan.COLUMNS] for row in scan.rows]
    )
    ppath = os.path.join(out, "collapse.dat")
    emit_plot_data(scan, ppath)
    jpath = os.path.join(out, "collapse.json")
    _atomic_write(
        jpath,
        json.dumps(
            {"dim": scan.dim, "collapsed_trend": scan.collapsed_trend,
             "meta": scan.meta},
            indent=2,
            default=_fmt,
        )
        + "\n",
    )
    return [cpath, ppath, jpath]


def _run_logsobolev(cfg: RunConfig, out: str, warnings_: list):
    curve = _require_curve(parse_domain(cfg.domain))
    mesh = meshing.triangulate(curve, cfg.h)
    ops = fem.assemble(mesh)
    consts = functional.log_sobolev_constants(ops, seed=cfg.seed)
    eps_list = [float(e) for e in cfg.eps.split(",")]
    rng = np.random.default_rng(cfg.seed)
    rows, violations = [], 0
    for i in range(cfg.fields):
        psi = np.abs(rng.standard_normal(mesh.n_vertices)) + 1e-6
        phi = psi / np.sqrt(ops.M_lumped @ psi**2)
        for eps in eps_list:
            chk = functional.log_sobolev_check(ops, phi, eps, consts["c_S"])
            violations += not chk["holds"]
            rows.append((i, eps, chk["lhs"], chk["rhs"], chk["holds"]))
    if violations:
        warnings_.append(f"{violations} log-Sobolev violations")
    cpath = os.path.join(out, "logsobolev.csv")
    _write_csv(cpath, ("field", "eps", "lhs", "rhs", "holds"), rows)
    jpath = os.path.join(out, "logsobolev.json")
    _atomic_write(
        jpath,
        json.dumps(
            {"constants": consts, "violations": violations,
             "fields": cfg.fields, "eps": eps_list},
            indent=2,
            default=_fmt,
        )
        + "\n",
    )
    return [cpath, jpath]


def _run_verify(cfg: RunConfig, out: str, warnings_: list):
    if cfg.suite == "shrinker":
        checks = verify_shrinker(h=cfg.h, steps_per_tau=cfg.steps_per_tau)
    elif cfg.suite == "collapse":
        checks = verify_collapse(budget=cfg.budget, seed=cfg.seed)
    else:
        raise ValidationError(f"unknown suite {cfg.suite!r}")
    jpath = os.path.join(out, f"verify-{cfg.suite}.json")
    _atomic_write(jpath, json.dumps(checks, indent=2, default=_fmt) + "\n")
    failed = [name for name, c in checks.items() if not c["ok"]]
    if failed:
        raise AcceptanceFailure(f"suite {cfg.suite!r} failed: {failed}")
    return [jpath]


class AcceptanceFailure(RuntimeError):
    pass


def verify_shrinker(h: float = 0.02, steps_per_tau: float = 500.0) -> dict:
    """Shrinking-circle equality battery; see tests for the full version."""
    times = np.arange(0.0, 0.4 + 1e-12, 0.0025)
    traj = flow.analytic_shrinking_disk_trajectory(1.0, times)
    state = conjugate.solve_from_minimizer(traj, h=h, steps_per_tau=steps_per_tau)
    report = harnack.rate_identity_check(state)
    W = report.column("W_beta")
    checks = {
        "W_constant_along_flow": {"value": float(np.abs(W - W[0]).max()), "tol": 5e-3},
        "boundary_term_harnack": {
            "value": float(np.abs(report.column("boundary_term_harnack")).max()),
            "tol": 5e-3,
        },
        "volume_term": {
            "value": float(np.abs(report.column("volume_term")).max()),
            "tol": 5e-3,
        },
        "mass_drift": {"value": state.max_mass_drift(), "tol": 1e-3},
    }
    for c in checks.values():
        c["ok"] = bool(c["value"] <= c["tol"])
    return checks


def verify_collapse(budget: int = collapse.DEFAULT_BUDGET, seed: int = 0) -> dict:
    """Slab, catenoid, grim reaper and shrinking-sphere collapse checks."""
    slab = geometry.AnalyticDomain.slab(1.0)
    radii = [4.0 * 2.0**k for k in range(8)]
    scan = collapse.ratio_scan(slab, [(0.0, 0.0)], radii, budget=budget, seed=seed)
    r = scan.column("ratio")
    x = 1.0 / scan.column("r")
    coef = float((x @ r) / (x @ x))
    resid = r - coef * x
    r2_slab = 1.0 - float(resid @ resid) / float((r - r.mean()) @ (r - r.mean()))

    sphere = collapse.shrinking_sphere_ratio(2, -0.25, 2.0)
    checks = {
        "slab_inverse_r_fit": {"value": r2_slab, "tol": 0.99, "ok": r2_slab >= 0.99},
        "slab_collapsed_trend": {
            "value": scan.collapsed_trend, "tol": True,
            "ok": bool(scan.collapsed_trend),
        },
        "shrinking_sphere_c": {
            "value": sphere, "tol": 24.0,
            "ok": bool(abs(sphere - 24.0) <= 0.01 * 24.0),
        },
    }
    return checks


_PIPELINES = {
    "entropy": _run_entropy,
    "flow": _run_flow,
    "conjugate": _run_conjugate,
    "harnack": _run_harnack,
    "collapse": _run_collapse,
    "logsobolev": _run_logsobolev,
    "verify": _run_verify,
}


def run(cfg: RunConfig) -> RunManifest:
    cfg.validate()
    out = os.path.join(cfg.out, cfg.tag)
    os.makedirs(out, exist_ok=True)
    warnings_: list = []
    start = time.monotonic()
    outputs = _PIPELINES[cfg.subcommand](cfg, out, warnings_)
    manifest = RunManifest(
        config=cfg.to_dict(),
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "entropylab": __version__,
        },
        wall_time_s=time.monotonic() - start,
        input_hashes={"config": _hash_obj(cfg.to_dict())},
        outputs=[os.path.relpath(p, out) for p in outputs],
        warnings=warnings_,
    )
    manifest.write(os.path.join(out, "manifest.json"))
    return manifest


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="entropylab",
        description="boundary entropy functionals on moving planar domains",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def command(name, hlp):
        # no abbreviations: "--h" on a subcommand without --h is an error,
        # not a request for --help
        return sub.add_parser(name, help=hlp, allow_abbrev=False)

    def base(sp, *names):
        """The shared flags the subcommand's pipeline reads, plus --out, --tag."""
        for name in names + ("out", "tag"):
            default = getattr(RunConfig, name)
            sp.add_argument(f"--{name}", type=type(default), default=default)

    def flow_chain(sp):
        # --h is read from conjugate on; flow accepts it so that one argv
        # drives the whole chain
        base(sp, "domain", "h")
        sp.add_argument("--frac", type=float, default=0.5)
        sp.add_argument("--snapshots", type=int, default=21)
        sp.add_argument("--dt-scale", dest="dt_scale", type=float, default=1.0)
        sp.add_argument("--a", type=float, default=None)
        sp.add_argument("--vertices", type=int, default=512)

    def steps_per_tau(sp):
        sp.add_argument("--steps-per-tau", dest="steps_per_tau",
                        type=float, default=500.0)

    sp = command("entropy", "minimize W_beta, report mu")
    base(sp, "domain", "tau", "h", "beta")
    sp.add_argument("--tol", type=float, default=1e-8)

    sp = command("flow", "curve shortening flow snapshots")
    flow_chain(sp)

    sp = command("conjugate", "backward conjugate heat solve along the flow")
    flow_chain(sp)
    steps_per_tau(sp)

    sp = command("harnack", "rate identity and Harnack integrand checks")
    flow_chain(sp)
    steps_per_tau(sp)
    sp.add_argument("--skip", type=int, default=harnack.DEFAULT_SKIP)

    sp = command("collapse", "volume-ratio scans")
    base(sp, "domain", "beta", "seed")
    sp.add_argument("--radii", default="geometric:4,512")
    sp.add_argument("--centers", default="origin")
    sp.add_argument("--budget", type=int, default=collapse.DEFAULT_BUDGET)

    sp = command("logsobolev", "log-Sobolev inequality checks")
    base(sp, "domain", "h", "seed")
    sp.add_argument("--eps", default="0.1,1,10")
    sp.add_argument("--fields", type=int, default=100)

    sp = command("verify", "acceptance batteries")
    base(sp)
    sp.add_argument("--suite", default="shrinker",
                    choices=("shrinker", "collapse"))
    # None marks a flag that was not given, so that main can reject the
    # flags of the suite that does not run; RunConfig fills in the default
    sp.add_argument("--h", type=float, default=None)
    sp.add_argument("--steps-per-tau", dest="steps_per_tau", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--budget", type=int, default=None)
    return p


# the verify flags each suite reads
_SUITE_FLAGS = {"shrinker": ("h", "steps_per_tau"), "collapse": ("seed", "budget")}


def _parse_args(argv) -> dict:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    if args["subcommand"] == "verify":
        for suite, names in _SUITE_FLAGS.items():
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
