"""The benchmark's workloads: CLI operations and the checks on their outputs.

Each workload is a list of ``Op``s run one after another through
``entropylab.cli.main``, as a researcher would type them.  ``prepare``
imports the CLI and writes the generated input files; it is what the
``setup_s`` metric times.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import checks

TREFOIL_VERTICES = 512
COLLAPSE_POLYGON = checks.ellipse_polygon(1.2, 0.8, 512)  # cli samples ellipse: at 512

# Fault behind the one operation that fails on every run (see README.md).
VERTICES_FAULT = (
    "cli._flow_stage resamples the 512-vertex ellipse linearly to --vertices 384, "
    "so the flow starts from a polygon with vertices alternately on and inside "
    "the ellipse"
)


@dataclass
class Op:
    name: str
    argv: list
    tag: str
    check: Callable[[str], list]  # run directory -> failure messages
    known_fault: str = ""  # non-empty: the check is expected to fail for this reason


def _json_check(filename, fn, *args, **kwargs):
    def check(run_dir):
        with open(os.path.join(run_dir, filename)) as fh:
            return fn(json.load(fh), *args, **kwargs)
    return check


def _csv_check(filename, fn, *args):
    return lambda d: fn(checks.read_csv(os.path.join(d, filename)), *args)


def _static_entropy(inputs: str, seed: int) -> list[Op]:
    trefoil = os.path.join(inputs, "trefoil.json")
    radial = ["entropy", "--domain", "disk:1", "--beta", "radial", "--h", "0.02"]
    return [
        Op("entropy_radial_tau0.5", radial + ["--tau", "0.5"], "radial-0.5",
           _json_check("entropy.json", checks.check_entropy, mu_ref=checks.disk_mu(1.0, 0.5))),
        Op("entropy_radial_tau0.25", radial + ["--tau", "0.25"], "radial-0.25",
           _json_check("entropy.json", checks.check_entropy, mu_ref=checks.disk_mu(1.0, 0.25))),
        Op("entropy_trefoil", ["entropy", "--domain", f"file:{trefoil}",
                               "--beta", "mean_curvature", "--h", "0.02"], "trefoil",
           _json_check("entropy.json", checks.check_entropy)),
        Op("entropy_disk6_zero", ["entropy", "--domain", "disk:6", "--h", "0.15",
                                  "--beta", "zero", "--tol", "1e-7"], "disk6",
           _json_check("entropy.json", checks.check_entropy, mu_range=(-0.05, 0.01))),
        Op("logsobolev", ["logsobolev", "--domain", "disk:1", "--h", "0.05",
                          "--seed", str(seed)], "logsobolev",
           _json_check("logsobolev.json", checks.check_logsobolev)),
    ]


def _moving_ellipse(inputs: str, seed: int) -> list[Op]:
    # one tag for the chain, so conjugate and harnack read the cached stages
    common = ["--domain", "ellipse:1.2:0.8", "--frac", "0.4", "--snapshots", "21",
              "--vertices", "384", "--h", "0.04"]
    steps = ["--steps-per-tau", "250"]
    return [
        Op("flow", ["flow"] + common, "ellipse",
           _csv_check("flow.csv", checks.check_area_law)),
        Op("conjugate", ["conjugate"] + common + steps, "ellipse",
           _json_check("conjugate.json", checks.check_mass_drift)),
        Op("harnack", ["harnack"] + common + steps, "ellipse",
           _json_check("harnack.json", checks.check_identity_gaps),
           known_fault=VERTICES_FAULT),
    ]


def _shrinker_verify(inputs: str, seed: int) -> list[Op]:
    return [
        Op("verify_shrinker", ["verify", "--suite", "shrinker", "--h", "0.04",
                               "--steps-per-tau", "250"], "shrinker",
           _json_check("verify-shrinker.json", checks.check_shrinker)),
    ]


def _collapse_scan(inputs: str, seed: int) -> list[Op]:
    s = ["--seed", str(seed)]
    return [
        Op("collapse_slab", ["collapse", "--domain", "analytic:slab:1:2",
                             "--radii", "geometric:4,512"] + s, "slab",
           _csv_check("collapse.csv", checks.check_slab_scan)),
        Op("collapse_grim_reaper", ["collapse", "--domain", "analytic:grim_reaper_2d",
                                    "--centers", "grim_reaper_schedule",
                                    "--beta", "mean_curvature",
                                    "--radii", "geometric:2,256"] + s, "grim-reaper",
           _csv_check("collapse.csv", checks.check_grim_reaper_scan)),
        Op("collapse_ellipse_polygon", ["collapse", "--domain", "ellipse:1.2:0.8",
                                        "--radii", "linear:0.1,2.5,25",
                                        "--beta", "mean_curvature"] + s, "ellipse",
           _csv_check("collapse.csv", checks.check_polygon_scan, COLLAPSE_POLYGON)),
    ]


WORKLOADS = {
    "static_entropy": _static_entropy,
    "moving_ellipse": _moving_ellipse,
    "shrinker_verify": _shrinker_verify,
    "collapse_scan": _collapse_scan,
}


def prepare(workload: str, inputs: str, seed: int) -> list[Op]:
    """Import the CLI and write the workload's input files into ``inputs``."""
    import entropylab.cli  # noqa: F401  (timed as part of set-up)

    os.makedirs(inputs, exist_ok=True)
    if workload == "static_entropy":
        poly = checks.trefoil_polygon(TREFOIL_VERTICES)
        with open(os.path.join(inputs, "trefoil.json"), "w") as fh:
            json.dump({"type": "polyline", "vertices": poly.tolist()}, fh)
    return WORKLOADS[workload](inputs, seed)
