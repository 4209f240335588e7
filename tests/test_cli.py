import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from entropylab import cli, collapse, conjugate, geometry, meshing
from entropylab.geometry import AnalyticDomain, PlanarCurve


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ValidationError):
            cli.RunConfig.from_dict({"subcommand": "entropy", "banana": 1})

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(cli.ValidationError):
            cli.RunConfig.from_dict({"subcommand": "frobnicate"})

    @pytest.mark.parametrize(
        "field,value",
        [("tau", 0.0), ("h", -1.0), ("dt_scale", 2.0), ("frac", 0.96),
         ("snapshots", 1), ("budget", 10), ("vertices", 4), ("tol", 0.0),
         ("steps_per_tau", 0.0), ("skip", -3), ("seed", -1),
         # more than 2^30 Sobol points per replicate
         ("budget", 2**34),
         # non-finite floats
         ("tau", np.inf), ("tau", np.nan), ("h", np.inf), ("frac", np.nan),
         ("dt_scale", np.nan), ("a", np.nan), ("a", np.inf), ("tol", np.inf),
         ("steps_per_tau", np.inf),
         # logsobolev counts and eps lists
         ("fields", 0), ("fields", -3), ("eps", "nan"), ("eps", "-1"),
         ("eps", "0.1,inf"), ("eps", "0.1,,1"), ("eps", "")],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(cli.ValidationError):
            cli.RunConfig.from_dict({"subcommand": "entropy", field: value})

    @pytest.mark.parametrize("sub,snapshots",
                             [("harnack", 6), ("flow", 2), ("conjugate", 2)])
    def test_snapshot_counts_kept(self, sub, snapshots):
        # harnack evaluates snapshots - skip >= 3; flow and conjugate do not read --skip
        cli.RunConfig.from_dict({"subcommand": sub, "snapshots": snapshots, "skip": 3})

    def test_round_trip(self):
        cfg = cli.RunConfig.from_dict({"subcommand": "flow", "frac": 0.3})
        assert cli.RunConfig.from_dict(asdict(cfg)) == cfg


_FLOW_CHAIN = {"domain": "disk:1", "h": 0.02, "frac": 0.5, "snapshots": 21,
               "dt_scale": 1.0, "vertices": 512}

# subcommand -> (what `entropylab <subcommand>` parses to besides subcommand,
# --out and --tag; the flags it accepts that parse to nothing when not given)
PARSED = {
    "entropy": ({"domain": "disk:1", "tau": 0.5, "h": 0.02, "beta": "zero",
                 "tol": 1e-8}, set()),
    "flow": (_FLOW_CHAIN, {"a"}),
    "conjugate": ({**_FLOW_CHAIN, "steps_per_tau": 500.0}, {"a"}),
    "harnack": ({**_FLOW_CHAIN, "steps_per_tau": 500.0, "skip": 5}, {"a"}),
    "collapse": ({"domain": "disk:1", "beta": "zero", "seed": 0,
                  "radii": "geometric:4,512", "centers": "origin",
                  "budget": 10**6}, set()),
    "logsobolev": ({"domain": "disk:1", "h": 0.02, "seed": 0, "eps": "0.1,1,10",
                    "fields": 100}, set()),
    "verify": ({"suite": "shrinker"}, {"h", "steps_per_tau", "seed", "budget"}),
}


@pytest.mark.parametrize("sub", sorted(PARSED))
def test_subcommand_flags_and_defaults(sub):
    defaults, unset = PARSED[sub]
    common = {"subcommand": sub, "out": "runs", "tag": "run"}
    assert cli._parse_args([sub]) == {**common, **defaults}
    subparsers = next(a for a in cli._build_parser()._actions if a.dest == "subcommand")
    dests = {a.dest for a in subparsers.choices[sub]._actions} - {"help"}
    assert dests == set(defaults) | unset | {"out", "tag"}
    for dest, value in defaults.items():
        flag = "--" + dest.replace("_", "-")
        parsed = cli._parse_args([sub, flag, str(value)])[dest]
        assert parsed == value and type(parsed) is type(value)
    if "a" in unset:
        parsed = cli._parse_args([sub, "--a", "2"])["a"]
        assert parsed == 2.0 and type(parsed) is float


class TestSpecParsers:
    def test_parse_domain_disk(self):
        d = cli.parse_domain("disk:2")
        assert isinstance(d, PlanarCurve)
        assert d.enclosed_area() == pytest.approx(4 * np.pi, rel=1e-4)

    def test_parse_domain_ellipse(self):
        d = cli.parse_domain("ellipse:2:1")
        assert d.enclosed_area() == pytest.approx(2 * np.pi, rel=1e-4)

    def test_parse_domain_analytic(self):
        d = cli.parse_domain("analytic:slab:1.5:2")
        assert isinstance(d, AnalyticDomain)
        assert d.variant == "slab"

    def test_parse_domain_unknown(self):
        with pytest.raises(cli.ValidationError):
            cli.parse_domain("torus:1")
        with pytest.raises(cli.ValidationError):
            cli.parse_domain("analytic:contains")

    def test_readme_names_the_analytic_variants(self):
        # the README's domain-spec sentence lists the one variant table
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        sentence = re.search(r"`analytic:<variant>\[:params\]` with variants(.*?)"
                             r"\(bracketed", readme, re.S).group(1)
        forms = [f"{v}:{p}".replace(":[", "[:").rstrip(":")
                 for v, p in geometry.ANALYTIC_VARIANTS.items()]
        assert re.findall(r"`([^`]+)`", sentence) == forms

    def test_parse_radii(self):
        assert cli.parse_radii("geometric:4,32") == [4.0, 8.0, 16.0, 32.0]
        # up to hi, never past it
        assert cli.parse_radii("geometric:4,500")[-1] == 256.0
        assert cli.parse_radii("geometric:1,1.5") == [1.0]
        assert cli.parse_radii("geometric:2,2") == [2.0]
        assert cli.parse_radii("geometric:0.3,2.4") == [0.3, 0.6, 1.2, 2.4]
        # a hi that is lo 2^k to rounding keeps its radius
        assert len(cli.parse_radii("geometric:0.333333333333,1.33333333333")) == 3
        assert cli.parse_radii("geometric:4,512") == [4.0 * 2**k for k in range(8)]
        assert cli.parse_radii("linear:1,3,3") == [1.0, 2.0, 3.0]
        assert cli.parse_radii("list:5,7") == [5.0, 7.0]
        with pytest.raises(cli.ValidationError):
            cli.parse_radii("fibonacci:1,8")

    def test_parse_centers(self):
        assert cli.parse_centers("origin", [1.0]) == [(0.0, 0.0)]
        assert cli.parse_centers("grim_reaper_schedule", [2.0]) == [(0.0, 4.0)]
        assert cli.parse_centers("list:1,2,3,4", []) == [(1.0, 2.0), (3.0, 4.0)]
        with pytest.raises(cli.ValidationError):
            cli.parse_centers("list:1,2,3", [])
        assert cli.parse_centers("origin", [1.0], 3) == [(0.0, 0.0, 0.0)]
        assert cli.parse_centers("list:1,2,3", [], 3) == [(1.0, 2.0, 3.0)]
        assert cli.parse_centers("grim_reaper_schedule", [2.0], 3) == [(0.0, 0.0, 4.0)]
        with pytest.raises(cli.ValidationError):
            cli.parse_centers("list:1,2,3,4", [], 3)
        with pytest.raises(cli.ValidationError):
            cli.parse_centers("everywhere", [])


class TestFormatting:
    def test_float_round_trip(self):
        for x in (np.pi, 1.0 / 3.0, 1e-300, -0.0):
            assert float(cli._fmt(x)) == x

    def test_non_floats(self):
        assert cli._fmt(True) == "True"
        assert cli._fmt(7) == "7"
        assert cli._fmt("tag") == "tag"
        assert cli._fmt(None) == "None"

    def test_hash_stable_under_key_order(self):
        a = cli._hash_obj({"x": 1.0, "y": 2.0})
        b = cli._hash_obj({"y": 2.0, "x": 1.0})
        assert a == b


class TestPipelines:
    def test_entropy_run_and_exit_code(self, tmp_path, capsys):
        rc = cli.main([
            "entropy", "--domain", "disk:1", "--h", "0.08", "--beta", "radial",
            "--out", str(tmp_path), "--tag", "t1",
        ])
        assert rc == cli.EXIT_OK
        payload = json.loads((tmp_path / "t1" / "entropy.json").read_text())
        assert float(payload["mu"]) == pytest.approx(np.log(1 - np.exp(-0.5)), abs=5e-3)
        for count in ("iterations", "backtracks", "restarts"):
            assert isinstance(payload[count], int) and payload[count] >= 0
        # the csv columns stay as they were
        header = (tmp_path / "t1" / "entropy.csv").read_text().splitlines()[0]
        assert header == "tag,tau,mu,W_constancy,el_residual,iterations"
        manifest = json.loads((tmp_path / "t1" / "manifest.json").read_text())
        assert manifest["config"]["subcommand"] == "entropy"
        # only the settings entropy reads are echoed, and hashed
        assert set(manifest["config"]) == {
            "subcommand", "domain", "tau", "h", "beta", "tol", "out", "tag"
        }
        assert manifest["input_hashes"]["config"] == cli._hash_obj(manifest["config"])
        assert set(manifest["versions"]) == {"python", "numpy", "scipy", "entropylab"}
        assert "entropy.csv" in manifest["outputs"]
        assert manifest["error"] is None

    def test_entropy_at_an_unresolved_tau_fails(self, tmp_path, capsys):
        # at tau 1e-10 the h 0.2 mesh does not resolve the start Gaussian; the
        # constant start used to be reported as converged, mu 19.63, exit 0
        rc = cli.main(["entropy", "--domain", "disk:1", "--h", "0.2", "--tau", "1e-10",
                       "--out", str(tmp_path), "--tag", "t"])
        assert rc == cli.EXIT_NUMERICAL
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        assert manifest["error"].startswith("ConvergenceError: tau=1e-10 ")
        assert manifest["outputs"] == []

    def test_a_tau_sweep_meshes_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = meshing.triangulate

        def counted(curve, h):
            calls.append(h)
            return real(curve, h)

        monkeypatch.setattr(meshing, "triangulate", counted)
        common = ["entropy", "--domain", "disk:1", "--h", "0.08", "--beta", "radial"]
        for tau in ("0.5", "0.25"):
            argv = common + ["--tau", tau, "--tag", f"tau{tau}"]
            assert cli.main(argv + ["--out", str(tmp_path / "sweep")]) == cli.EXIT_OK
            assert cli.main(argv + ["--out", str(tmp_path / f"alone{tau}")]) == cli.EXIT_OK
        # once for the sweep, once for each run without a cache entry
        assert calls == [0.08] * 3
        hits = []
        for tau in ("0.5", "0.25"):
            run = tmp_path / "sweep" / f"tau{tau}"
            alone = tmp_path / f"alone{tau}" / f"tau{tau}"
            for name in ("entropy.csv", "entropy.json"):
                assert (run / name).read_bytes() == (alone / name).read_bytes()
            log = json.loads((run / "manifest.json").read_text())["cache"]
            assert set(log) == {"mesh"}
            hits.append(log["mesh"]["hit"])
        assert hits == [False, True]
        assert os.listdir(tmp_path / "sweep" / "cache") == [
            f"mesh-{log['mesh']['key']}.pkl"
        ]

    def test_mesh_cache_misses_for_another_h_or_curve(self, tmp_path, capsys):
        path = tmp_path / "curve.json"

        def mesh_hit(argv):
            assert cli.main(argv + ["--out", str(tmp_path), "--tag", "m"]) == cli.EXIT_OK
            manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
            return manifest["cache"]["mesh"]["hit"]

        circle = PlanarCurve.circle(1.0, 128).vertices
        path.write_text(json.dumps({"type": "polyline", "vertices": circle.tolist()}))
        base = ["logsobolev", "--domain", f"file:{path}", "--fields", "2"]
        assert not mesh_hit(base + ["--h", "0.1"])
        assert mesh_hit(base + ["--h", "0.1"])
        assert not mesh_hit(base + ["--h", "0.12"])
        # the same spec text names another polyline once the file is rewritten
        path.write_text(json.dumps({"type": "polyline",
                                    "vertices": (0.9 * circle).tolist()}))
        assert not mesh_hit(base + ["--h", "0.1"])
        assert len(os.listdir(tmp_path / "cache")) == 3

    def test_runs_that_cache_nothing_leave_no_cache(self, tmp_path, capsys):
        # a collapse run caches no stage; an entropy run on a domain that is
        # not a planar curve fails before meshing
        assert cli.main(["collapse", "--domain", "analytic:slab:1:2", "--radii",
                         "list:4", "--budget", "1000", "--out", str(tmp_path),
                         "--tag", "c"]) == cli.EXIT_OK
        assert cli.main(["entropy", "--domain", "analytic:slab:1:2",
                         "--out", str(tmp_path), "--tag", "e"]) == cli.EXIT_VALIDATION
        assert sorted(os.listdir(tmp_path)) == ["c"]

    def test_verify_manifest_echoes_the_running_suite(self, tmp_path, monkeypatch, capsys):
        passing = {"check": {"value": 0.0, "tol": 1.0, "ok": True}}
        flags = cli._SUITES["shrinker"][1]
        monkeypatch.setitem(cli._SUITES, "shrinker", (lambda **kwargs: passing, flags))
        argv = ["verify", "--suite", "shrinker", "--out", str(tmp_path), "--tag", "v"]
        assert cli.main(argv) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
        assert set(manifest["config"]) == {
            "subcommand", "suite", "h", "steps_per_tau", "out", "tag"
        }
        # no stage is cached, so no cache directory is made
        assert manifest["cache"] == {} and not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("suite, flags, target, value, failed", [
        ("shrinker", ["--h", "0.04", "--steps-per-tau", "250"],
         (conjugate.BackwardSolveState, "max_mass_drift"), 1.0, "mass_drift"),
        ("collapse", ["--budget", "10000"],
         (collapse, "shrinking_sphere_ratio"), 0.0, "shrinking_sphere_c_rel_err"),
    ], ids=["shrinker", "collapse"])
    def test_failed_check_exits_4(self, suite, flags, target, value, failed,
                                  tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(*target, lambda *args: value)
        argv = ["verify", "--suite", suite, *flags, "--out", str(tmp_path), "--tag", "v"]
        assert cli.main(argv) == cli.EXIT_ACCEPTANCE
        err = capsys.readouterr().err
        assert err.startswith("acceptance failure:") and repr(failed) in err
        checks = json.loads((tmp_path / "v" / f"verify-{suite}.json").read_text())
        assert [name for name, c in checks.items() if not c["ok"]] == [failed]

    def test_failed_suite_writes_its_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(collapse, "shrinking_sphere_ratio", lambda *args: 0.0)
        argv = ["verify", "--suite", "collapse", "--budget", "10000",
                "--out", str(tmp_path), "--tag", "v"]
        assert cli.main(argv) == cli.EXIT_ACCEPTANCE
        manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
        assert manifest["config"]["suite"] == "collapse"
        assert manifest["config"]["budget"] == 10000
        assert manifest["error"].startswith("AcceptanceFailure:")
        assert "shrinking_sphere_c_rel_err" in manifest["error"]
        assert manifest["outputs"] == ["verify-collapse.json"]

    def test_numerical_failure_writes_its_manifest(self, tmp_path, monkeypatch, capsys):
        real = cli.flow.run_flow

        def truncated(*args):
            traj = real(*args)
            traj.truncated = True
            traj.meta["truncation"] = "embedding"
            return traj

        def fails(*args, **kwargs):
            raise cli.harnack.HarnackError("no snapshot left to evaluate")

        monkeypatch.setattr(cli.flow, "run_flow", truncated)
        monkeypatch.setattr(cli.harnack, "rate_identity_check", fails)
        argv = ["harnack", "--skip", "0", "--domain", "disk:1", "--vertices", "128",
                "--frac", "0.3", "--snapshots", "6", "--h", "0.1",
                "--steps-per-tau", "50", "--out", str(tmp_path), "--tag", "h"]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure in harnack:")
        manifest = json.loads((tmp_path / "h" / "manifest.json").read_text())
        assert manifest["config"]["steps_per_tau"] == 50.0
        assert manifest["config"]["vertices"] == 128
        assert manifest["error"] == "HarnackError: no snapshot left to evaluate"
        assert any("embedding guard" in w for w in manifest["warnings"])
        assert manifest["outputs"] == []

    def test_unknown_suite_rejected_before_the_run_directory(self, tmp_path):
        cfg = cli.RunConfig(subcommand="verify", suite="nope", out=str(tmp_path), tag="v")
        with pytest.raises(cli.ValidationError, match="unknown suite"):
            cli.run(cfg)
        assert not (tmp_path / "v").exists()

    def test_validation_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["entropy", "--tau", "-1"]) == cli.EXIT_VALIDATION
        assert cli.main(["entropy", "--domain", "nope:1"]) == cli.EXIT_VALIDATION
        # the rejected run removes the run directory it created
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("argv", [
        ["harnack", "--beta", "zero"],
        ["collapse", "--h", "0.1"],
        ["flow", "--tau", "0.3"],
        ["entropy", "--seed", "1"],
        ["logsobolev", "--beta", "zero"],
        ["verify", "--domain", "disk:1"],
        pytest.param(["verify", "--suite", "collapse", "--h", "0.04"],
                     id="verify_collapse_h"),
        pytest.param(["verify", "--budget", "5000"], id="verify_shrinker_budget"),
    ], ids=lambda argv: argv[0])
    def test_flags_a_pipeline_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["entropy", "--domain", "disk"],
        ["entropy", "--domain", "ellipse:1"],
        ["collapse", "--domain", "analytic:ball:1:3:4"],
        ["collapse", "--domain", "analytic:disk"],
        ["collapse", "--radii", "geometric:0,8"],
        # counts must be integers >= 1, sizes positive, radii finite and positive
        ["collapse", "--domain", "analytic:grim_reaper_product:0", "--radii", "list:1,2"],
        ["collapse", "--domain", "analytic:ball:1:2.5"],
        ["entropy", "--domain", "disk:-1"],
        ["entropy", "--domain", "ellipse:1.2:0"],
        ["collapse", "--radii", "list:1,nan"],
        ["collapse", "--radii", "list:1,-2"],
        ["collapse", "--radii", "linear:1,2,2.7"],
        ["collapse", "--domain", "analytic:slab:1", "--centers", "list:nan,0",
         "--radii", "list:1,2,4"],
        ["collapse", "--domain", "ellipse:1.2:0.8", "--centers", "list:inf,0",
         "--radii", "list:1"],
        # a below the curve's T_est = 1/2
        ["flow", "--domain", "disk:1", "--a", "0.1"],
        ["conjugate", "--domain", "disk:1", "--a", "0.1"],
        ["harnack", "--domain", "disk:1", "--a", "0.1"],
        # non-finite floats
        ["conjugate", "--steps-per-tau", "inf"],
        ["entropy", "--tau", "inf"],
        ["entropy", "--tol", "inf"],
        ["flow", "--a", "nan"],
        ["flow", "--a", "inf"],
        # logsobolev counts and eps, checked before any meshing
        ["logsobolev", "--fields", "0"],
        ["logsobolev", "--fields", "-3"],
        ["logsobolev", "--eps", "nan"],
        ["logsobolev", "--eps", "-1"],
        ["logsobolev", "--eps", "0.1,x"],
        # never leaves three snapshots to evaluate
        ["harnack", "--snapshots", "5", "--skip", "3"],
        # a negative seed, rejected before any meshing or sampling
        ["collapse", "--seed", "-1"],
        # a budget past the Sobol sequence's 2^30 points per replicate
        ["collapse", "--budget", str(2**34)],
        ["logsobolev", "--seed", "-1"],
    ], ids=" ".join)
    def test_malformed_input_exits_2(self, argv, tmp_path, capsys):
        rc = cli.main(argv + ["--out", str(tmp_path / "runs")])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("obj", [
        {"type": "analytic", "variant": "grim_reaper_product", "params": {"n": 0}},
        {"type": "analytic", "variant": "slab", "params": {"d": 1, "dim": 0}},
        {"type": "analytic", "variant": "ball", "params": {"R": 1, "dim": 2.5}},
        {"type": "analytic", "variant": "disk", "params": {"R": 1, "center": [0.5]}},
        {"type": "analytic", "variant": "slab", "params": {"d": 1, "D": 3}},
        {"type": "analytic", "variant": "half_plane", "params": {"a": float("inf")}},
        {"type": "polyline",
         "vertices": [[np.nan, 0.0]] + PlanarCurve.circle(1.0, 16).vertices[1:].tolist()},
        [{"type": "analytic", "variant": "ball", "params": {"R": 1}}],
        {"type": "analytic", "variant": [1], "params": {}},
        {"type": "analytic", "variant": "ball", "params": {"R": 1, "dim": 10**400}},
    ], ids=["n=0", "dim=0", "dim=2.5", "center=[0.5]", "unknown_key",
            "half_plane_inf", "nan_vertex", "top_level_list", "variant=[1]",
            "dim=1e400"])
    def test_malformed_domain_file_exits_2(self, obj, tmp_path, capsys):
        # a file: domain goes through the checks of an analytic: spec
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(obj))
        rc = cli.main(["collapse", "--domain", f"file:{path}", "--radii", "list:1,2",
                       "--budget", "1000", "--out", str(tmp_path / "runs")])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid input for collapse: ") and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("argv", [
        ["entropy", "--domain", "file:{dir}"],
        ["entropy", "--domain", "disk:1", "--h", "0.1", "--beta", "file:{dir}"],
        ["flow", "--domain", "file:{dir}"],
        ["flow", "--domain", "file:{file}/x.json"],
    ], ids=" ".join)
    def test_unreadable_file_input_exits_2(self, argv, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        argv = [arg.format(dir=tmp_path, file=plain) for arg in argv]
        rc = cli.main(argv + ["--out", str(tmp_path / "runs")])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input for {argv[0]}: ") and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_tiny_h_exits_2_before_seeding(self, tmp_path, capsys, monkeypatch):
        # at h 1e-4 the unit disk's lattice would hold about 4.6e8 points
        def unreachable(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(meshing, "_hex_lattice", unreachable)
        rc = cli.main(["entropy", "--domain", "disk:1", "--h", "1e-4",
                       "--out", str(tmp_path / "runs")])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid input for entropy: ") and "lattice points" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("domain, radii", [
        ("analytic:slab:1:2", "list:1e160"),
        ("ellipse:1.2:0.8", "list:1e160"),
        ("analytic:catenoid_3d", "list:1e160"),
        ("analytic:slab:1:2", "list:1e-200"),
    ], ids=["slab_overflow", "polygon_overflow", "catenoid_overflow", "underflow"])
    def test_radius_power_out_of_normal_range_exits_2(self, domain, radii, tmp_path,
                                                      capsys):
        rc = cli.main(["collapse", "--domain", domain, "--radii", radii,
                       "--budget", "1000", "--out", str(tmp_path / "runs")])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid input for collapse: ") and "Traceback" not in err
        assert "positive normal floats" in err
        assert not (tmp_path / "runs").exists()

    def test_huge_planar_radius_runs(self, tmp_path, capsys):
        assert cli.main(["collapse", "--domain", "analytic:slab:1:2", "--radii",
                         "list:1e150", "--budget", "1000", "--out", str(tmp_path),
                         "--tag", "big"]) == cli.EXIT_OK
        rows = (tmp_path / "big" / "collapse.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("9.9999999999999998e+149,")

    def test_beta_file_needs_one_finite_value_per_boundary_vertex(self, tmp_path, capsys):
        n = meshing.triangulate(cli.parse_domain("disk:1"), 0.1).n_boundary
        path = tmp_path / "beta.txt"
        argv = ["entropy", "--domain", "disk:1", "--h", "0.1", "--beta", f"file:{path}",
                "--out", str(tmp_path / "runs")]
        for values in (np.full(n, np.nan), np.ones(n - 1)):
            np.savetxt(path, values)
            assert cli.main(argv) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert f"needs {n} finite values" in err and "Traceback" not in err
            assert not (tmp_path / "runs").exists()
        np.savetxt(path, np.zeros(n))
        assert cli.main(argv) == cli.EXIT_OK

    def test_collapse_rerun_byte_identical(self, tmp_path, capsys):
        args = [
            "collapse", "--domain", "analytic:slab:1:2",
            "--radii", "geometric:4,16", "--budget", "10000",
            "--out", str(tmp_path), "--tag", "c1",
        ]
        assert cli.main(args) == cli.EXIT_OK
        first = (tmp_path / "c1" / "collapse.csv").read_bytes()
        assert cli.main(args) == cli.EXIT_OK
        assert (tmp_path / "c1" / "collapse.csv").read_bytes() == first
        # radii 4, 8, 16: the half balls of radius 4 and 8 are earlier full balls
        meta = json.loads((tmp_path / "c1" / "collapse.json").read_text())["meta"]
        assert (meta["volumes_evaluated"], meta["volumes_reused"]) == (4, 2)

    def test_flow_then_cached_rerun(self, tmp_path, capsys):
        args = [
            "flow", "--domain", "disk:1", "--frac", "0.3", "--snapshots", "4",
            "--vertices", "128", "--out", str(tmp_path), "--tag", "f1",
        ]
        assert cli.main(args) == cli.EXIT_OK
        cache_dir = tmp_path / "cache"
        entries = sorted(os.listdir(cache_dir))
        assert len(entries) == 1 and entries[0].startswith("flow-")
        first = (tmp_path / "f1" / "flow.csv").read_bytes()
        assert cli.main(args) == cli.EXIT_OK
        assert (tmp_path / "f1" / "flow.csv").read_bytes() == first
        assert sorted(os.listdir(cache_dir)) == entries

    def test_flow_cache_follows_the_file(self, tmp_path, capsys):
        # the same spec text names another curve once the file is rewritten
        path = tmp_path / "circle.json"
        args = ["flow", "--domain", f"file:{path}", "--vertices", "64", "--frac", "0.3",
                "--snapshots", "3", "--out", str(tmp_path), "--tag", "fc"]
        areas = []
        for R in (1.0, 2.0):
            curve = PlanarCurve.circle(R, 64).vertices.tolist()
            path.write_text(json.dumps({"type": "polyline", "vertices": curve}))
            assert cli.main(args) == cli.EXIT_OK
            rows = (tmp_path / "fc" / "flow.csv").read_text().splitlines()
            areas.append(float(rows[1].split(",")[2]))
        assert areas[1] == pytest.approx(4.0 * areas[0], rel=1e-12)

    def test_clockwise_file_is_its_counter_clockwise_twin(self, tmp_path, capsys):
        ccw = PlanarCurve.circle(1.0, 200).vertices
        cw = np.roll(ccw[::-1], 1, axis=0)  # the same polygon, clockwise, vertex 0 first
        outputs = []
        for name, verts in (("ccw", ccw), ("cw", cw)):
            (tmp_path / name).mkdir()
            path = tmp_path / name / "curve.json"
            path.write_text(json.dumps({"type": "polyline", "vertices": verts.tolist()}))
            rc = cli.main(["entropy", "--domain", f"file:{path}", "--h", "0.1",
                           "--beta", "radial", "--out", str(tmp_path / name), "--tag", "e"])
            assert rc == cli.EXIT_OK
            outputs.append((tmp_path / name / "e" / "entropy.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_harnack_reuses_another_tags_stages(self, tmp_path, capsys):
        common = ["--domain", "disk:1", "--vertices", "128", "--frac", "0.3",
                  "--snapshots", "6", "--h", "0.1", "--steps-per-tau", "50",
                  "--out", str(tmp_path)]
        assert cli.main(["conjugate"] + common + ["--tag", "a"]) == cli.EXIT_OK
        assert cli.main(["harnack", "--skip", "0"] + common + ["--tag", "b"]) == cli.EXIT_OK
        logs = [json.loads((tmp_path / tag / "manifest.json").read_text())["cache"]
                for tag in ("a", "b")]
        assert {stage: entry["hit"] for stage, entry in logs[0].items()} == {
            "flow": False, "conjugate": False}
        assert {stage: entry["hit"] for stage, entry in logs[1].items()} == {
            "flow": True, "conjugate": True}
        assert logs[0]["conjugate"]["key"] == logs[1]["conjugate"]["key"]
        assert not (tmp_path / "a" / "cache").exists()

    def test_clockwise_file_runs_the_flow_chain(self, tmp_path, capsys):
        cw = PlanarCurve.circle(1.0, 200).vertices[::-1]
        path = tmp_path / "cw.json"
        path.write_text(json.dumps({"type": "polyline", "vertices": cw.tolist()}))
        rc = cli.main(["harnack", "--domain", f"file:{path}", "--vertices", "128",
                       "--frac", "0.3", "--snapshots", "6", "--h", "0.1",
                       "--steps-per-tau", "50", "--skip", "0",
                       "--out", str(tmp_path), "--tag", "cw"])
        assert rc == cli.EXIT_OK

    def test_cache_misses_after_a_code_change(self, tmp_path, capsys, monkeypatch):
        args = [
            "flow", "--domain", "disk:1", "--frac", "0.3", "--snapshots", "4",
            "--vertices", "64", "--out", str(tmp_path), "--tag", "f3",
        ]
        assert cli.main(args) == cli.EXIT_OK
        cache_dir = tmp_path / "cache"
        first = set(os.listdir(cache_dir))
        monkeypatch.setattr(cli, "_code_fingerprint", lambda: "other code")
        hits = []
        real = cli._Cache.get_or_run

        def record(cache, stage, key_obj, fn):
            value = real(cache, stage, key_obj, fn)
            hits.append(cache.log[stage]["hit"])
            return value

        monkeypatch.setattr(cli._Cache, "get_or_run", record)
        assert cli.main(args) == cli.EXIT_OK
        assert cli.main(args) == cli.EXIT_OK
        assert hits == [False, True]
        second = set(os.listdir(cache_dir)) - first
        assert len(second) == 1 and second.pop().startswith("flow-")

    def test_failed_cache_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("cannot pickle")

        cache = cli._Cache(str(tmp_path))
        with pytest.raises(RuntimeError, match="cannot pickle"):
            cache.get_or_run("flow", {"x": 1}, Unpicklable)

        def no_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", no_replace)
        with pytest.raises(OSError, match="disk full"):
            cache.get_or_run("flow", {"x": 2}, lambda: 1.0)
        assert os.listdir(cache.dir) == []

    def test_code_fingerprint_covers_numpy_and_scipy(self, monkeypatch):
        base = cli._code_fingerprint()
        assert cli._code_fingerprint() == base
        monkeypatch.setattr(cli.scipy, "__version__", "0.0")
        assert cli._code_fingerprint() != base
        monkeypatch.undo()
        monkeypatch.setattr(cli.np, "__version__", "0.0")
        assert cli._code_fingerprint() != base

    def test_flow_samples_the_exact_curve(self, tmp_path, capsys):
        rc = cli.main([
            "flow", "--domain", "disk:1", "--vertices", "2048", "--frac", "0.002",
            "--snapshots", "2", "--out", str(tmp_path), "--tag", "f2",
        ])
        assert rc == cli.EXIT_OK
        traj = json.loads((tmp_path / "f2" / "trajectory.json").read_text())
        first = traj["records"][0]
        assert first["t"] == 0.0 and len(first["vertices"]) == 2048
        kappa = PlanarCurve(first["vertices"], check_embedded=False).curvature()
        assert np.abs(kappa - 1.0).max() < 1e-3

    def test_flow_reports_steps_and_truncation(self, tmp_path, capsys):
        # the flow stage of the moving_ellipse benchmark workload
        rc = cli.main([
            "flow", "--domain", "ellipse:1.2:0.8", "--frac", "0.4",
            "--snapshots", "21", "--vertices", "384", "--h", "0.04",
            "--out", str(tmp_path), "--tag", "me",
        ])
        assert rc == cli.EXIT_OK
        traj = json.loads((tmp_path / "me" / "trajectory.json").read_text())
        assert traj["steps"] == 582
        assert traj["truncation"] is None and traj["truncated"] is False

    def test_truncated_flow_names_its_guard(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        square = PlanarCurve.rectangle(0.0, 0.0, 1.0, 1.0, 64).vertices
        path.write_text(json.dumps({"type": "polyline", "vertices": square.tolist()}))
        rc = cli.main([
            "flow", "--domain", f"file:{path}", "--vertices", "64",
            "--snapshots", "3", "--out", str(tmp_path), "--tag", "sq",
        ])
        assert rc == cli.EXIT_OK
        traj = json.loads((tmp_path / "sq" / "trajectory.json").read_text())
        assert traj["truncation"] == "turning" and traj["truncated"] is True
        manifest = json.loads((tmp_path / "sq" / "manifest.json").read_text())
        assert any("turning guard" in w for w in manifest["warnings"])

    def test_truncated_flow_is_reported_downstream(self, tmp_path, capsys, monkeypatch):
        real = cli.flow.run_flow

        def truncated(*args):
            traj = real(*args)
            traj.truncated = True
            traj.meta["truncation"] = "embedding"
            return traj

        monkeypatch.setattr(cli.flow, "run_flow", truncated)
        common = ["--domain", "disk:1", "--vertices", "128", "--frac", "0.3",
                  "--snapshots", "6", "--h", "0.1", "--steps-per-tau", "50",
                  "--out", str(tmp_path), "--tag", "tr"]
        for argv in (["conjugate"] + common, ["harnack", "--skip", "0"] + common):
            assert cli.main(argv) == cli.EXIT_OK
            manifest = json.loads((tmp_path / "tr" / "manifest.json").read_text())
            assert any("embedding guard" in w for w in manifest["warnings"]), argv[0]

    def test_conjugate_records_its_linear_solves(self, tmp_path, capsys):
        rc = cli.main([
            "conjugate", "--domain", "disk:1", "--vertices", "128", "--frac", "0.3",
            "--snapshots", "6", "--h", "0.1", "--steps-per-tau", "50",
            "--out", str(tmp_path), "--tag", "ls",
        ])
        assert rc == cli.EXIT_OK
        out = json.loads((tmp_path / "ls" / "conjugate.json").read_text())
        solve = out["linear_solve"]
        assert set(solve) == {"substeps", "factorizations", "corrections",
                              "worst_rel_residual"}
        assert 1 <= solve["factorizations"] <= solve["substeps"]
        assert solve["worst_rel_residual"] <= 1e-15
        rows = (tmp_path / "ls" / "conservation.csv").read_text().splitlines()
        assert solve["substeps"] == len(rows) - 2  # header and the t0 row

    def test_collapse_on_a_ball_in_3d(self, tmp_path, capsys):
        rc = cli.main([
            "collapse", "--domain", "analytic:ball:1", "--radii", "list:0.5,2",
            "--out", str(tmp_path), "--tag", "b3",
        ])
        assert rc == cli.EXIT_OK
        assert json.loads((tmp_path / "b3" / "collapse.json").read_text())["dim"] == 3
        lines = (tmp_path / "b3" / "collapse.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
        # B_r lies inside the unit ball for r <= 1/2 (both the full and half ball)
        for row in rows:
            for r, key in ((row["r"], "V_full"), (row["r"] / 2, "V_half")):
                if r <= 0.5:
                    exact = 4.0 / 3.0 * np.pi * r**3
                    assert row[key] == pytest.approx(exact, rel=1e-3, abs=5 * row["mc_error"])

    def test_collapse_flat_slab_in_3d_with_mean_curvature(self, tmp_path, capsys):
        rc = cli.main([
            "collapse", "--domain", "analytic:slab:1:3", "--beta", "mean_curvature",
            "--radii", "list:2,4", "--budget", "10000",
            "--out", str(tmp_path), "--tag", "s3",
        ])
        assert rc == cli.EXIT_OK
        lines = (tmp_path / "s3" / "collapse.csv").read_text().splitlines()
        col = lines[0].split(",").index("beta_integral")
        assert [float(ln.split(",")[col]) for ln in lines[1:]] == [0.0, 0.0]

    def test_logsobolev_run(self, tmp_path, capsys):
        rc = cli.main([
            "logsobolev", "--domain", "disk:1", "--h", "0.1", "--fields", "5",
            "--out", str(tmp_path), "--tag", "l1",
        ])
        assert rc == cli.EXIT_OK
        payload = json.loads((tmp_path / "l1" / "logsobolev.json").read_text())
        assert payload["violations"] == 0


def test_collapse_runs_never_load_scipy_stats(tmp_path):
    # a fresh interpreter: the test session itself has loaded scipy.stats
    code = "\n".join([
        "import sys",
        "from entropylab import cli",
        f"out = {str(tmp_path)!r}",
        "assert cli.main(['collapse', '--domain', 'analytic:grim_reaper_2d',",
        "                 '--budget', '10000', '--out', out, '--tag', 'c']) == 0",
        "assert cli.main(['verify', '--suite', 'collapse', '--budget', '10000',",
        "                 '--out', out, '--tag', 'v']) == 0",
        "assert 'scipy.stats' not in sys.modules",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
