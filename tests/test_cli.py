"""End-to-end runs of the batch CLI: exit codes, manifests, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import subwave
from subwave.cli import ConfigError, load_config, main
from subwave.spectral import build_grid
from subwave.transform import SpatialGrid, forward_transform, from_function

from conftest import packet

LINEAR_CONFIG = {
    "backend": {"kind": "heisenberg", "n": 1},
    "grid": {"lambda_min": 0.3, "lambda_max": 4.0, "nodes": 24, "mu_max": 7.0},
    "b": 2.0,
    "m": 2.0,
    "data": {"kind": "modes", "center": 1.0, "width": 0.5, "ladder": 0.5,
             "scale": 1.0},
    "horizon": {"T": 8.0, "samples": 33},
}

GN_CONFIG = {
    "gn": {
        "n": 1,
        "q_values": ["2", "8/3", "3", "4"],
        "tuples": [["4", "1", "2", "2", "4"], ["4", "1", "2", "4", "4"]],
        "abelian_widths": [0.7, 1.0, 1.6],
    },
}

SEMILINEAR_CONFIG = {
    "backend": {"kind": "abelian", "half_widths": [6.0, 6.0, 6.0],
                "shape": [16, 16, 16], "coefficients": [1.0, 1.0, 1.0],
                "order": 4, "radial": True},
    "b": 2.0,
    "m": 2.0,
    "data": {"kind": "gaussian", "width": 1.0, "scale": 0.001},
    "horizon": {"T": 6.0, "samples": 25},
    "nonlinearity": {"type": "power", "mu": 1.0, "p": 2.0},
}

# the abelian backend's linear runs: the semilinear config without its
# nonlinearity, over a horizon long enough for the decay fit
ABELIAN_LINEAR_CONFIG = {k: v for k, v in SEMILINEAR_CONFIG.items()
                         if k != "nonlinearity"}
ABELIAN_LINEAR_CONFIG["horizon"] = {"T": 8.0, "samples": 33}

CALIBRATE_CONFIG = {
    "backend": {"kind": "heisenberg", "n": 1},
    "grid": {"lambda_min": 0.3, "lambda_max": 3.0, "nodes": 24, "mu_max": 7.0},
    "synth": {"half_widths": [4.0, 4.0, 5.0], "shape": [32, 32, 32]},
    "data": {"kind": "packet", "carrier": 1.2, "sigma_xy": 0.9,
             "sigma_tau": 1.3, "scale": 1.0},
}

ORACLE_CONFIG = {
    "backend": {"kind": "heisenberg", "n": 1},
    "grid": {"lambda_min": 0.3, "lambda_max": 3.0, "nodes": 24, "mu_max": 7.0},
    "synth": {"half_widths": [5.0, 5.0, 8.5], "shape": [16, 16, 24]},
    "b": 2.0,
    "m": 2.0,
    "data": {"kind": "packet", "carrier": 1.6, "sigma_xy": 0.8,
             "sigma_tau": 1.35, "scale": 1.0},
    "horizon": {"T": 0.5},
    "oracle": {"shape": [16, 16, 24], "tolerance": 0.5},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def test_empty_config_lists_missing_fields(tmp_path, capsys):
    cfg = write_config(tmp_path, {})
    code = main(["evolve-linear", "--config", cfg, "--out",
                 str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    for field in ("backend", "grid", "b", "m", "data", "horizon"):
        assert f"{field}: required" in captured.err


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"backend": {"kind": "heisenberg"},
                                  "typo_key": 1})
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(cfg)
    code = main(["evolve-linear", "--config", cfg, "--out",
                 str(tmp_path / "out")])
    assert code == 2


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["calibrate", "--config", str(path), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),  # no such file
    (b"\xff{}", "not valid JSON"),  # not UTF-8
], ids=["missing", "not-utf8"])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, content,
                                                  message):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))
    out = tmp_path / "out"
    code = main(["evolve-linear", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_unknown_subcommand_exits_via_argparse(tmp_path):
    cfg = write_config(tmp_path, LINEAR_CONFIG)
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", cfg])


def test_evolve_linear_passes_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, LINEAR_CONFIG)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["evolve-linear", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["evolve-linear", "--config", cfg, "--out", str(out2)]) == 0
    csv1 = (out1 / "evolve-linear.csv").read_bytes()
    csv2 = (out2 / "evolve-linear.csv").read_bytes()
    assert csv1 == csv2
    manifest = read_manifest(out1)
    assert manifest["results"]["passed"] is True
    for s, slope in manifest["results"]["slopes"].items():
        assert slope <= -0.95
    assert manifest["outputs"]["evolve-linear.csv"] == hashlib.sha256(
        csv1).hexdigest()
    header = csv1.decode().splitlines()[0]
    assert header.split(",") == ["time", "l2", "h1"]
    assert b"\r" not in csv1  # LF line ends


def test_strict_profile_tightens_the_slope_gate(tmp_path):
    # the fitted slope on this configuration sits between the default bound
    # -0.95 delta0 and the strict bound -0.975 delta0
    cfg = write_config(tmp_path, LINEAR_CONFIG)
    with pytest.warns(UserWarning, match="misses the decay rate bound"):
        code = main(["evolve-linear", "--config", cfg, "--out",
                     str(tmp_path / "strict"), "--tolerance-profile", "strict"])
    assert code == 1


def test_verify_decay_emits_slope_table(tmp_path):
    cfg = write_config(tmp_path, LINEAR_CONFIG)
    out = tmp_path / "out"
    assert main(["verify-decay", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "verify-decay.csv").read_text().strip().splitlines()
    assert lines[0] == "order,slope"
    assert len(lines) == 3


def test_calibrate_reports_tiny_mismatch(tmp_path):
    cfg = write_config(tmp_path, CALIBRATE_CONFIG)
    out = tmp_path / "out"
    # the calibration box clips the reference tails at ~6e-4, which the
    # transform reports; calibration itself is still exact on its own grid
    with pytest.warns(UserWarning, match="boundary decay"):
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
    results = read_manifest(out)["results"]
    assert results["relative_mismatch"] < 1e-12
    assert results["plancherel_constant"] > 0
    # the calibrated constant over the analytic (2 pi)^-2 of H^1, recomputed
    # here from the trapezoid sums: ||f||^2 = c sum_q w_q ||f_hat(lambda_q)||^2
    g, s, d = (CALIBRATE_CONFIG[k] for k in ("grid", "synth", "data"))
    box = SpatialGrid(s["half_widths"], s["shape"])
    f = from_function(box, packet(d["carrier"], d["sigma_xy"], d["sigma_tau"],
                                  d["scale"]))
    grid = build_grid(g["lambda_min"], g["lambda_max"], g["nodes"], g["mu_max"])
    with pytest.warns(UserWarning, match="boundary decay"):
        hs = np.sum(np.abs(forward_transform(f, grid).coefficients) ** 2,
                    axis=(1, 2))
    spatial = np.sum(box.weight_cube() * np.abs(f.samples) ** 2)
    ratio = spatial / np.sum(grid.base_weights * hs) * (2 * np.pi) ** 2
    assert results["analytic_ratio"] == pytest.approx(ratio, rel=1e-12)


def test_gn_check_tables_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, GN_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gn-check", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["gn-check", "--config", cfg, "--out", str(out2)]) == 0
    bytes1 = (out1 / "gn-check.csv").read_bytes()
    assert bytes1 == (out2 / "gn-check.csv").read_bytes()
    rows = [line.split(",") for line in bytes1.decode().splitlines()[1:]]
    # theta(q) on H^1 at q = 2, 8/3, 3, 4, then the two tuples' s; the
    # second tuple's denominator a/Q + 1/p - 1/r is 0
    assert [r[:2] for r in rows[:6]] == [
        ["2", "0"], ["8/3", "1/2"], ["3", "2/3"], ["4", "1"],
        ["4/1/2/2/4", "1"], ["4/1/2/4/4", "degenerate"]]
    # only the three ratio rows carry a verdict; the exponent rows' ok is empty
    assert [r[3] for r in rows] == [""] * 6 + ["1"] * 3
    manifest = read_manifest(out1)
    assert set(manifest) == {"subcommand", "parameters", "tolerance_profile",
                             "results", "inputs", "outputs"}
    assert set(manifest["results"]) == {"ratios", "passed"}
    assert len(manifest["results"]["ratios"]) == 3


def test_evolve_semilinear_abelian(tmp_path):
    cfg = write_config(tmp_path, SEMILINEAR_CONFIG)
    out = tmp_path / "out"
    assert main(["evolve-semilinear", "--config", cfg, "--out", str(out)]) == 0
    results = read_manifest(out)["results"]
    assert results["status"] == "Converged"
    # the one Picard iterate Gamma[u_lin], whose increment is the one row
    assert results["iterations"] == 1 and len(results["ratios"]) == 1
    # 25 samples: 24 steps, so the stride-2 Richardson estimate exists
    assert math.isfinite(results["quadrature_error"])
    assert 0 < results["quadrature_error"] < 1e-6
    lines = (out / "evolve-semilinear.csv").read_text().strip().splitlines()
    assert lines[0].startswith("iteration") and len(lines) == 2


def test_abelian_semilinear_run_solves_on_the_even_layout(tmp_path, monkeypatch):
    # the CLI's centred Gaussian is exactly even on every grid, here one
    # whose steps are exact in binary and one whose steps are not, so its
    # solve runs on the octant of cosine coefficients; a fall back to the
    # full layout would show only as lost speed without this check (an
    # off-centre Gaussian takes the full layout: test_abelian.py)
    from subwave import semilinear

    layouts, make = [], semilinear._make_model

    def recording(*args, **kwargs):
        model = make(*args, **kwargs)
        layouts.append(model.layout)
        return model

    monkeypatch.setattr(semilinear, "_make_model", recording)
    uneven = {**SEMILINEAR_CONFIG["backend"], "half_widths": [5.0, 6.0, 7.3],
              "shape": [24, 20, 17]}
    for k, backend in enumerate((SEMILINEAR_CONFIG["backend"], uneven)):
        cfg = write_config(tmp_path, {**SEMILINEAR_CONFIG, "backend": backend},
                           f"config{k}.json")
        assert main(["evolve-semilinear", "--config", cfg, "--out",
                     str(tmp_path / f"out{k}")]) == 0
    assert layouts == ["even", "even"]


@pytest.mark.parametrize("subcommand", ["evolve-linear", "verify-decay"])
def test_abelian_linear_runs_pass(tmp_path, subcommand):
    cfg = write_config(tmp_path, ABELIAN_LINEAR_CONFIG)
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
    results = read_manifest(out)["results"]
    assert results["passed"] is True
    assert set(results["slopes"]) == {"0.0", "1.0"}
    for slope in results["slopes"].values():
        assert slope <= results["slope_bound"] < 0


# modes data on H^2: mu_k <= 9 keeps the 10 multi-indices of degree <= 3
H2_LINEAR_CONFIG = LINEAR_CONFIG | {
    "backend": {"kind": "heisenberg", "n": 2},
    "grid": LINEAR_CONFIG["grid"] | {"mu_max": 9.0}}


@pytest.mark.parametrize("subcommand", ["evolve-linear", "verify-decay"])
def test_linear_runs_pass_on_h2(tmp_path, subcommand):
    # slopes -1.0068 (L2) and -1.0067 (H1) against delta0 = 1, within the
    # gate's 5% of delta0 from both sides
    cfg = write_config(tmp_path, H2_LINEAR_CONFIG)
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
    results = read_manifest(out)["results"]
    assert results["passed"] is True and results["delta0"] == 1.0
    for slope in results["slopes"].values():
        assert -1.05 < slope <= results["slope_bound"]


# the paper's own case: packet data on H^1 with p = 2 = 1 + 1/n, the endpoint
# of the small-data existence range
HEISENBERG_PICARD_CONFIG = {
    "backend": {"kind": "heisenberg", "n": 1},
    "grid": {"lambda_min": 0.25, "lambda_max": 6.0, "nodes": 48, "mu_max": 15.0},
    "synth": {"half_widths": [5.0, 5.0, 8.5], "shape": [28, 28, 40]},
    "b": 2.0,
    "m": 2.0,
    "data": {"kind": "packet", "carrier": 1.6, "sigma_xy": 0.8,
             "sigma_tau": 1.35, "scale": 0.05},
    "horizon": {"T": 4.0, "samples": 5},
    "nonlinearity": {"type": "power", "mu": 1.0, "p": 2.0},
}


def test_evolve_semilinear_heisenberg_converges(tmp_path):
    cfg = write_config(tmp_path, HEISENBERG_PICARD_CONFIG)
    out = tmp_path / "out"
    assert main(["evolve-semilinear", "--config", cfg, "--out", str(out)]) == 0
    results = read_manifest(out)["results"]
    assert results["status"] == "Converged" and results["iterations"] == 1
    assert all(r < 1.0 for r in results["ratios"])
    assert all(s < 0 for s in results["decay_slopes"].values())
    assert 0 < results["quadrature_error"] < 1e-5


# a box too small for the Heisenberg nonlinearity: the synthesized iterate
# fails the boundary-decay gate
HEISENBERG_SEMILINEAR_CONFIG = {
    "backend": {"kind": "heisenberg", "n": 1},
    "grid": {"lambda_min": 0.3, "lambda_max": 4.0, "nodes": 24, "mu_max": 7.0},
    "synth": {"half_widths": [4.0, 4.0, 5.0], "shape": [24, 24, 24]},
    "b": 2.0,
    "m": 2.0,
    "data": {"kind": "modes"},
    "horizon": {"T": 4.0, "samples": 9},
    "nonlinearity": {"type": "power", "mu": 1.0, "p": 2.0},
}


# the modes data at scale 0.05: the march's node 7 (t = 3.5) fails the gate,
# decay 0.409.  Up to scale 100 the gate fails first (decay 0.41 to 0.34);
# from scale 150 up the march leaves the ball first (see the test below).
# The packet also overhangs the small box, which the transform warns about
@pytest.mark.filterwarnings("ignore:boundary decay")
@pytest.mark.parametrize("config", [
    pytest.param(HEISENBERG_SEMILINEAR_CONFIG | {
        "data": {"kind": "modes", "scale": 0.05}}, id="modes"),
    pytest.param(HEISENBERG_SEMILINEAR_CONFIG | {
        "synth": {"half_widths": [2.0, 2.0, 2.0], "shape": [16, 16, 16]},
        "data": {"kind": "packet"}}, id="packet"),
])
def test_numerical_failure_exits_3(tmp_path, capsys, config):
    cfg = write_config(tmp_path, config)
    code = main(["evolve-semilinear", "--config", cfg, "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: synthesized field has boundary decay")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_large_data_leave_the_ball_before_the_box_fails(tmp_path):
    # the modes data at scale 1500: the march's Z-norm term reaches 85252
    # against the 4 Z(u_lin) = 3569.0 threshold at t = 0.5, where the
    # synthesized nodes still pass the gate (decay at most 0.07); f is made
    # at no later node, so the linear part's late nodes, which fail the gate
    # (0.41 at t = 3.5), are never synthesized: Diverged, exit 1.  At scale
    # 150 the march leaves the ball at t = 1.5 (Z-norm term 390 against 357)
    cfg = write_config(tmp_path, HEISENBERG_SEMILINEAR_CONFIG | {
        "data": {"kind": "modes", "scale": 1500.0}})
    assert main(["evolve-semilinear", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 1
    results = read_manifest(tmp_path / "out")["results"]
    assert results["status"] == "Diverged" and results["iterations"] == 0
    assert results["ratios"] == []


def _python(tmp_path, *args):
    """Run `python *args` in a fresh interpreter that imports this subwave."""
    src = str(Path(subwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("action, warning_lines", [("default", 1),
                                                    ("ignore", 0)])
def test_numerical_failure_prints_one_line_per_warning(tmp_path, action,
                                                       warning_lines):
    # the packet case above, in a process whose warning filters show (or
    # ignore) the set-up's boundary-decay warning
    config = HEISENBERG_SEMILINEAR_CONFIG | {
        "synth": {"half_widths": [2.0, 2.0, 2.0], "shape": [16, 16, 16]},
        "data": {"kind": "packet"}}
    cfg = write_config(tmp_path, config)
    proc = _python(tmp_path, "-W", action, "-m", "subwave.cli",
                   "evolve-semilinear", "--config", cfg, "--out", "out")
    lines = proc.stderr.splitlines()
    assert proc.returncode == 3
    assert len(lines) == warning_lines + 1
    assert all(line.startswith("warning: boundary decay ") for line in lines[:-1])
    assert lines[-1].startswith("numerical failure: synthesized field")


def test_no_subcommand_imports_scipy(tmp_path):
    # SciPy serves only the quadrature oracle's Gauss-Hermite rules
    runs = [("evolve-semilinear", write_config(tmp_path, SEMILINEAR_CONFIG, "a.json")),
            ("oracle-compare", write_config(tmp_path, ORACLE_CONFIG, "o.json"))]
    script = f"""
import json, sys
import subwave, subwave.cli
loaded = ["scipy" in sys.modules]
codes = [subwave.cli.main([sub, "--config", cfg, "--out", sub])
         for sub, cfg in {runs!r}]
loaded.append("scipy" in sys.modules)
subwave.gauss_hermite_rule(32)
loaded.append("scipy" in sys.modules)
print(json.dumps([codes, loaded]))
"""
    proc = _python(tmp_path, "-W", "ignore", "-c", script)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0, 0]
    assert loaded == [False, False, True]


def _raise(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_manifest_writes_a_slope_that_is_not_finite_as_null(tmp_path):
    # three samples leave two usable points for the dt fit, whose slope is
    # -inf: the decay verdict fails, exit 1
    horizon = {"T": 6.0, "samples": 3}
    cfg = write_config(tmp_path, SEMILINEAR_CONFIG | {"horizon": horizon})
    out = tmp_path / "out"
    assert main(["evolve-semilinear", "--config", cfg, "--out", str(out)]) == 1
    text = (out / "manifest.json").read_text()
    results = json.loads(text, parse_constant=_raise)["results"]
    assert results["decay_slopes"]["dt"] is None
    assert all(math.isfinite(v) for k, v in results["decay_slopes"].items()
               if k != "dt")


def test_evolve_semilinear_odd_step_count_has_null_quadrature_error(tmp_path):
    horizon = {"T": 6.0, "samples": 24}
    cfg = write_config(tmp_path, SEMILINEAR_CONFIG | {"horizon": horizon})
    out = tmp_path / "out"
    assert main(["evolve-semilinear", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "manifest.json").read_text()
    assert "NaN" not in text
    assert json.loads(text)["results"]["quadrature_error"] is None


@pytest.mark.parametrize("subcommand, config", [
    ("evolve-linear", LINEAR_CONFIG),
    ("evolve-semilinear", SEMILINEAR_CONFIG),
])
@pytest.mark.parametrize("horizon, fields", [
    pytest.param({"T": 2.0, "samples": 1}, ["horizon.samples"], id="one-sample"),
    pytest.param({"T": 2.0, "samples": 8.5}, ["horizon.samples"], id="fractional"),
    pytest.param({"T": 2.0, "samples": "9"}, ["horizon.samples"], id="string-samples"),
    pytest.param({"T": 0.0, "samples": 9}, ["horizon.T"], id="zero-T"),
    pytest.param({"T": "2", "samples": 9}, ["horizon.T"], id="string-T"),
    pytest.param({"T": -1.0, "samples": 1}, ["horizon.T", "horizon.samples"],
                 id="both"),
])
def test_malformed_horizon_is_a_config_error(tmp_path, capsys, subcommand,
                                             config, horizon, fields):
    cfg = write_config(tmp_path, config | {"horizon": horizon})
    code = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    for field in fields:
        assert f"{field}: must be" in err
    assert not (tmp_path / "out").exists()


def test_oracle_compare_runs_with_defaults(tmp_path):
    cfg = write_config(tmp_path, ORACLE_CONFIG)
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 0
    results = read_manifest(out)["results"]
    assert results["steps"] * results["dt"] == pytest.approx(0.5)
    rows = (out / "oracle-compare.csv").read_text().splitlines()
    # snapshot_every defaults to max(1, steps // 8): every step is compared
    assert len(rows) == 1 + results["steps"] + 1


def test_benchmark_oracle_compare_steps_float64_levels(tmp_path, monkeypatch):
    # the benchmark's own oracle-compare config, read and not changed: its
    # packet is real, so the FD data and every snapshot are float64, and a
    # fall-back to complex levels (twice the FD work) cannot go unnoticed
    import importlib.util

    from subwave import cli

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    subcommand, config = workloads.cli_config(
        "oracle-compare", workloads.params("oracle-compare", 0))
    runs, run_leapfrog = [], cli.run_leapfrog

    def recording(u0, v0, *args, **kwargs):
        runs.append((u0, v0, run_leapfrog(u0, v0, *args, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(cli, "run_leapfrog", recording)
    # exit 1: the 0.05 verdict fails at this resolution (ROADMAP item 1)
    assert cli.run(subcommand, write_config(tmp_path, config), tmp_path / "out") in (0, 1)
    (u0, v0, fd), = runs
    assert u0.samples.dtype == v0.samples.dtype == np.float64
    assert len(fd.snapshots) > 2
    assert all(snap.samples.dtype == np.float64 for snap in fd.snapshots)


# the calibration box clips the packet tails (see the calibrate test above)
@pytest.mark.filterwarnings("ignore:boundary decay")
@pytest.mark.parametrize("subcommand, config", [
    ("calibrate", CALIBRATE_CONFIG),
    ("oracle-compare", ORACLE_CONFIG),
])
def test_packet_set_up_transforms_the_packet_once(tmp_path, monkeypatch,
                                                  subcommand, config):
    from subwave import cli, transform

    original, calls = transform.forward_transform, []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(transform, "forward_transform", counting)
    monkeypatch.setattr(cli, "forward_transform", counting)
    cfg = write_config(tmp_path, config)
    assert main([subcommand, "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def _edit(config, section, **fields):
    return config | {section: config[section] | fields}


@pytest.mark.parametrize("subcommand, config, prefix", [
    ("calibrate", _edit(CALIBRATE_CONFIG, "data", sigma_xy=1e-200), "data"),
    ("oracle-compare", _edit(ORACLE_CONFIG, "data", sigma_xy=1e-200), "data"),
    ("evolve-linear", _edit(ABELIAN_LINEAR_CONFIG, "data", width=1e-200), "data"),
    ("gn-check", _edit(GN_CONFIG, "gn", abelian_widths=[1e-200]), "gn"),
    ("evolve-linear", _edit(LINEAR_CONFIG, "data", width=1e-200, center=0.3),
     "data"),
    ("evolve-linear", _edit(LINEAR_CONFIG, "data", width=1e-200), "data"),
])
def test_underflowing_packet_is_a_config_error(tmp_path, capsys, subcommand,
                                               config, prefix):
    # the widths are positive, so the schema accepts them, but their squares
    # underflow to 0: every packet sample is 0, a Gaussian is 0/0 at the
    # origin, and the modes profile is 0/0 at a node on its centre (0.3) or
    # zero at every node (centre 1.0)
    cfg = write_config(tmp_path, config)
    code = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "warning" not in err
    problems = [line for line in err.splitlines() if line.startswith("  - ")]
    assert len(problems) == 1 and problems[0].startswith(f"  - {prefix}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand, config, truncated", [
    ("evolve-linear", _edit(LINEAR_CONFIG, "data", width=1e200), False),
    ("evolve-linear", _edit(ABELIAN_LINEAR_CONFIG, "data", width=1e200), False),
    ("calibrate", _edit(CALIBRATE_CONFIG, "data", sigma_xy=1e200), True),
    ("gn-check", _edit(GN_CONFIG, "gn", abelian_widths=[1e200]), False),
], ids=["modes", "gaussian", "packet", "gn"])
def test_a_width_that_squares_to_inf_is_a_flat_profile(tmp_path, subcommand, config,
                                                        truncated):
    # valid data: the schema takes any finite positive width, and its square
    # overflows to inf in NumPy, where a Python float power raises; the flat
    # packet fails the box's boundary decay, its one warning
    cfg = write_config(tmp_path, config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
    messages = [str(w.message) for w in caught]
    assert code == 0
    assert all(m.startswith("boundary decay") for m in messages)
    assert bool(messages) == truncated
    assert (tmp_path / "out" / "manifest.json").exists()


def test_overflowing_modes_ladder_is_a_config_error(tmp_path, capsys):
    # ladder ** k overflows by the fourth Hermite level of the 24-node grid:
    # one data problem, before any output
    cfg = write_config(tmp_path, _edit(LINEAR_CONFIG, "data", ladder=1e200))
    code = main(["evolve-linear", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    problems = [line for line in err.splitlines() if line.startswith("  - ")]
    assert len(problems) == 1 and problems[0].startswith("  - data: ladder 1e+200")
    assert not (tmp_path / "out").exists()


def _oracle(**fields):
    return ORACLE_CONFIG | {"oracle": ORACLE_CONFIG["oracle"] | fields}


@pytest.mark.parametrize("config, field", [
    pytest.param(ORACLE_CONFIG | {"horizon": {"T": 0.0}}, "horizon.T",
                 id="zero-T"),
    pytest.param(ORACLE_CONFIG | {"horizon": {"T": "0.5"}}, "horizon.T",
                 id="string-T"),
    pytest.param(ORACLE_CONFIG | {"b": -1.0}, "b", id="negative-damping"),
    pytest.param(ORACLE_CONFIG | {"m": "2"}, "m", id="string-mass"),
    pytest.param(ORACLE_CONFIG | {"b": True}, "b", id="bool-damping"),
    pytest.param(_oracle(safety=0.0), "oracle.safety", id="zero-safety"),
    pytest.param(_oracle(safety=1.5), "oracle.safety", id="safety-above-1"),
    pytest.param(_oracle(snapshot_every=0), "oracle.snapshot_every",
                 id="zero-snapshot-every"),
    pytest.param(_oracle(snapshot_every=-2), "oracle.snapshot_every",
                 id="negative-snapshot-every"),
    pytest.param(_oracle(snapshot_every=2.5), "oracle.snapshot_every",
                 id="fractional-snapshot-every"),
    pytest.param(_oracle(shape=[16, 16]), "oracle.shape", id="two-axes"),
    pytest.param(_oracle(shape=[3, 16, 24]), "oracle.shape", id="short-axis"),
    pytest.param(_oracle(shape=[16.5, 16, 24]), "oracle.shape",
                 id="fractional-shape"),
    pytest.param(_oracle(tolerance=-0.1), "oracle.tolerance",
                 id="negative-tolerance"),
])
def test_malformed_oracle_config_is_a_config_error(tmp_path, capsys, config,
                                                   field):
    cfg = write_config(tmp_path, config)
    code = main(["oracle-compare", "--config", cfg, "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert f"{field}: must" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _semilinear(section, **fields):
    return SEMILINEAR_CONFIG | {section: SEMILINEAR_CONFIG.get(section, {}) | fields}


@pytest.mark.parametrize("config, message", [
    pytest.param(_semilinear("nonlinearity", mu="x"), "nonlinearity.mu: must",
                 id="string-mu"),
    pytest.param(_semilinear("nonlinearity", mu=True), "nonlinearity.mu: must",
                 id="bool-mu"),
    pytest.param(_semilinear("nonlinearity", mu=float("nan")),
                 "nonlinearity.mu: must", id="nan-mu"),
    pytest.param(_semilinear("nonlinearity", p=1.0), "nonlinearity.p: must",
                 id="p-equal-1"),
    pytest.param(_semilinear("nonlinearity", p=0.5), "nonlinearity.p: must",
                 id="p-below-1"),
    pytest.param(_semilinear("nonlinearity", p=True), "nonlinearity.p: must",
                 id="bool-p"),
    pytest.param(_semilinear("nonlinearity", p="2"), "nonlinearity.p: must",
                 id="string-p"),
    pytest.param(_semilinear("nonlinearity", p=float("inf")),
                 "nonlinearity.p: must", id="infinite-p"),
    pytest.param(SEMILINEAR_CONFIG | {"znorm": [0.5]}, "znorm: must",
                 id="znorm-not-object"),
    pytest.param(_semilinear("znorm", delta_fracton=0.5),
                 "znorm.delta_fracton: unknown key", id="misspelt-znorm-key"),
    pytest.param(_semilinear("znorm", delta_fraction=0), "znorm.delta_fraction: must",
                 id="zero-delta-fraction"),
    pytest.param(_semilinear("znorm", delta_fraction=1.5),
                 "znorm.delta_fraction: must", id="delta-fraction-above-1"),
    pytest.param(_semilinear("znorm", delta_fraction=True),
                 "znorm.delta_fraction: must", id="bool-delta-fraction"),
    pytest.param(_semilinear("znorm", weight_exponent="x"),
                 "znorm.weight_exponent: must", id="string-weight-exponent"),
    pytest.param(_semilinear("znorm", weight_exponent=float("nan")),
                 "znorm.weight_exponent: must", id="nan-weight-exponent"),
    pytest.param(_semilinear("znorm", weight_exponent=False),
                 "znorm.weight_exponent: must", id="bool-weight-exponent"),
])
def test_malformed_semilinear_config_is_a_config_error(tmp_path, capsys, config,
                                                       message):
    cfg = write_config(tmp_path, config)
    code = main(["evolve-semilinear", "--config", cfg, "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _short_abelian(horizon):
    """The abelian linear config at order 2 over `horizon`."""
    return _edit(ABELIAN_LINEAR_CONFIG, "backend", order=2) | {"horizon": horizon}


@pytest.mark.parametrize("subcommand, config, message", [
    pytest.param("evolve-linear", _edit(LINEAR_CONFIG, "backend", kind="banana"),
                 "backend.kind: must be one of heisenberg", id="unknown-backend"),
    pytest.param("gn-check", GN_CONFIG | {"seed": 1.5}, "seed: unknown key",
                 id="fractional-seed"),
    pytest.param("evolve-linear", LINEAR_CONFIG | {"seed": "x"},
                 "seed: unknown key", id="string-seed"),
    pytest.param("evolve-semilinear",
                 _edit(SEMILINEAR_CONFIG, "backend", order=4.5),
                 "backend.order: must", id="fractional-order"),
    pytest.param("evolve-semilinear",
                 _edit(SEMILINEAR_CONFIG, "backend", radial="no"),
                 "backend.radial: must", id="string-radial"),
    pytest.param("evolve-semilinear",
                 _edit(SEMILINEAR_CONFIG, "backend", shape=[16, 16]),
                 "backend: half_widths and shape must have equal length",
                 id="abelian-shape-length"),
    pytest.param("calibrate", _edit(CALIBRATE_CONFIG, "backend", n=2),
                 "backend.n: must be 1", id="packet-on-h2"),
    pytest.param("evolve-linear", _edit(LINEAR_CONFIG, "data", bogus=1),
                 "data.bogus: unknown key", id="unknown-data-key"),
    pytest.param("evolve-linear", _edit(LINEAR_CONFIG, "horizon", bogus=1),
                 "horizon.bogus: unknown key", id="unknown-horizon-key"),
    pytest.param("calibrate", _edit(CALIBRATE_CONFIG, "data", sigma_yx=0.5),
                 "data.sigma_yx: unknown key", id="misspelt-sigma-xy"),
    pytest.param("calibrate", _edit(CALIBRATE_CONFIG, "data", carrier="x"),
                 "data.carrier: must", id="string-carrier"),
    pytest.param("oracle-compare", _edit(ORACLE_CONFIG, "data", scale="x"),
                 "data.scale: must", id="string-scale"),
    pytest.param("calibrate", _edit(CALIBRATE_CONFIG, "data", sigma_xy=0),
                 "data.sigma_xy: must", id="zero-sigma-xy"),
    pytest.param("evolve-semilinear", _edit(SEMILINEAR_CONFIG, "data", width=0),
                 "data.width: must", id="zero-gaussian-width"),
    pytest.param("gn-check", _edit(GN_CONFIG, "gn", n="x"), "gn.n: must",
                 id="string-gn-n"),
    pytest.param("gn-check", _edit(GN_CONFIG, "gn", q_values=5),
                 "gn.q_values: must", id="scalar-q-values"),
    pytest.param("gn-check", _edit(GN_CONFIG, "gn", q_values=["x"]),
                 "gn.q_values: must", id="non-rational-q"),
    pytest.param("gn-check", _edit(GN_CONFIG, "gn", random_tuples=2.7),
                 "gn.random_tuples: unknown key", id="fractional-random-tuples"),
    # horizons on which the decay fit cannot run
    pytest.param("evolve-linear", _short_abelian({"T": 0.5, "samples": 33}),
                 "horizon: tail spans 0.297 but the fit needs at least 3",
                 id="short-horizon"),
    pytest.param("verify-decay", _short_abelian({"T": 8.0, "samples": 9}),
                 "horizon: need at least 8 tail samples", id="sparse-horizon"),
    pytest.param("evolve-linear", _short_abelian({"T": 2000.0, "samples": 41}),
                 "horizon: trajectory norm vanished on the tail",
                 id="vanishing-tail"),
    pytest.param("calibrate",
                 CALIBRATE_CONFIG | {"backend": SEMILINEAR_CONFIG["backend"]},
                 "backend.kind: must be one of heisenberg",
                 id="abelian-calibrate"),
    pytest.param("oracle-compare",
                 ORACLE_CONFIG | {"backend": SEMILINEAR_CONFIG["backend"]},
                 "backend.kind: must be one of heisenberg",
                 id="abelian-oracle-compare"),
])
def test_malformed_config_is_a_config_error(tmp_path, capsys, subcommand,
                                            config, message):
    cfg = write_config(tmp_path, config)
    code = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    problems = [line for line in err.splitlines() if line.startswith("  - ")]
    assert len(problems) == 1 and message in problems[0]
    assert not (tmp_path / "out").exists()


def test_every_config_key_is_read_by_a_subcommand():
    # a key, backend kind or data kind that no subcommand reads would be a
    # knob that drives nothing
    from subwave.cli import _NEEDS, _SCHEMA

    keys, backends, data_kinds = set(), set(), set()
    for by_kind in _NEEDS.values():
        for kind, (needs, kinds) in by_kind.items():
            keys.update(need.partition(".")[0] for need in needs)
            if kind is not None:
                keys.add("backend")
                backends.add(kind)
            data_kinds.update(kinds)
    assert keys == set(_SCHEMA)
    assert backends == set(_SCHEMA["backend"]["kind"])
    assert data_kinds == set(_SCHEMA["data"]["kind"])


def test_semilinear_znorm_section_sets_the_z_norm(tmp_path):
    out = {}
    for name, znorm in (("default", None),
                        ("explicit", {"delta_fraction": 0.999,
                                      "weight_exponent": -0.5}),
                        ("other", {"delta_fraction": 0.5})):
        config = SEMILINEAR_CONFIG | ({"znorm": znorm} if znorm else {})
        out[name] = tmp_path / name
        assert main(["evolve-semilinear", "--config",
                     write_config(tmp_path, config, f"{name}.json"),
                     "--out", str(out[name])]) == 0
    csv = {k: (v / "evolve-semilinear.csv").read_bytes() for k, v in out.items()}
    assert csv["explicit"] == csv["default"]
    assert csv["other"] != csv["default"]


def test_abelian_run_rejects_non_gaussian_data(tmp_path, capsys):
    cfg = write_config(tmp_path, SEMILINEAR_CONFIG | {"data": {"kind": "packet"}})
    code = main(["evolve-semilinear", "--config", cfg, "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert "data.kind" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_manifest_records_run_metadata(tmp_path):
    cfg = write_config(tmp_path, LINEAR_CONFIG)
    out = tmp_path / "out"
    assert main(["evolve-linear", "--config", cfg, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["subcommand"] == "evolve-linear"
    assert manifest["tolerance_profile"] == "default"
    assert manifest["parameters"]["b"] == 2.0
    with open(cfg, "rb") as fh:
        assert manifest["inputs"]["config"] == hashlib.sha256(
            fh.read()).hexdigest()
    assert "timestamp" not in manifest
