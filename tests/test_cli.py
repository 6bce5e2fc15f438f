"""End-to-end runs of the batch CLI: exit codes, manifests, determinism."""

import hashlib
import json
import math

import pytest

from subwave.cli import ConfigError, load_config, main

LINEAR_CONFIG = {
    "backend": {"kind": "heisenberg", "n": 1},
    "grid": {"lambda_min": 0.3, "lambda_max": 4.0, "nodes": 24, "mu_max": 7.0},
    "b": 2.0,
    "m": 2.0,
    "data": {"kind": "modes", "center": 1.0, "width": 0.5, "ladder": 0.5,
             "scale": 1.0},
    "horizon": {"T": 8.0, "samples": 33},
    "seed": 3,
}

GN_CONFIG = {
    "gn": {
        "n": 1,
        "q_values": ["2", "8/3", "3", "4"],
        "tuples": [["4", "1", "2", "2", "4"], ["4", "1", "2", "4", "4"]],
        "random_tuples": 100,
        "abelian_widths": [0.7, 1.0, 1.6],
    },
    "seed": 11,
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
    "seed": 5,
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


def test_gn_check_tables_and_seeded_sampling(tmp_path):
    cfg = write_config(tmp_path, GN_CONFIG)
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["gn-check", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["gn-check", "--config", cfg, "--out", str(out2)]) == 0
    bytes1 = (out1 / "gn-check.csv").read_bytes()
    assert bytes1 == (out2 / "gn-check.csv").read_bytes()
    # the CSV table is deterministic; the seed only drives the random
    # identity sweep, which reports through the manifest
    assert main(["gn-check", "--config", cfg, "--out", str(out3),
                 "--seed", "12"]) == 0
    assert bytes1 == (out3 / "gn-check.csv").read_bytes()
    assert read_manifest(out3)["seed"] == 12
    text = bytes1.decode()
    assert "2/3" in text  # theta(3) on H^1
    manifest = read_manifest(out1)
    assert manifest["results"]["identity_failures"] == 0
    assert manifest["results"]["random_tuples"] > 0
    assert manifest["seed"] == 11


def test_evolve_semilinear_abelian(tmp_path):
    cfg = write_config(tmp_path, SEMILINEAR_CONFIG)
    out = tmp_path / "out"
    assert main(["evolve-semilinear", "--config", cfg, "--out", str(out)]) == 0
    results = read_manifest(out)["results"]
    assert results["status"] == "Converged"
    assert results["iterations"] >= 2
    # 25 samples: 24 steps, so the stride-2 Richardson estimate exists
    assert math.isfinite(results["quadrature_error"])
    assert 0 < results["quadrature_error"] < 1e-6
    lines = (out / "evolve-semilinear.csv").read_text().strip().splitlines()
    assert lines[0].startswith("iteration")


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


# the packet also overhangs the small box, which the transform warns about
@pytest.mark.filterwarnings("ignore:boundary decay")
@pytest.mark.parametrize("config", [
    pytest.param(HEISENBERG_SEMILINEAR_CONFIG, id="modes"),
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


@pytest.mark.parametrize("subcommand, config", [
    ("calibrate", CALIBRATE_CONFIG),
    ("oracle-compare", ORACLE_CONFIG),
])
def test_underflowing_packet_is_a_config_error(tmp_path, capsys, subcommand,
                                               config):
    # sigma_xy is positive, so the schema accepts it, but every sample of the
    # packet underflows to 0 on the box
    cfg = write_config(tmp_path, _edit(config, "data", sigma_xy=1e-200))
    code = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    problems = [line for line in err.splitlines() if line.startswith("  - ")]
    assert len(problems) == 1 and problems[0].startswith("  - data: ")
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


def _edit(config, section, **fields):
    return config | {section: config[section] | fields}


@pytest.mark.parametrize("subcommand, config, message", [
    pytest.param("evolve-linear", _edit(LINEAR_CONFIG, "backend", kind="banana"),
                 "backend.kind: must be one of heisenberg", id="unknown-backend"),
    pytest.param("gn-check", GN_CONFIG | {"seed": 1.5}, "seed: must",
                 id="fractional-seed"),
    pytest.param("evolve-linear", LINEAR_CONFIG | {"seed": "x"}, "seed: must",
                 id="string-seed"),
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
                 "gn.random_tuples: must", id="fractional-random-tuples"),
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


def test_seed_flag_is_checked_like_the_config_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, GN_CONFIG)
    code = main(["gn-check", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--seed", "-1"])
    assert code == 2
    assert "seed: must" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    assert main(["evolve-linear", "--config", cfg, "--out", str(out),
                 "--threads", "4"]) == 0
    manifest = read_manifest(out)
    assert manifest["subcommand"] == "evolve-linear"
    assert manifest["threads"] == 4
    assert manifest["tolerance_profile"] == "default"
    assert manifest["parameters"]["b"] == 2.0
    with open(cfg, "rb") as fh:
        assert manifest["inputs"]["config"] == hashlib.sha256(
            fh.read()).hexdigest()
    assert "timestamp" not in manifest
