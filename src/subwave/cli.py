"""Batch experiment runner: config-driven orchestration of the other modules.

Subcommands
-----------
calibrate          fit the Plancherel constant on a reference packet
evolve-linear      linear trajectory + decay-rate fit
verify-decay       decay-rate fit only (same inputs as evolve-linear)
evolve-semilinear  Picard solve + diagnostics + decay fit
gn-check           exponent tables and inequality ratio sweeps
oracle-compare     spectral evolution against the finite-difference oracle

Config schema (JSON, one object; unknown keys rejected)
--------------------------------------------------------
backend       {"kind": "heisenberg", "n": 1}
              or {"kind": "abelian", "half_widths": [..], "shape": [..],
                  "coefficients": [..], "order": 2, "radial": true}
grid          heisenberg only: {"lambda_min", "lambda_max", "nodes", "mu_max"}
synth         heisenberg only: {"half_widths": [x,y,tau], "shape": [nx,ny,nt]}
b, m          damping and mass, b > 0, m > 0
data          heisenberg: {"kind": "packet", "carrier", "sigma_xy",
                           "sigma_tau", "scale"}
                          | {"kind": "modes", "center", "width", "ladder",
                             "scale"}
              abelian, gaussian only: {"kind": "gaussian", "width", "scale"}
horizon       {"T": 8.0, "samples": 65}, T > 0, samples an integer >= 2;
              oracle-compare reads T only
nonlinearity  evolve-semilinear only, required: {"type": "power", "mu", "p"};
              mu a finite number, p a finite number > 1
znorm         optional {"delta_fraction": 0.999, "weight_exponent": -0.5};
              delta_fraction in (0, 1], weight_exponent a finite number
gn            gn-check only: {"n", "q_values": ["2","8/3",..],
                              "tuples": [[Q,a,r,p,q], ..], "random_tuples",
                              "abelian_widths": [..]}
oracle        oracle-compare only: {"shape": [nx,ny,nt], "safety",
                                    "tolerance", "snapshot_every"}; shape three
              integers >= 4, safety in (0, 1] (default 0.4), tolerance > 0,
              snapshot_every a positive integer (default max(1, steps // 8))
seed          integer, default 0 (--seed overrides)

Every run writes <out>/<subcommand>.csv (UTF-8, header row, comma separator,
LF line ends, floats via shortest round-trip repr) and <out>/manifest.json
capturing the resolved parameters, content hashes of the config and outputs,
and the pass verdict.  Identical config and seed give byte-identical CSV
files.  Exit status: 0 pass, 1 acceptance failure, 2 config error.  --threads
is recorded in the manifest as an advisory worker cap; the numeric kernels
here are single-threaded apart from whatever the BLAS runtime does.  The
strict tolerance profile halves every acceptance tolerance used by a
subcommand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

import numpy as np

from .abelian import (AbelianCoefficients, AbelianField, AbelianGrid,
                      abelian_from_function, abelian_forward)
from .fdoracle import cfl_limit, compare_with_spectral, run_leapfrog
from .gn import (gn_exponent_corollary, gn_exponent_graded,
                 gn_exponent_heisenberg, verify_inequality_abelian)
from .propagator import decay_rate, evolve_linear, verify_decay
from .semilinear import (PicardStatus, PowerNonlinearity, ZNormConfig,
                         picard_solve, verify_semilinear_decay)
from .spectral import (AbelianSymbol, SpectralField, SubLaplacianSymbol,
                       _csv_bytes, build_grid, l2_norm, sobolev_norm)
from .transform import (SpatialField, SpatialGrid, calibrate_plancherel,
                        forward_transform, from_function, synthesize_on_grid)

__all__ = ["main", "run", "ConfigError", "load_config"]

_SUBCOMMANDS = ("calibrate", "evolve-linear", "verify-decay",
                "evolve-semilinear", "gn-check", "oracle-compare")

_KNOWN_KEYS = {"backend", "grid", "synth", "b", "m", "data", "horizon",
               "nonlinearity", "znorm", "gn", "oracle", "seed"}


class ConfigError(ValueError):
    """Carries one message per offending field."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("config invalid:\n" + "\n".join(
            f"  - {p}" for p in self.problems))


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"])
    if not isinstance(cfg, dict):
        raise ConfigError(["top level must be an object"])
    unknown = sorted(set(cfg) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError([f"{k}: unknown key" for k in unknown])
    return cfg


def _require(cfg: dict, fields, problems):
    present = True
    for name in fields:
        if name not in cfg or cfg[name] is None:
            problems.append(f"{name}: required")
            present = False
    return present


def _is_positive_number(v) -> bool:
    """A finite number > 0; JSON true/false are not numbers."""
    return (not isinstance(v, bool) and isinstance(v, (int, float))
            and 0 < v < float("inf"))


def _is_finite_number(v) -> bool:
    """A finite number; JSON true/false are not numbers."""
    return (not isinstance(v, bool) and isinstance(v, (int, float))
            and -float("inf") < v < float("inf"))


def _is_integer(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, int)


def _positive(cfg, name, problems):
    v = cfg.get(name)
    if v is not None and not _is_positive_number(v):
        problems.append(f"{name}: must be a positive number, got {v!r}")


def _check_section(section, name, required, problems):
    if not isinstance(section, dict):
        problems.append(f"{name}: must be an object")
        return False
    ok = True
    for key in required:
        if key not in section:
            problems.append(f"{name}.{key}: required")
            ok = False
    return ok


def _horizon_T(horizon, problems):
    """The horizon's end time T, a finite positive number; None after
    noting a problem."""
    T = horizon["T"]
    if not _is_positive_number(T):
        problems.append(f"horizon.T: must be a positive number, got {T!r}")
        return None
    return float(T)


def _horizon_times(cfg, problems):
    """Sample times 0..T of the horizon section; None after noting problems."""
    horizon = cfg["horizon"]
    if not _check_section(horizon, "horizon", ("T", "samples"), problems):
        return None
    T, samples = _horizon_T(horizon, problems), horizon["samples"]
    ok = T is not None
    if not _is_integer(samples) or samples < 2:
        problems.append(
            f"horizon.samples: must be an integer >= 2, got {samples!r}")
        ok = False
    return np.linspace(0.0, T, samples) if ok else None


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _emit(out_dir, name, header, rows, manifest, config_path):
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_bytes = _csv_bytes(header, rows)
    csv_path = out_dir / f"{name}.csv"
    csv_path.write_bytes(csv_bytes)
    with open(config_path, "rb") as fh:
        manifest["inputs"] = {"config": _hash_bytes(fh.read())}
    manifest["outputs"] = {csv_path.name: _hash_bytes(csv_bytes)}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _tolerances(profile: str) -> float:
    # every acceptance tolerance is multiplied by this factor
    return 0.5 if profile == "strict" else 1.0


def _build_mode_grid(cfg, problems):
    grid = cfg.get("grid")
    if not _check_section(grid, "grid",
                          ("lambda_min", "lambda_max", "nodes", "mu_max"),
                          problems):
        return None
    try:
        return build_grid(grid["lambda_min"], grid["lambda_max"],
                          grid["nodes"], grid["mu_max"],
                          n=cfg.get("backend", {}).get("n", 1))
    except (ValueError, TypeError) as exc:
        problems.append(f"grid: {exc}")
        return None


def _build_synth(cfg, problems, key="synth"):
    synth = cfg.get(key)
    if not _check_section(synth, key, ("half_widths", "shape"), problems):
        return None
    try:
        return SpatialGrid(tuple(synth["half_widths"]), tuple(synth["shape"]))
    except (ValueError, TypeError) as exc:
        problems.append(f"{key}: {exc}")
        return None


def _packet_field(data, synth):
    w0 = float(data.get("carrier", 1.5))
    sxy = float(data.get("sigma_xy", 0.8))
    st = float(data.get("sigma_tau", 1.4))
    scale = float(data.get("scale", 1.0))
    return from_function(
        synth, lambda x, y, t: scale * np.cos(w0 * t)
        * np.exp(-(x ** 2 + y ** 2) / (2 * sxy ** 2) - t ** 2 / (2 * st ** 2)))


def _mode_data(data, grid):
    # analytic coefficient-space data: lambda-Gaussian on the Hermite diagonal
    center = float(data.get("center", 1.0))
    width = float(data.get("width", 0.5))
    ladder = float(data.get("ladder", 0.5))
    scale = float(data.get("scale", 1.0))
    c = np.zeros(grid.field_shape(), dtype=complex)
    profile = np.exp(-(grid.lambda_nodes - center) ** 2 / (2 * width ** 2))
    for k in range(grid.block_size):
        c[:, k, k] = scale * profile * ladder ** k
    return SpectralField(grid, c)


def _heisenberg_data(cfg, grid, synth, problems):
    data = cfg.get("data")
    if not _check_section(data, "data", ("kind",), problems):
        return None
    kind = data["kind"]
    if kind == "modes":
        return _mode_data(data, grid)
    if kind == "packet":
        if synth is None:
            problems.append("synth: required for packet data")
            return None
        packet = _packet_field(data, synth)
        calibrate_plancherel(packet, grid)
        return forward_transform(packet, grid, boundary_tol=None)
    problems.append(f"data.kind: unknown kind {kind!r}")
    return None


def _abelian_setup(cfg, problems):
    backend = cfg["backend"]
    for key in ("half_widths", "shape", "coefficients", "order"):
        if key not in backend:
            problems.append(f"backend.{key}: required for abelian runs")
    data = cfg.get("data")
    if (_check_section(data, "data", ("kind",), problems)
            and data["kind"] != "gaussian"):
        problems.append("data.kind: abelian runs take gaussian data, "
                        f"got {data['kind']!r}")
    if problems:
        return None, None, None
    agrid = AbelianGrid(tuple(backend["half_widths"]), tuple(backend["shape"]))
    symbol = AbelianSymbol(np.asarray(backend["coefficients"], dtype=float),
                           order=int(backend["order"]),
                           radial=bool(backend.get("radial", True)))
    width = float(data.get("width", 1.0))
    scale = float(data.get("scale", 1.0))
    dim = len(agrid.shape)

    def gauss(*coords):
        r2 = sum(c ** 2 for c in coords)
        return scale * np.exp(-r2 / (2 * width ** 2))

    u0 = abelian_forward(abelian_from_function(agrid, gauss))
    u1 = AbelianCoefficients(agrid, np.zeros(agrid.shape, dtype=complex))
    return agrid, symbol, (u0, u1)


def _linear_run(cfg, tol_factor, problems):
    _require(cfg, ("backend", "grid", "b", "m", "data", "horizon"), problems)
    _positive(cfg, "b", problems)
    _positive(cfg, "m", problems)
    if problems:
        raise ConfigError(problems)
    grid = _build_mode_grid(cfg, problems)
    times = _horizon_times(cfg, problems)
    if problems:
        raise ConfigError(problems)
    synth = _build_synth(cfg, problems) if cfg.get("synth") else None
    u0 = _heisenberg_data(cfg, grid, synth, problems)
    if problems:
        raise ConfigError(problems)
    u1 = SpectralField.zeros(grid)
    b, m = float(cfg["b"]), float(cfg["m"])
    prov = SubLaplacianSymbol(1)
    traj = evolve_linear(u0, u1, b, m, prov, times)
    d0 = decay_rate(b, m)
    tol = 0.05 * tol_factor
    reports = {s: verify_decay(traj, prov, s=s, slope_tolerance=tol)
               for s in (0.0, 1.0)}
    passed = all(r.passed for r in reports.values())
    rows = [(t, l2_norm(f), sobolev_norm(f, prov, 1.0))
            for t, f in zip(traj.times, traj.fields)]
    header = ("time", "l2", "h1")
    results = {
        "delta0": d0,
        "slopes": {str(s): reports[s].fitted_slope for s in reports},
        "slope_bound": -d0 * (1.0 - tol),
        "passed": passed,
    }
    return header, rows, results, passed


def _check_power(nl_cfg, problems):
    """Note a problem for each malformed number of the power nonlinearity."""
    mu, p = nl_cfg["mu"], nl_cfg["p"]
    if not _is_finite_number(mu):
        problems.append(
            f"nonlinearity.mu: must be a finite number, got {mu!r}")
    if not _is_finite_number(p) or p <= 1:
        problems.append(
            f"nonlinearity.p: must be a finite number > 1, got {p!r}")


_ZNORM_DEFAULTS = {"delta_fraction": 0.999, "weight_exponent": -0.5}


def _check_znorm(zcfg, problems):
    """(delta_fraction, weight_exponent) of the optional znorm section, the
    defaults filling absent keys; None after noting problems."""
    if zcfg is None:
        zcfg = {}
    if not isinstance(zcfg, dict):
        problems.append(f"znorm: must be an object, got {zcfg!r}")
        return None
    before = len(problems)
    problems.extend(f"znorm.{k}: unknown key"
                    for k in sorted(set(zcfg) - set(_ZNORM_DEFAULTS)))
    zcfg = _ZNORM_DEFAULTS | zcfg
    frac, expo = zcfg["delta_fraction"], zcfg["weight_exponent"]
    if not _is_positive_number(frac) or frac > 1:
        problems.append(
            f"znorm.delta_fraction: must lie in (0, 1], got {frac!r}")
    if not _is_finite_number(expo):
        problems.append(
            f"znorm.weight_exponent: must be a finite number, got {expo!r}")
    if len(problems) > before:
        return None
    return float(frac), float(expo)


def _semilinear_run(cfg, tol_factor, problems):
    _require(cfg, ("backend", "b", "m", "data", "horizon", "nonlinearity"),
             problems)
    _positive(cfg, "b", problems)
    _positive(cfg, "m", problems)
    nl_cfg = cfg.get("nonlinearity")
    if nl_cfg is not None and _check_section(
            nl_cfg, "nonlinearity", ("type", "mu", "p"), problems):
        _check_power(nl_cfg, problems)
    zparams = _check_znorm(cfg.get("znorm"), problems)
    if problems:
        raise ConfigError(problems)
    if nl_cfg["type"] != "power":
        raise ConfigError([f"nonlinearity.type: unknown type {nl_cfg['type']!r}"])
    nl = PowerNonlinearity(float(nl_cfg["mu"]), float(nl_cfg["p"]))
    b, m = float(cfg["b"]), float(cfg["m"])
    times = _horizon_times(cfg, problems)
    if problems:
        raise ConfigError(problems)
    delta_fraction, weight_exponent = zparams
    znorm = ZNormConfig(delta=decay_rate(b, m) * delta_fraction,
                        sample_times=tuple(times),
                        weight_exponent=weight_exponent)
    kind = cfg["backend"].get("kind")
    if kind == "abelian":
        _, symbol, pair = _abelian_setup(cfg, problems)
        if problems:
            raise ConfigError(problems)
        u0, u1 = pair
        traj, diag = picard_solve(u0, u1, nl, b, m, symbol, znorm)
        rep = verify_semilinear_decay(traj, b, m, symbol)
    elif kind == "heisenberg":
        grid = _build_mode_grid(cfg, problems)
        synth = _build_synth(cfg, problems)
        if problems:
            raise ConfigError(problems)
        u0 = _heisenberg_data(cfg, grid, synth, problems)
        if problems:
            raise ConfigError(problems)
        prov = SubLaplacianSymbol(1)
        traj, diag = picard_solve(u0, SpectralField.zeros(grid), nl, b, m,
                                  prov, znorm, synth=synth)
        rep = verify_semilinear_decay(traj, b, m, prov)
    else:
        raise ConfigError([f"backend.kind: unknown kind {kind!r}"])
    passed = (diag.status is PicardStatus.CONVERGED
              and all(r < 1.0 for r in diag.ratios) and rep.passed)
    header = ("iteration", "increment", "z_norm")
    rows = [(i + 1, inc, z) for i, (inc, z)
            in enumerate(zip(diag.increments, diag.z_norms))]
    results = {
        "status": diag.status.value,
        "iterations": diag.iterations,
        "ratios": diag.ratios,
        "threshold": diag.threshold,
        "data_norm": diag.data_norm,
        # the Richardson estimate; null when H - 1 is odd or no convergence
        "quadrature_error": (float(diag.quadrature_error)
                             if np.isfinite(diag.quadrature_error) else None),
        "decay_slopes": rep.slopes,
        "passed": passed,
    }
    return header, rows, results, passed


def _gn_check(cfg, rng, problems):
    gn = cfg.get("gn")
    if not _check_section(gn, "gn", ("n", "q_values"), problems):
        raise ConfigError(problems)
    n = int(gn["n"])
    rows, failures = [], 0
    for q_str in gn["q_values"]:
        q = Fraction(str(q_str))
        theta = gn_exponent_heisenberg(q, n)
        agree = gn_exponent_corollary(q, Fraction(2 * n + 2), 1) == theta
        failures += 0 if agree else 1
        rows.append((str(q), str(theta), float(theta), int(agree)))
    for tup in gn.get("tuples", ()):
        exps = gn_exponent_graded(*[Fraction(str(v)) for v in tup])
        if exps.degenerate:
            rows.append(("/".join(str(v) for v in tup), "degenerate",
                         float("nan"), 1))
            continue
        lhs = exps.s * (exps.a / exps.Q + 1 / exps.p - 1 / exps.r)
        ok = lhs == 1 / exps.p - 1 / exps.q and 0 <= exps.s <= 1
        failures += 0 if ok else 1
        rows.append(("/".join(str(v) for v in tup), str(exps.s),
                     float(exps.s), int(ok)))
    sampled = 0
    target = int(gn.get("random_tuples", 0))
    while sampled < target:
        Q = Fraction(int(rng.integers(2, 12)), int(rng.integers(1, 4)))
        a = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        if Q / a <= 1:
            continue
        r = Fraction(int(rng.integers(2, 40)), int(rng.integers(1, 20)))
        if not 1 < r < Q / a:
            continue
        ceiling = r * Q / (Q - a * r)
        p = 1 + (ceiling - 1) * Fraction(int(rng.integers(0, 17)), 16)
        q = p + (ceiling - p) * Fraction(int(rng.integers(0, 17)), 16)
        exps = gn_exponent_graded(Q, a, r, p, q)
        if not exps.degenerate:
            ok = (exps.s * (a / Q + 1 / p - 1 / r) == 1 / p - 1 / q
                  and 0 <= exps.s <= 1)
            failures += 0 if ok else 1
        sampled += 1
    ratios = []
    for width in gn.get("abelian_widths", ()):
        agrid = AbelianGrid((8.0, 8.0, 8.0), (32, 32, 32))
        w = float(width)
        u = abelian_from_function(
            agrid, lambda x, y, z: np.exp(-(x**2 + y**2 + z**2) / (2 * w**2)))
        exps = gn_exponent_graded(3, 1, 2, 2, 3)
        rep = verify_inequality_abelian(u, exps, f"gaussian w={w}")
        ratios.append(rep.ratio)
        rows.append((rep.descriptor, str(exps.s), rep.ratio, int(rep.finite)))
    passed = failures == 0 and all(np.isfinite(r) for r in ratios)
    header = ("case", "exponent", "value", "ok")
    results = {"identity_failures": failures, "random_tuples": sampled,
               "ratios": ratios, "passed": passed}
    return header, rows, results, passed


def _check_oracle(oracle, problems):
    """Note a problem for each malformed field of the oracle section and
    return (shape, tolerance, safety, snapshot_every); snapshot_every is None
    when absent, since its default depends on the step count."""
    before = len(problems)
    shape = oracle["shape"]
    if (not isinstance(shape, list) or len(shape) != 3
            or not all(_is_integer(s) and s >= 4 for s in shape)):
        problems.append(
            f"oracle.shape: must be three integers >= 4, got {shape!r}")
    tol = oracle["tolerance"]
    if not _is_positive_number(tol):
        problems.append(
            f"oracle.tolerance: must be a positive number, got {tol!r}")
    safety = oracle.get("safety", 0.4)
    if not _is_positive_number(safety) or safety > 1:
        problems.append(f"oracle.safety: must lie in (0, 1], got {safety!r}")
    every = oracle.get("snapshot_every")
    if every is not None and (not _is_integer(every) or every < 1):
        problems.append(
            f"oracle.snapshot_every: must be a positive integer, got {every!r}")
    if len(problems) > before:
        return None
    return tuple(shape), float(tol), float(safety), every


def _oracle_compare(cfg, tol_factor, problems):
    _require(cfg, ("backend", "grid", "b", "m", "data", "horizon", "oracle"),
             problems)
    _positive(cfg, "b", problems)
    _positive(cfg, "m", problems)
    if problems:
        raise ConfigError(problems)
    oracle = cfg["oracle"]
    checked = None
    if _check_section(oracle, "oracle", ("shape", "tolerance"), problems):
        checked = _check_oracle(oracle, problems)
    T = None
    if _check_section(cfg["horizon"], "horizon", ("T",), problems):
        T = _horizon_T(cfg["horizon"], problems)
    grid = _build_mode_grid(cfg, problems)
    synth = _build_synth(cfg, problems)
    if problems:
        raise ConfigError(problems)
    u0 = _heisenberg_data(cfg, grid, synth, problems)
    if problems:
        raise ConfigError(problems)
    shape, tol, safety, snap_every = checked
    b, m = float(cfg["b"]), float(cfg["m"])
    fd_grid = SpatialGrid(synth.half_widths, shape)
    dt = cfl_limit(fd_grid, safety)
    steps = int(np.ceil(T / dt))
    dt = T / steps
    if snap_every is None:
        snap_every = max(1, steps // 8)
    u0_fd = synthesize_on_grid(u0, fd_grid)
    v0_fd = SpatialField(fd_grid, np.zeros(fd_grid.shape, dtype=complex))
    fd = run_leapfrog(u0_fd, v0_fd, dt, steps, b, m,
                      snapshot_every=snap_every)
    prov = SubLaplacianSymbol(1)
    traj = evolve_linear(u0, SpectralField.zeros(grid), b, m, prov,
                         fd.snapshot_times)
    tol *= tol_factor
    report = compare_with_spectral(traj, fd, fd_grid, horizon=T,
                                   tolerance=tol)
    header = ("time", "relative_l2_discrepancy")
    rows = list(zip(report.sample_times, report.discrepancies))
    results = {"max_discrepancy": report.max_discrepancy,
               "tolerance": tol, "dt": dt, "steps": steps,
               "boundary_flux": fd.boundary_flux, "passed": report.passed}
    return header, rows, results, report.passed


def _calibrate(cfg, problems):
    _require(cfg, ("backend", "grid", "synth", "data"), problems)
    if problems:
        raise ConfigError(problems)
    grid = _build_mode_grid(cfg, problems)
    synth = _build_synth(cfg, problems)
    if problems:
        raise ConfigError(problems)
    data = cfg["data"]
    if data.get("kind") != "packet":
        raise ConfigError(["data.kind: calibrate needs packet data"])
    packet = _packet_field(data, synth)
    constant = calibrate_plancherel(packet, grid)
    F = forward_transform(packet, grid, boundary_tol=None)
    spectral = l2_norm(F)
    spatial = packet.l2_norm()
    mismatch = abs(spectral - spatial) / spatial
    header = ("plancherel_constant", "l2_spectral", "l2_spatial",
              "relative_mismatch")
    rows = [(constant, spectral, spatial, mismatch)]
    results = {"plancherel_constant": constant,
               "relative_mismatch": mismatch, "passed": True}
    return header, rows, results, True


def run(subcommand: str, config_path: str, out_dir, seed=None, threads=None,
        profile: str = "default") -> int:
    """Execute one subcommand; returns the process exit status."""
    from pathlib import Path

    cfg = load_config(config_path)
    if seed is None:
        seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    tol_factor = _tolerances(profile)
    problems: list = []
    if subcommand == "calibrate":
        header, rows, results, passed = _calibrate(cfg, problems)
    elif subcommand in ("evolve-linear", "verify-decay"):
        header, rows, results, passed = _linear_run(cfg, tol_factor, problems)
        if subcommand == "verify-decay":
            rows = [(s, results["slopes"][s]) for s in sorted(results["slopes"])]
            header = ("order", "slope")
    elif subcommand == "evolve-semilinear":
        header, rows, results, passed = _semilinear_run(cfg, tol_factor,
                                                        problems)
    elif subcommand == "gn-check":
        header, rows, results, passed = _gn_check(cfg, rng, problems)
    elif subcommand == "oracle-compare":
        header, rows, results, passed = _oracle_compare(cfg, tol_factor,
                                                        problems)
    else:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])

    manifest = {
        "subcommand": subcommand,
        "parameters": cfg,
        "seed": seed,
        "threads": threads,
        "tolerance_profile": profile,
        "results": results,
    }
    _emit(Path(out_dir), subcommand, header, rows, manifest, config_path)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subwave",
        description="spectral damped-wave solver and verification harness")
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--tolerance-profile", choices=("strict", "default"),
                        default="default")
    args = parser.parse_args(argv)
    try:
        return run(args.subcommand, args.config, args.out, seed=args.seed,
                   threads=args.threads, profile=args.tolerance_profile)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
