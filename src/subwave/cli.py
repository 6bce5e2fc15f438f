"""Batch experiment runner: config-driven orchestration of the other modules.

Subcommands
-----------
calibrate          fit the Plancherel constant on a reference packet
evolve-linear      linear trajectory + decay-rate fit
verify-decay       decay-rate fit only (same inputs as evolve-linear)
evolve-semilinear  Picard solve + diagnostics + decay fit
gn-check           exponent tables and inequality ratio sweeps
oracle-compare     spectral evolution against the finite-difference oracle

Config schema (JSON, one object; unknown keys rejected at every level)
----------------------------------------------------------------------
kind and type are required; another field shown with a scalar or a formula
defaults to it, and bare names and list shapes are required unless marked.
JSON null counts as absent.  A subcommand checks only the sections it reads.
backend       {"kind": "heisenberg", "n": 1}
              | {"kind": "abelian", "half_widths": [..], "shape": [..],
                 "coefficients": [..], "order", "radial": true};
              the abelian backend serves evolve-linear, verify-decay and
              evolve-semilinear
grid          heisenberg only: {"lambda_min", "lambda_max", "nodes", "mu_max"}
synth         heisenberg only: {"half_widths": [x,y,tau], "shape": [nx,ny,nt]}
b, m          damping and mass, positive numbers
data          heisenberg: {"kind": "packet", "carrier": 1.5, "sigma_xy": 0.8,
                           "sigma_tau": 1.4, "scale": 1}
                        | {"kind": "modes", "center": 1, "width": 0.5,
                           "ladder": 0.5, "scale": 1}
              abelian: {"kind": "gaussian", "width": 1, "scale": 1}
              sigma_xy, sigma_tau, width and scale positive; calibrate takes
              packet data only; packet data needs synth and n = 1 (the grid
              transforms are n = 1 only)
horizon       {"T", "samples"}, T > 0, samples an integer >= 2;
              oracle-compare reads T only
nonlinearity  evolve-semilinear only: {"type": "power", "mu", "p"}, mu finite,
              p > 1
znorm         evolve-semilinear only: {"delta_fraction": 0.999,
              "weight_exponent": -0.5}, delta_fraction in (0, 1]
gn            gn-check only: {"n", "q_values": ["2","8/3",..],
              "tuples": [[Q,a,r,p,q], ..] (default none), "random_tuples": 0,
              "abelian_widths": [..] (default none)}
oracle        oracle-compare only: {"shape": [nx,ny,nt], "tolerance",
              "safety": 0.4, "snapshot_every": max(1, steps // 8)}, shape three
              integers >= 4, tolerance > 0, safety in (0, 1]
seed          an integer >= 0, default 0 (--seed overrides)
The grid, box and symbol constructors check the relations between fields.

Every run writes <out>/<subcommand>.csv (UTF-8, header row, comma separator,
LF line ends, floats via shortest round-trip repr) and <out>/manifest.json
capturing the config as given, content hashes of the config and outputs,
and the pass verdict.  Identical config and seed give byte-identical CSV
files.  Exit status: 0 pass, 1 acceptance failure, 2 config error, 3
numerical failure (a synthesized field fails the boundary-decay gate or a
nonlinearity produces non-finite samples; one line on stderr, no output
directory).  --threads
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

from .abelian import (AbelianCoefficients, AbelianGrid, abelian_from_function,
                      abelian_forward, symbol_on_grid)
from .fdoracle import cfl_limit, compare_with_spectral, run_leapfrog
from .gn import (gn_exponent_corollary, gn_exponent_graded,
                 gn_exponent_heisenberg, verify_inequality_abelian)
from .propagator import _Model, decay_rate, evolve_linear, verify_decay
from .semilinear import (NumericalFailure, PicardStatus, PowerNonlinearity,
                         ZNormConfig, picard_solve, verify_semilinear_decay)
from .spectral import (AbelianSymbol, SpectralField, SubLaplacianSymbol,
                       _csv_bytes, build_grid, l2_norm)
from .transform import (SpatialField, SpatialGrid, _calibrate_on,
                        forward_transform, from_function, synthesize_on_grid)

__all__ = ["main", "run", "ConfigError", "load_config"]


class ConfigError(ValueError):
    """Carries one message per offending field."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("config invalid:\n" + "\n".join(
            f"  - {p}" for p in self.problems))


def _number(v) -> bool:
    """A number finite as a float; JSON true/false are not numbers."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _rational(v) -> bool:
    try:
        Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _list_of(item, length=None):
    return lambda v: (isinstance(v, list) and length in (None, len(v))
                      and all(map(item, v)))


def _one_of(*names):
    return (lambda v: v in names), "one of " + ", ".join(names), str


# A check is (predicate, phrase, cast): a value that fails reads
# "<path>: must be <phrase>, got <value>"; one that passes reaches the
# numerics as cast(value).
_FINITE = _number, "a finite number", float
_POSITIVE = (lambda v: _number(v) and v > 0), "a positive number", float
_UNIT = (lambda v: _number(v) and 0 < v <= 1), "a number in (0, 1]", float
_ABOVE_ONE = (lambda v: _number(v) and v > 1), "a finite number > 1", float
_INTEGER = _integer, "an integer", int
_COUNT = (lambda v: _integer(v) and v >= 0), "an integer >= 0", int
_POSITIVE_INT = (lambda v: _integer(v) and v >= 1), "a positive integer", int
_SAMPLES = (lambda v: _integer(v) and v >= 2), "an integer >= 2", int
_BOOL = (lambda v: isinstance(v, bool)), "true or false", bool
_NUMBERS = (_list_of(_number), "a list of finite numbers",
            lambda v: tuple(map(float, v)))
_WIDTHS = (_list_of(lambda v: _number(v) and v > 0),
           "a list of positive numbers", lambda v: tuple(map(float, v)))
_INTEGERS = _list_of(_integer), "a list of integers", tuple
_FD_SHAPE = (_list_of(lambda v: _integer(v) and v >= 4, 3),
             "three integers >= 4", tuple)
_RATIONALS = _list_of(_rational), 'a list of rationals such as "8/3"', tuple
_TUPLES = (_list_of(_list_of(_rational, 5)),
           "a list of [Q, a, r, p, q] lists of rationals", tuple)

_REQUIRED = object()

# Every field the config may hold: (check, default), or _REQUIRED in place of
# the default.  A section with a "kind" entry maps each kind to its fields.
_SCHEMA = {
    "b": (_POSITIVE, _REQUIRED),
    "m": (_POSITIVE, _REQUIRED),
    "seed": (_COUNT, 0),
    "backend": {"kind": {
        "heisenberg": {"n": (_POSITIVE_INT, 1)},
        "abelian": {"half_widths": (_NUMBERS, _REQUIRED),
                    "shape": (_INTEGERS, _REQUIRED),
                    "coefficients": (_NUMBERS, _REQUIRED),
                    "order": (_INTEGER, _REQUIRED),
                    "radial": (_BOOL, True)}}},
    "grid": {"lambda_min": (_FINITE, _REQUIRED),
             "lambda_max": (_FINITE, _REQUIRED),
             "nodes": (_INTEGER, _REQUIRED), "mu_max": (_FINITE, _REQUIRED)},
    "synth": {"half_widths": (_NUMBERS, _REQUIRED),
              "shape": (_INTEGERS, _REQUIRED)},
    "data": {"kind": {
        "packet": {"carrier": (_FINITE, 1.5), "sigma_xy": (_POSITIVE, 0.8),
                   "sigma_tau": (_POSITIVE, 1.4), "scale": (_POSITIVE, 1.0)},
        "modes": {"center": (_FINITE, 1.0), "width": (_POSITIVE, 0.5),
                  "ladder": (_FINITE, 0.5), "scale": (_POSITIVE, 1.0)},
        "gaussian": {"width": (_POSITIVE, 1.0), "scale": (_POSITIVE, 1.0)}}},
    "horizon": {"T": (_POSITIVE, _REQUIRED), "samples": (_SAMPLES, _REQUIRED)},
    "nonlinearity": {"type": (_one_of("power"), _REQUIRED),
                     "mu": (_FINITE, _REQUIRED), "p": (_ABOVE_ONE, _REQUIRED)},
    "znorm": {"delta_fraction": (_UNIT, 0.999),
              "weight_exponent": (_FINITE, ZNormConfig.weight_exponent)},
    "gn": {"n": (_POSITIVE_INT, _REQUIRED), "q_values": (_RATIONALS, _REQUIRED),
           "tuples": (_TUPLES, ()), "random_tuples": (_COUNT, 0),
           "abelian_widths": (_WIDTHS, ())},
    # safety defaults to cfl_limit's own default; snapshot_every to
    # max(1, steps // 8), known once dt is
    "oracle": {"shape": (_FD_SHAPE, _REQUIRED),
               "tolerance": (_POSITIVE, _REQUIRED),
               "safety": (_UNIT, cfl_limit.__defaults__[0]),
               "snapshot_every": (_POSITIVE_INT, None)},
}

# subcommand -> backend kind -> (the top-level entries it reads, the data kinds
# it takes).  "horizon.T" reads the horizon section with T alone required;
# packet data also reads synth.  gn-check reads no backend.
_HEISENBERG = ("modes", "packet")
_LINEAR = {"heisenberg": (("grid", "b", "m", "data", "horizon"), _HEISENBERG),
           "abelian": (("b", "m", "data", "horizon"), ("gaussian",))}
# evolve-semilinear also reads these; the nonlinearity acts on the synth box
_NONLINEAR = {"heisenberg": ("synth", "nonlinearity", "znorm"),
              "abelian": ("nonlinearity", "znorm")}
_NEEDS = {
    "calibrate": {"heisenberg": (("grid", "synth", "data"), ("packet",))},
    "evolve-linear": _LINEAR,
    "verify-decay": _LINEAR,
    "evolve-semilinear": {kind: (needs + _NONLINEAR[kind], data_kinds)
                          for kind, (needs, data_kinds) in _LINEAR.items()},
    "gn-check": {None: (("gn",), ())},
    "oracle-compare": {"heisenberg": (("grid", "synth", "b", "m", "data",
                                       "horizon.T", "oracle"), _HEISENBERG)},
}


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"])
    if not isinstance(cfg, dict):
        raise ConfigError(["top level must be an object"])
    unknown = sorted(set(cfg) - set(_SCHEMA))
    if unknown:
        raise ConfigError([f"{k}: unknown key" for k in unknown])
    return cfg


def _value(path, value, field, problems):
    """One field's cast value, or its default when absent (JSON null counts
    as absent); None after noting a problem."""
    (ok, phrase, cast), default = field
    if value is None:
        if default is _REQUIRED:
            problems.append(f"{path}: required")
            return None
        return default
    if ok(value):
        return cast(value)
    problems.append(f"{path}: must be {phrase}, got {value!r}")
    return None


def _section(name, given, problems, kinds=(), only=""):
    """Top-level entry `name` checked against _SCHEMA: a section's fields as a
    dict (None for a bad field), or None when absent or not an object.  `kinds`
    limit a kind-keyed section; with `only`, that field alone is required."""
    table = _SCHEMA[name]
    if isinstance(table, tuple):
        return _value(name, given, table, problems)
    if given is None:
        if "kind" in table or any(d is _REQUIRED for _, d in table.values()):
            problems.append(f"{name}: required")
            return None
        given = {}
    if not isinstance(given, dict):
        problems.append(f"{name}: must be an object, got {given!r}")
        return None
    values = {}
    if "kind" in table:
        kind = _value(f"{name}.kind", given.get("kind"),
                      (_one_of(*kinds), _REQUIRED), problems)
        if kind is None:
            return None
        values["kind"], table = kind, table["kind"][kind]
    problems.extend(f"{name}.{k}: unknown key"
                    for k in sorted(set(given) - set(table) - set(values)))
    for key, (check, default) in table.items():
        if only and key != only and default is _REQUIRED:
            default = None
        values[key] = _value(f"{name}.{key}", given.get(key),
                             (check, default), problems)
    return values


def _built(problems, name, make, *args):
    """make(*args), whose constructors own the relations between fields; their
    ValueError or TypeError becomes one problem of section `name`."""
    try:
        return make(*args)
    except (ValueError, TypeError) as exc:
        problems.append(f"{name}: {exc}")
        return None


def _abelian_backend(be):
    agrid = AbelianGrid(be["half_widths"], be["shape"])
    symbol = AbelianSymbol(be["coefficients"], order=be["order"],
                           radial=be["radial"])
    symbol_on_grid(agrid, symbol)  # the symbol's and grid's dimensions agree
    return agrid, symbol


def _gn_exponents(gn):
    """(q, theta) for each q value and the exponents of each tuple; the
    exponent functions reject values outside their ranges."""
    qs = [Fraction(str(q)) for q in gn["q_values"]]
    return ([(q, gn_exponent_heisenberg(q, gn["n"])) for q in qs],
            [gn_exponent_graded(*[Fraction(str(x)) for x in tup])
             for tup in gn["tuples"]])


def _validate(subcommand: str, cfg: dict) -> dict:
    """Walk the config once against _SCHEMA and _NEEDS: the values the
    subcommand reads, "grid" and "synth" built, "abelian" = (grid, symbol) and
    "gn_exponents" where read.  Raises ConfigError listing every problem."""
    problems: list = []
    by_kind = _NEEDS[subcommand]
    v = {"seed": _section("seed", cfg.get("seed"), problems)}
    be = v["backend"] = None if None in by_kind else _section(
        "backend", cfg.get("backend"), problems, tuple(by_kind))
    # without a valid backend kind, check what its first kind reads
    needs, data_kinds = by_kind.get(be and be["kind"],
                                    next(iter(by_kind.values())))
    for need in needs:
        name, _, only = need.partition(".")
        v[name] = _section(name, cfg.get(name), problems, data_kinds, only)
    if (v.get("data") or {}).get("kind") == "packet":
        if "synth" not in v:
            v["synth"] = _section("synth", cfg.get("synth"), problems)
        if be and be["n"] not in (None, 1):
            problems.append("backend.n: must be 1 for packet data")
    if not problems:
        grid, synth = v.get("grid"), v.get("synth")
        if grid:
            v["grid"] = _built(problems, "grid", build_grid, grid["lambda_min"],
                               grid["lambda_max"], grid["nodes"],
                               grid["mu_max"], be["n"])
        if synth:
            v["synth"] = _built(problems, "synth", SpatialGrid,
                                synth["half_widths"], synth["shape"])
        if v.get("gn"):
            v["gn_exponents"] = _built(problems, "gn", _gn_exponents, v["gn"])
        if be and be["kind"] == "abelian":
            v["abelian"] = _built(problems, "backend", _abelian_backend, be)
    if problems:
        raise ConfigError(problems)
    return v


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


def _packet_field(data, synth):
    w0, sxy, st, scale = (data[k] for k in
                          ("carrier", "sigma_xy", "sigma_tau", "scale"))
    return from_function(
        synth, lambda x, y, t: scale * np.cos(w0 * t)
        * np.exp(-(x ** 2 + y ** 2) / (2 * sxy ** 2) - t ** 2 / (2 * st ** 2)))


def _packet_transform(v):
    """The packet data, its one forward transform, and the Plancherel
    constant calibrated on both and stored on the grid."""
    with np.errstate(divide="ignore", invalid="ignore"):
        try:  # a width that squares to 0 makes 0/0 at a grid point on an axis
            packet = _packet_field(v["data"], v["synth"])
        except ValueError:
            packet = None
    if packet is None or packet.l2_norm() == 0.0:
        raise ConfigError(["data: the packet underflows to zero on the synth box"])
    F = forward_transform(packet, v["grid"])
    return packet, F, _calibrate_on(packet, F)


def _cauchy_data(v):
    """(u0, u1, symbol): the configured data at rest, on either backend."""
    data = v["data"]
    if v["backend"]["kind"] == "abelian":
        agrid, symbol = v["abelian"]
        width, scale = data["width"], data["scale"]
        u0 = abelian_forward(abelian_from_function(
            agrid, lambda *xs: scale
            * np.exp(-sum(c ** 2 for c in xs) / (2 * width ** 2))))
        return u0, AbelianCoefficients(agrid, np.zeros_like(u0.values)), symbol
    grid = v["grid"]
    if data["kind"] == "packet":
        u0 = _packet_transform(v)[1]
    else:
        # analytic coefficient-space data: lambda-Gaussian on the Hermite diagonal
        c = np.zeros(grid.field_shape(), dtype=complex)
        profile = np.exp(-(grid.lambda_nodes - data["center"]) ** 2
                         / (2 * data["width"] ** 2))
        for k in range(grid.block_size):
            c[:, k, k] = data["scale"] * profile * data["ladder"] ** k
        u0 = SpectralField(grid, c)
    return u0, SpectralField.zeros(grid), SubLaplacianSymbol(1)


def _linear_run(v, tol_factor):
    b, m = v["b"], v["m"]
    u0, u1, symbol = _cauchy_data(v)
    times = np.linspace(0.0, v["horizon"]["T"], v["horizon"]["samples"])
    traj = evolve_linear(u0, u1, b, m, symbol, times)
    d0 = decay_rate(b, m)
    tol = 0.05 * tol_factor
    reports = {s: verify_decay(traj, symbol, s=s, slope_tolerance=tol)
               for s in (0.0, 1.0)}
    passed = all(r.passed for r in reports.values())
    model = _Model(u0, symbol, b, m)
    rows = [(t, model.l2(c), model.sobolev(c, 1.0))
            for t, c in zip(traj.times, map(model.unwrap, traj.fields))]
    header = ("time", "l2", "h1")
    results = {
        "delta0": d0,
        "slopes": {str(s): reports[s].fitted_slope for s in reports},
        "slope_bound": -d0 * (1.0 - tol),
        "passed": passed,
    }
    return header, rows, results, passed


def _semilinear_run(v, tol_factor):
    b, m, nl_cfg, z = v["b"], v["m"], v["nonlinearity"], v["znorm"]
    nl = PowerNonlinearity(nl_cfg["mu"], nl_cfg["p"])
    times = np.linspace(0.0, v["horizon"]["T"], v["horizon"]["samples"])
    znorm = ZNormConfig(delta=decay_rate(b, m) * z["delta_fraction"],
                        sample_times=tuple(times),
                        weight_exponent=z["weight_exponent"])
    u0, u1, symbol = _cauchy_data(v)
    traj, diag = picard_solve(u0, u1, nl, b, m, symbol, znorm,
                              synth=v.get("synth"))
    rep = verify_semilinear_decay(traj, b, m, symbol)
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


def _gn_check(v, tol_factor):
    gn, rng = v["gn"], np.random.default_rng(v["seed"])
    n = gn["n"]
    rows, failures = [], 0
    thetas, graded = v["gn_exponents"]
    for q, theta in thetas:
        agree = gn_exponent_corollary(q, Fraction(2 * n + 2), 1) == theta
        failures += 0 if agree else 1
        rows.append((str(q), str(theta), float(theta), int(agree)))
    for tup, exps in zip(gn["tuples"], graded):
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
    while sampled < gn["random_tuples"]:
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
    for w in gn["abelian_widths"]:
        agrid = AbelianGrid((8.0, 8.0, 8.0), (32, 32, 32))
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


def _oracle_compare(v, tol_factor):
    b, m, T, oracle = v["b"], v["m"], v["horizon"]["T"], v["oracle"]
    u0, u1, symbol = _cauchy_data(v)
    fd_grid = SpatialGrid(v["synth"].half_widths, oracle["shape"])
    dt = cfl_limit(fd_grid, oracle["safety"])
    steps = int(np.ceil(T / dt))
    dt = T / steps
    snap_every = oracle["snapshot_every"] or max(1, steps // 8)
    u0_fd = synthesize_on_grid(u0, fd_grid)
    v0_fd = SpatialField(fd_grid, np.zeros(fd_grid.shape, dtype=complex))
    fd = run_leapfrog(u0_fd, v0_fd, dt, steps, b, m,
                      snapshot_every=snap_every)
    traj = evolve_linear(u0, u1, b, m, symbol, fd.snapshot_times)
    tol = oracle["tolerance"] * tol_factor
    report = compare_with_spectral(traj, fd, fd_grid, horizon=T,
                                   tolerance=tol)
    header = ("time", "relative_l2_discrepancy")
    rows = list(zip(report.sample_times, report.discrepancies))
    results = {"max_discrepancy": report.max_discrepancy,
               "tolerance": tol, "dt": dt, "steps": steps,
               "boundary_flux": fd.boundary_flux, "passed": report.passed}
    return header, rows, results, report.passed


def _calibrate(v, tol_factor):
    packet, F, constant = _packet_transform(v)
    spectral = l2_norm(F)
    spatial = packet.l2_norm()
    mismatch = abs(spectral - spatial) / spatial
    header = ("plancherel_constant", "l2_spectral", "l2_spatial",
              "relative_mismatch")
    rows = [(constant, spectral, spatial, mismatch)]
    results = {"plancherel_constant": constant,
               "relative_mismatch": mismatch, "passed": True}
    return header, rows, results, True


_RUNNERS = {"calibrate": _calibrate, "evolve-linear": _linear_run,
            "verify-decay": _linear_run, "evolve-semilinear": _semilinear_run,
            "gn-check": _gn_check, "oracle-compare": _oracle_compare}


def run(subcommand: str, config_path: str, out_dir, seed=None, threads=None,
        profile: str = "default") -> int:
    """Execute one subcommand; returns the process exit status."""
    from pathlib import Path

    cfg = load_config(config_path)
    if subcommand not in _NEEDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    # a seed passed here replaces the config's, so it is checked in its place
    v = _validate(subcommand, cfg if seed is None else cfg | {"seed": seed})
    tol_factor = 0.5 if profile == "strict" else 1.0  # scales every tolerance
    header, rows, results, passed = _RUNNERS[subcommand](v, tol_factor)
    if subcommand == "verify-decay":
        rows = [(s, results["slopes"][s]) for s in sorted(results["slopes"])]
        header = ("order", "slope")

    manifest = {
        "subcommand": subcommand,
        "parameters": cfg,
        "seed": v["seed"],
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
    parser.add_argument("subcommand", choices=tuple(_NEEDS))
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
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
