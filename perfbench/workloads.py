"""The benchmark's three workloads, written against the public `subwave` API.

Each workload draws its data parameters from `--seed` within narrow ranges in
which every workload check holds and the Picard iteration count does not
change, so run time does not depend on the seed.  `setup` builds everything
up to ready inputs; `solve` runs from ready inputs to the verdict and returns
the run's numeric outputs; `check` lists the failed workload checks.  The
call sequences match `subwave.cli`, and `cli_config` gives the JSON config
on which `subwave.cli.run` computes the same numbers.

Calls go through module attributes (`transform.forward_transform`) so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import math

import numpy as np

from subwave import abelian, fdoracle, propagator, semilinear, spectral, transform

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

B = M = 2.0
MU, P = 1.0, 2.0                  # f(u) = |u| u, p = 2 = 1 + 1/n on H^1
DELTA_FRACTION = 0.999            # the CLI's Z-norm defaults
WEIGHT_EXPONENT = -0.5

HEIS_GRID = {"lambda_min": 0.25, "lambda_max": 6.0, "nodes": 96, "mu_max": 15.0}
HEIS_BOX = {"half_widths": [5.0, 5.0, 8.5], "shape": [36, 36, 48]}
ABELIAN_BACKEND = {"kind": "abelian", "half_widths": [6.0, 6.0, 6.0],
                   "shape": [32, 32, 32], "coefficients": [1.0, 1.0, 1.0],
                   "order": 4, "radial": True}
ORACLE = {"shape": [36, 36, 48], "safety": 0.4, "tolerance": 0.05}


def params(name: str, seed: int) -> dict:
    """Data parameters of workload `name` for `seed`."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    if name == "heis-picard":
        return {"carrier": rng.uniform(1.58, 1.62), "sigma_xy": 0.8,
                "sigma_tau": 1.35, "scale": rng.uniform(0.049, 0.051),
                "T": 4.0, "H": 9}
    if name == "abelian-picard":
        return {"width": rng.uniform(0.98, 1.02), "scale": 0.1,
                "T": 6.0, "H": 129}
    if name == "oracle-compare":
        return {"carrier": rng.uniform(1.58, 1.62), "sigma_xy": 0.8,
                "sigma_tau": 1.35, "scale": rng.uniform(0.95, 1.05), "T": 4.0}
    raise KeyError(name)


# ---------------------------------------------------------------------------
# set-up: grid, tables and plan, calibration, data

def _heisenberg_inputs(p):
    transform.clear_plan_cache()
    grid = spectral.build_grid(HEIS_GRID["lambda_min"], HEIS_GRID["lambda_max"],
                               HEIS_GRID["nodes"], HEIS_GRID["mu_max"], n=1)
    box = transform.SpatialGrid(tuple(HEIS_BOX["half_widths"]),
                                tuple(HEIS_BOX["shape"]))
    w0, sxy, st, scale = p["carrier"], p["sigma_xy"], p["sigma_tau"], p["scale"]
    packet = transform.from_function(
        box, lambda x, y, t: scale * np.cos(w0 * t)
        * np.exp(-(x ** 2 + y ** 2) / (2 * sxy ** 2) - t ** 2 / (2 * st ** 2)))
    grid.plancherel_constant = transform.calibrate_plancherel(packet, grid)
    u0 = transform.forward_transform(packet, grid, boundary_tol=None)
    return grid, box, u0


def _picard_config(p):
    times = tuple(np.linspace(0.0, p["T"], p["H"]))
    delta = propagator.decay_rate(B, M) * DELTA_FRACTION
    return (semilinear.PowerNonlinearity(MU, P),
            semilinear.ZNormConfig(delta=delta, sample_times=times,
                                   weight_exponent=WEIGHT_EXPONENT))


def setup_heis_picard(p):
    grid, box, u0 = _heisenberg_inputs(p)
    nl, znorm = _picard_config(p)
    return {"u0": u0, "u1": spectral.SpectralField.zeros(grid), "nl": nl,
            "znorm": znorm, "symbol": spectral.SubLaplacianSymbol(1), "synth": box}


def setup_abelian_picard(p):
    be = ABELIAN_BACKEND
    agrid = abelian.AbelianGrid(tuple(be["half_widths"]), tuple(be["shape"]))
    symbol = spectral.AbelianSymbol(np.asarray(be["coefficients"], dtype=float),
                                    order=be["order"], radial=be["radial"])
    width, scale = p["width"], p["scale"]

    def gauss(*coords):
        r2 = sum(c ** 2 for c in coords)
        return scale * np.exp(-r2 / (2 * width ** 2))

    u0 = abelian.abelian_forward(abelian.abelian_from_function(agrid, gauss))
    u1 = abelian.AbelianCoefficients(agrid, np.zeros(agrid.shape, dtype=complex))
    nl, znorm = _picard_config(p)
    return {"u0": u0, "u1": u1, "nl": nl, "znorm": znorm, "symbol": symbol,
            "synth": None}


def setup_oracle_compare(p):
    grid, box, u0 = _heisenberg_inputs(p)
    return {"u0": u0, "box": box, "T": p["T"]}


# ---------------------------------------------------------------------------
# solve: ready inputs to verdict

def solve_picard(s):
    traj, diag = semilinear.picard_solve(s["u0"], s["u1"], s["nl"], B, M,
                                         s["symbol"], s["znorm"], synth=s["synth"])
    rep = semilinear.verify_semilinear_decay(traj, B, M, s["symbol"])
    finite = all(np.all(np.isfinite(_coeffs(f))) and np.all(np.isfinite(_coeffs(d)))
                 for f, d in zip(traj.fields, traj.derivatives))
    return {
        "status": diag.status.value,
        "iterations": diag.iterations,
        "ratios": [float(r) for r in diag.ratios],
        "increments": [float(v) for v in diag.increments],
        "z_norms": [float(v) for v in diag.z_norms],
        "final_z_norm": float(diag.z_norms[-1]),
        "threshold": float(diag.threshold),
        "data_norm": float(diag.data_norm),
        "quadrature_error": float(diag.quadrature_error),
        "decay_slopes": {k: float(v) for k, v in rep.slopes.items()},
        "finite": bool(finite),
    }


def _coeffs(state):
    return state.coefficients if hasattr(state, "coefficients") else state.values


def solve_oracle_compare(s):
    u0, box, T = s["u0"], s["box"], s["T"]
    fd_grid = transform.SpatialGrid(box.half_widths, tuple(ORACLE["shape"]))
    dt = fdoracle.cfl_limit(fd_grid, ORACLE["safety"])
    steps = int(np.ceil(T / dt))
    dt = T / steps
    u0_fd = transform.synthesize_on_grid(u0, fd_grid)
    v0_fd = transform.SpatialField(fd_grid, np.zeros(fd_grid.shape, dtype=complex))
    fd = fdoracle.run_leapfrog(u0_fd, v0_fd, dt, steps, B, M,
                               snapshot_every=max(1, steps // 8))
    traj = propagator.evolve_linear(u0, spectral.SpectralField.zeros(u0.grid), B, M,
                                    spectral.SubLaplacianSymbol(1), fd.snapshot_times)
    report = fdoracle.compare_with_spectral(traj, fd, fd_grid, horizon=T,
                                            tolerance=ORACLE["tolerance"])
    energy = np.asarray(fd.energy_history)
    return {
        "steps": steps,
        "dt": float(dt),
        "discrepancies": [float(d) for d in report.discrepancies],
        "max_discrepancy": float(report.max_discrepancy),
        "verdict_passed": bool(report.passed),
        "boundary_flux": float(fd.boundary_flux),
        "energy_first": float(energy[0]),
        "energy_last": float(energy[-1]),
        "energy_max_rise": float(np.max(np.diff(energy))) if energy.size > 1 else 0.0,
    }


# ---------------------------------------------------------------------------
# workload checks; each failure is one string

def check_picard(out) -> list[str]:
    fails = []
    if out["status"] != "Converged":
        fails.append(f"status {out['status']}")
    if not all(r < 1.0 for r in out["ratios"]):
        fails.append(f"contraction ratios {out['ratios']}")
    if not all(v < 0 for v in out["decay_slopes"].values()):
        fails.append(f"decay slopes {out['decay_slopes']}")
    if not math.isfinite(out["quadrature_error"]):
        fails.append("Richardson error not finite")
    if not out["finite"] or not all(map(math.isfinite, out["z_norms"])):
        fails.append("non-finite trajectory")
    return fails


def check_oracle_compare(out) -> list[str]:
    # the 0.05 discrepancy verdict is recorded, not checked: it fails at
    # this resolution (a known defect of the oracle comparison)
    fails = []
    if not out["energy_max_rise"] <= 0.0:
        fails.append(f"fd energy rises by {out['energy_max_rise']:.3e}")
    if not math.isfinite(out["max_discrepancy"]):
        fails.append("discrepancy not finite")
    if not math.isfinite(out["boundary_flux"]):
        fails.append("boundary flux not finite")
    return fails


# ---------------------------------------------------------------------------
# equivalent CLI configs

def cli_config(name: str, p: dict):
    """(subcommand, config) on which `subwave.cli.run` repeats the workload."""
    packet = {"kind": "packet"} | {k: p[k] for k in
                                   ("carrier", "sigma_xy", "sigma_tau", "scale")
                                   if k in p}
    common = {"b": B, "m": M}
    nonlinearity = {"type": "power", "mu": MU, "p": P}
    if name == "heis-picard":
        return "evolve-semilinear", common | {
            "backend": {"kind": "heisenberg", "n": 1}, "grid": HEIS_GRID,
            "synth": HEIS_BOX, "data": packet, "nonlinearity": nonlinearity,
            "horizon": {"T": p["T"], "samples": p["H"]}}
    if name == "abelian-picard":
        return "evolve-semilinear", common | {
            "backend": ABELIAN_BACKEND, "nonlinearity": nonlinearity,
            "data": {"kind": "gaussian", "width": p["width"], "scale": p["scale"]},
            "horizon": {"T": p["T"], "samples": p["H"]}}
    if name == "oracle-compare":
        return "oracle-compare", common | {
            "backend": {"kind": "heisenberg", "n": 1}, "grid": HEIS_GRID,
            "synth": HEIS_BOX, "data": packet, "oracle": ORACLE,
            "horizon": {"T": p["T"], "samples": 2}}
    raise KeyError(name)


def expected_calls(name: str, p: dict, out: dict) -> dict:
    """Outermost calls per span group that a fully traced solve must show."""
    if name == "heis-picard":
        sweeps = p["H"] * (out["iterations"] + 1)  # + the Richardson sweep
        return {"transform.forward": sweeps, "transform.synth": sweeps}
    if name == "abelian-picard":
        return {"transform.forward": 0, "transform.synth": 0,
                "semilinear.nonlinearity": p["H"] * (out["iterations"] + 1)}
    if name == "oracle-compare":
        # the fd data, then one synthesis per compared snapshot
        return {"transform.forward": 0,
                "transform.synth": 1 + len(out["discrepancies"])}
    raise KeyError(name)


class Workload:
    def __init__(self, why, setup, solve, check, dominant):
        self.why, self.setup, self.solve, self.check = why, setup, solve, check
        # span-name prefixes expected to hold the largest self time of the solve
        self.dominant = dominant


WORKLOADS = {
    "heis-picard": Workload(
        "the paper's own case: Picard solve on the Heisenberg backend, "
        "dominated by forward transforms and syntheses",
        setup_heis_picard, solve_picard, check_picard, ("transform.",)),
    "abelian-picard": Workload(
        "abelian Picard solve at H=129, dominated by the O(H^2) Duhamel loop; "
        "never touches the group transform",
        setup_abelian_picard, solve_picard, check_picard,
        ("semilinear.picard_solve",)),
    "oracle-compare": Workload(
        "finite-difference oracle against the spectral evolution: single "
        "syntheses per snapshot and the leapfrog step",
        setup_oracle_compare, solve_oracle_compare, check_oracle_compare,
        ("fdoracle.step_leapfrog", "fdoracle.staggered_energy",
         "fdoracle.apply_sublaplacian")),
}
