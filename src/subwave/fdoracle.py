"""Independent finite-difference oracle for the damped wave equation on H^1.

Discretizes the expanded sub-Laplacian in the polarized coordinates (x, y, tau)
of H^1,

    L = d_xx + d_yy + (x^2 + y^2)/4 d_tautau + (x d_y - y d_x) d_tau,

with second-order centered stencils and zero Dirichlet closure outside the
box, and advances u'' + b u' + m u = L u + source with a damped leapfrog.
Everything here is deliberately independent of the spectral machinery: no
Hermite functions, no representation matrices; the only shared object is the
spatial grid container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transform import SpatialField, SpatialGrid, _boundary_ratio

__all__ = [
    "apply_sublaplacian",
    "cfl_limit",
    "step_leapfrog",
    "run_leapfrog",
    "LeapfrogResult",
    "staggered_energy",
    "compare_with_spectral",
    "ComparisonReport",
    "mms_fields",
]


def _padded(f: np.ndarray) -> np.ndarray:
    out = np.zeros(tuple(s + 2 for s in f.shape), dtype=f.dtype)
    out[1:-1, 1:-1, 1:-1] = f
    return out


def apply_sublaplacian(field: SpatialField) -> SpatialField:
    """Second-order stencil for L with Dirichlet truncation at the box.

    The terms accumulate in place into one array through one scratch array,
    with the coefficients 1/hx^2, 1/hy^2, (x^2 + y^2)/(4 ht^2), x/(4 hy ht)
    and y/(4 hx ht) formed once per call.
    """
    grid = field.grid
    hx, hy, ht = grid.spacings
    x = grid.axis(0)[:, None, None]
    y = grid.axis(1)[None, :, None]
    p = _padded(field.samples)
    c = p[1:-1, 1:-1, 1:-1]
    lap = np.zeros_like(c)
    tmp = np.empty_like(c)
    second = (
        (p[2:, 1:-1, 1:-1], p[:-2, 1:-1, 1:-1], 1.0 / (hx * hx)),
        (p[1:-1, 2:, 1:-1], p[1:-1, :-2, 1:-1], 1.0 / (hy * hy)),
        (p[1:-1, 1:-1, 2:], p[1:-1, 1:-1, :-2], (x * x + y * y) * (0.25 / (ht * ht))),
    )
    for fwd, bwd, coef in second:
        np.add(fwd, bwd, out=tmp)
        tmp -= c
        tmp -= c
        tmp *= coef
        lap += tmp
    # mixed first derivatives, centered in both axes: x d_y d_tau - y d_x d_tau
    mixed = (
        (p[1:-1, 2:, 2:], p[1:-1, 2:, :-2], p[1:-1, :-2, 2:], p[1:-1, :-2, :-2],
         x * (0.25 / (hy * ht))),
        (p[2:, 1:-1, 2:], p[2:, 1:-1, :-2], p[:-2, 1:-1, 2:], p[:-2, 1:-1, :-2],
         y * (-0.25 / (hx * ht))),
    )
    for pp, pm, mp, mm, coef in mixed:
        np.subtract(pp, pm, out=tmp)
        tmp -= mp
        tmp += mm
        tmp *= coef
        lap += tmp
    return SpatialField(grid, lap)


def cfl_limit(grid: SpatialGrid, safety: float = 0.4) -> float:
    """Largest stable step for the leapfrog, box-corner worst case.

    The tau-direction wave speed squared is (x^2 + y^2)/4, maximal at the box
    corner; the mixed terms erode the classical bound so a conservative
    safety factor is applied.
    """
    if not 0 < safety <= 1:
        raise ValueError("safety must lie in (0, 1]")
    hx, hy, ht = grid.spacings
    rx, ry, _ = grid.half_widths
    ct2 = 0.25 * (rx * rx + ry * ry)
    rate = np.sqrt(1.0 / (hx * hx) + 1.0 / (hy * hy) + ct2 / (ht * ht))
    return safety / rate


def step_leapfrog(u: np.ndarray, u_prev: np.ndarray, dt: float, b: float,
                  m: float, lap: np.ndarray, source=None) -> np.ndarray:
    """One damped leapfrog step at time level j -> j+1.

    u_next = [2u - (1 - b dt/2) u_prev + dt^2 (L u - m u + source)] / (1 + b dt/2)

    lap must hold the stencil L u (the samples of apply_sublaplacian on u).
    """
    rhs = lap - m * u
    if source is not None:
        rhs = rhs + source
    denom = 1.0 + 0.5 * b * dt
    return (2.0 * u - (1.0 - 0.5 * b * dt) * u_prev + dt * dt * rhs) / denom


@dataclass
class LeapfrogResult:
    times: np.ndarray
    snapshots: list
    snapshot_times: np.ndarray
    l2_history: np.ndarray
    energy_history: np.ndarray
    boundary_flux: float


def staggered_energy(u: np.ndarray, u_next: np.ndarray, dt: float, m: float,
                     grid: SpatialGrid, lap: np.ndarray) -> float:
    """Staggered discrete energy conserved by the undamped leapfrog.

    E = 1/2 ||(u_next - u)/dt||^2 + 1/2 <(-L + m) u, u_next>; the stencil is
    symmetric so this is the exact conserved quantity at b = 0 and strictly
    dissipated for b > 0 under the CFL bound.  lap must hold the stencil L u,
    as passed to the step_leapfrog call that made u_next.
    """
    vol = grid.cell_volume
    kin = 0.5 * np.sum(np.abs((u_next - u) / dt) ** 2) * vol
    pot = 0.5 * np.real(np.sum(np.conj(-lap + m * u) * u_next)) * vol
    return float(kin + pot)


def run_leapfrog(u0: SpatialField, v0: SpatialField, dt: float, steps: int,
                 b: float, m: float, source_fn=None, snapshot_every: int = 0) -> LeapfrogResult:
    """Advance the damped leapfrog from data (u0, v0).

    source_fn(t) must return samples on the grid (or None).  The first back
    level is built from a second-order Taylor expansion so the scheme keeps
    its global order.  Boundary flux is monitored as the largest boundary
    magnitude seen relative to the global max, to flag Dirichlet pollution.
    Each step applies the stencil once and hands it to both step_leapfrog
    and staggered_energy; the first step reuses the stencil of the Taylor
    start, so there are `steps` stencil applications in all.  Each new level
    is wrapped (and so checked finite) once, and its magnitudes feed both the
    L2 history and the boundary flux.
    """
    grid = u0.grid
    if v0.grid.shape != grid.shape:
        raise ValueError("data live on different grids")
    if dt <= 0 or steps < 1:
        raise ValueError("need dt > 0 and steps >= 1")
    u = u0.samples.copy()
    src0 = source_fn(0.0) if source_fn is not None else None
    lap = apply_sublaplacian(u0).samples
    acc0 = lap - m * u - b * v0.samples + (src0 if src0 is not None else 0.0)
    u_prev = u - dt * v0.samples + 0.5 * dt * dt * acc0

    times = dt * np.arange(steps + 1)
    l2 = np.empty(steps + 1)
    energy = np.empty(steps)
    vol = grid.cell_volume
    mag = np.abs(u)
    l2[0] = np.sqrt(np.sum(mag ** 2) * vol)
    snaps, snap_times = [], []
    if snapshot_every:
        snaps.append(SpatialField(grid, u.copy()))
        snap_times.append(0.0)
    flux = _boundary_ratio(mag)
    for j in range(steps):
        t_j = j * dt
        src = source_fn(t_j) if source_fn is not None else None
        if j:
            lap = apply_sublaplacian(field).samples
        u_next = step_leapfrog(u, u_prev, dt, b, m, lap, src)
        energy[j] = staggered_energy(u, u_next, dt, m, grid, lap)
        u_prev, u = u, u_next
        field = SpatialField(grid, u)
        mag = np.abs(u)
        l2[j + 1] = np.sqrt(np.sum(mag ** 2) * vol)
        flux = max(flux, _boundary_ratio(mag))
        if snapshot_every and ((j + 1) % snapshot_every == 0 or j + 1 == steps):
            snaps.append(SpatialField(grid, u.copy()))
            snap_times.append((j + 1) * dt)
    return LeapfrogResult(times, snaps, np.asarray(snap_times), l2, energy, flux)


@dataclass
class ComparisonReport:
    sample_times: np.ndarray
    discrepancies: np.ndarray
    max_discrepancy: float
    tolerance: float
    passed: bool


def compare_with_spectral(traj, fd: LeapfrogResult, grid: SpatialGrid,
                          horizon: float | None = None, norm: str = "l2",
                          tolerance: float = 1e-2) -> ComparisonReport:
    """Relative discrepancy between a spectral trajectory and an fd run.

    Both runs must start from the same data, with the fd side initialized
    from the synthesis of the spectral data onto its grid.  Every fd snapshot
    whose time also appears in the trajectory (and lies within the horizon,
    when one is given) contributes one sample; two identical zero runs give
    zero discrepancy.
    """
    # the one deliberate bridge to the spectral side; stencils stay independent
    from .transform import synthesize_on_grid

    if norm not in ("l2", "max"):
        raise ValueError(f"unsupported norm {norm!r}")
    times = np.asarray(traj.times, dtype=float)
    w = grid.weight_cube()
    sample_t, disc = [], []
    for field_fd, t in zip(fd.snapshots, fd.snapshot_times):
        if horizon is not None and t > horizon + 1e-12:
            continue
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
            continue
        ref = synthesize_on_grid(traj.fields[i], grid)
        delta = field_fd.samples - ref.samples
        if norm == "l2":
            num = np.sqrt(np.sum(w * np.abs(delta) ** 2))
            den = np.sqrt(np.sum(w * np.abs(ref.samples) ** 2))
        else:
            num = np.abs(delta).max()
            den = np.abs(ref.samples).max()
        if den == 0.0:
            disc.append(0.0 if num == 0.0 else np.inf)
        else:
            disc.append(float(num / den))
        sample_t.append(float(t))
    if not sample_t:
        raise ValueError("no fd snapshot time matches a trajectory time")
    disc = np.asarray(disc)
    worst = float(disc.max())
    return ComparisonReport(np.asarray(sample_t), disc, worst, tolerance,
                            bool(worst <= tolerance))


def mms_fields(grid: SpatialGrid, b: float, m: float, sigma: float = 1.2,
               centers=(0.35, -0.25, 0.3), stretch=(1.0, 1.3, 0.8),
               omega: float = 1.4):
    """Manufactured solution u* = cos(omega t) G and its exact source.

    G is an offset anisotropic Gaussian, chosen so the mixed-derivative
    stencils are genuinely exercised (a centered isotropic Gaussian makes the
    two mixed terms of L cancel identically).  Returns (solution, velocity,
    source) as callables of t producing sample arrays.
    """
    x = grid.axis(0)[:, None, None]
    y = grid.axis(1)[None, :, None]
    tau = grid.axis(2)[None, None, :]
    x0, y0, t0 = centers
    ax, ay, at = (s / (sigma * sigma) for s in stretch)
    xs, ys, ts = x - x0, y - y0, tau - t0
    g = np.exp(-0.5 * (ax * xs * xs + ay * ys * ys + at * ts * ts))
    gxx = (ax * ax * xs * xs - ax) * g
    gyy = (ay * ay * ys * ys - ay) * g
    gtt = (at * at * ts * ts - at) * g
    gyt = (ay * ys) * (at * ts) * g
    gxt = (ax * xs) * (at * ts) * g
    lap_g = gxx + gyy + 0.25 * (x * x + y * y) * gtt + x * gyt - y * gxt

    def solution(t: float) -> np.ndarray:
        return np.cos(omega * t) * g

    def velocity(t: float) -> np.ndarray:
        return -omega * np.sin(omega * t) * g

    def source(t: float) -> np.ndarray:
        c, s = np.cos(omega * t), np.sin(omega * t)
        # u_tt + b u_t + m u - L u
        return (-omega * omega * c - b * omega * s + m * c) * g - c * lap_g

    return solution, velocity, source
