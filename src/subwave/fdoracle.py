"""Independent finite-difference oracle for the damped wave equation on H^1.

Discretizes the expanded sub-Laplacian in the polarized coordinates (x, y, tau)
of H^1,

    L = d_xx + d_yy + (x^2 + y^2)/4 d_tautau + (x d_y - y d_x) d_tau,

with second-order centered stencils and zero Dirichlet closure outside the
box, and advances u'' + b u' + m u = L u + source with a damped leapfrog.
The stencil and the step work on sample arrays of either dtype.  L has real
coefficients, so real data and sources keep the levels real: the leapfrog
steps float64 levels unless a datum is non-real (see run_leapfrog).  The
stencil reads contiguous shifts of one flat zero-padded buffer, block by
cache-sized block, and gives the bits of its slice form (see
apply_sublaplacian).  The step is
the scheme's increment form: one in-place kernel writes the next level over
the retired one and takes the staggered energy from two dot products, so it
agrees with the textbook update and energy to rounding, not bit for bit
(see step_leapfrog).  Everything here is deliberately
independent of the spectral machinery: no Hermite functions, no
representation matrices; the only shared object is the spatial grid container.
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
    "compare_with_spectral",
    "ComparisonReport",
    "mms_fields",
]


# entries per block of whole x-slabs in apply_sublaplacian (256 kB complex)
_BLOCK = 1 << 14


def apply_sublaplacian(u: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Second-order stencil for L with Dirichlet truncation at the box: the
    samples of L u for samples u of shape grid.shape, float64 for real u
    and complex for complex u.

    One flat buffer holds the zero-padded box (one ghost layer) and a spare
    entry at each end, so a neighbour of a run of cells is the run shifted
    by +-1 (tau), +-(nt + 2) (y), +-(ny + 2)(nt + 2) (x) or a sum of these.
    Blocks of whole x-slabs, ghost cells included, sum the terms in two
    cache-sized scratch arrays; their real view (k, ny + 2, nt + 2), or
    2(nt + 2) reals wide for complex samples, takes the coefficients from at
    most (k, ny + 2, 1), so each part of complex samples gets the bits of the
    real stencil.  Each block's interior is copied into the result.  Every
    term keeps the slice form's operation order from a zero start, so L u is
    bitwise the same.
    """
    if np.shape(u) != grid.shape:
        raise ValueError(f"sample shape {np.shape(u)} does not match grid {grid.shape}")
    nx, ny, nt = grid.shape
    hx, hy, ht = grid.spacings
    sy, sx = nt + 2, (ny + 2) * (nt + 2)
    k = max(1, _BLOCK // sx)
    dtype = complex if np.iscomplexobj(u) else float
    acc, tmp = np.empty(k * sx, dtype=dtype), np.empty(k * sx, dtype=dtype)
    buf = np.zeros((nx + 2) * sx + 2, dtype=dtype)
    buf[1:-1].reshape(nx + 2, ny + 2, sy)[1:-1, 1:-1, 1:-1] = u
    x = grid.axis(0)[:, None, None]
    y = np.zeros((1, ny + 2, 1))
    y[0, 1:-1, 0] = grid.axis(1)
    ctt = (x * x + y * y) * (0.25 / (ht * ht))
    lap = np.empty(grid.shape, dtype=dtype)
    for i in range(0, nx, k):
        kk = min(k, nx - i)
        lo, n = 1 + (i + 1) * sx, kk * sx

        def at(off):
            return buf[lo + off:lo + off + n]

        a, t = acc[:n], tmp[:n]
        tv = t.view(float).reshape(kk, ny + 2, -1)
        a[:] = 0.0
        for off, coef in ((sx, 1.0 / (hx * hx)), (sy, 1.0 / (hy * hy)), (1, ctt[i:i + kk])):
            np.add(at(off), at(-off), out=t)
            t -= at(0)
            t -= at(0)
            tv *= coef
            a += t
        # mixed first derivatives, centered in both axes: x d_y d_tau - y d_x d_tau
        for off, coef in ((sy, x[i:i + kk] * (0.25 / (hy * ht))), (sx, y * (-0.25 / (hx * ht)))):
            np.subtract(at(off + 1), at(off - 1), out=t)
            t -= at(1 - off)
            t += at(-off - 1)
            tv *= coef
            a += t
        lap[i:i + kk] = a.reshape(kk, ny + 2, sy)[:, 1:-1, 1:-1]
    return lap


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
                  m: float, lap: np.ndarray, vol: float, source=None,
                  scratch: np.ndarray | None = None) -> float:
    """One damped leapfrog step at time level j -> j+1, in increment form.

    d = u_next - u = [c1 (u - u_prev) + r + dt^2 source] / (1 + b dt/2),
    c1 = 1 - b dt/2, r = dt^2 (L u - m u);

    this is u_next = [2u - c1 u_prev + dt^2 (L u - m u + source)] / (1 + b dt/2)
    rearranged.  lap must hold the stencil L u, as apply_sublaplacian returns
    it, and vol is the cell volume.  u_next is written over the retired level
    u_prev, whose dtype must be np.result_type of the inputs (TypeError
    otherwise).  Returns the step's staggered energy, conserved by the
    undamped scheme and strictly dissipated for b > 0 under the CFL bound,

        E = 1/2 ||d/dt||^2 + 1/2 Re <(m - L) u, u_next>,

    from the dot products <d, d>, taken before u is added to d, and <r, u_next>;
    the source kicks d alone and never enters the potential term.  r lives
    in scratch (same shape and dtype as u_prev), or in one fresh array when
    scratch is None; a source costs one more array for its dt^2 kick.
    """
    dtype = np.result_type(u, u_prev, lap, 0.0 if source is None else source)
    r = np.empty_like(u_prev) if scratch is None else scratch
    if u_prev.dtype != dtype or r.dtype != dtype or r.shape != u_prev.shape:
        raise TypeError(f"the retired level and the scratch must be {dtype} arrays "
                        f"of shape {np.shape(u)}")
    dt2 = dt * dt
    np.multiply(u, m, out=r)
    np.subtract(lap, r, out=r)
    r *= dt2
    d = np.subtract(u, u_prev, out=u_prev)
    d *= 1.0 - 0.5 * b * dt
    d += r
    if source is not None:
        d += np.multiply(source, dt2)
    d *= 1.0 / (1.0 + 0.5 * b * dt)  # complex d: the bits of the division, cheaper
    kin = np.vdot(d, d).real
    d += u
    pot = np.vdot(r, d).real
    return float((0.5 * vol / dt2) * (kin - pot))


def _imaginary(a) -> bool:
    """Whether samples a (or None) have a nonzero imaginary part."""
    return a is not None and np.iscomplexobj(a) and bool(np.any(np.imag(a)))


@dataclass
class LeapfrogResult:
    times: np.ndarray
    snapshots: list
    snapshot_times: np.ndarray
    l2_history: np.ndarray
    energy_history: np.ndarray
    boundary_flux: float


def run_leapfrog(u0: SpatialField, v0: SpatialField, dt: float, steps: int,
                 b: float, m: float, source_fn=None, snapshot_every: int = 0) -> LeapfrogResult:
    """Advance the damped leapfrog from data (u0, v0).

    source_fn(t) must return samples on the grid (or None).  The levels are
    float64 when u0, v0 and source_fn(0) have no nonzero imaginary part,
    whatever their dtype, and complex otherwise; as L has real coefficients,
    the real and imaginary parts of complex levels step as two real runs
    would.  A later source with a nonzero imaginary part on float64 levels
    raises ValueError.  The first back level is built from a second-order
    Taylor expansion so the scheme keeps its global order.  Boundary flux is
    monitored as the largest boundary magnitude seen relative to the global
    max, to flag Dirichlet pollution.  The run holds two levels, the
    stencil, one scratch array for step_leapfrog (all of the levels' dtype)
    and one of float64 magnitudes, whatever the step count.  Each step
    applies the stencil once and calls step_leapfrog once, which writes the
    next level over the retired one and returns the staggered energy; the
    first step reuses the stencil and the source sample of the Taylor start,
    so there are `steps` stencil applications and source samples in all.  Each level's L2 norm comes from <u, u>,
    and a level whose L2 norm is not finite (dt too large) raises
    ValueError; its magnitudes, formed in place, feed the boundary flux.
    Only snapshots become SpatialFields: snapshot_every = k > 0 keeps level
    0, every k-th level and the last one; 0 keeps none.
    """
    grid = u0.grid
    if v0.grid != grid:
        raise ValueError("data live on different grids")
    if dt <= 0 or steps < 1:
        raise ValueError("need dt > 0 and steps >= 1")
    if not isinstance(snapshot_every, (int, np.integer)) or snapshot_every < 0:
        raise ValueError("snapshot_every must be a non-negative integer")
    src0 = source_fn(0.0) if source_fn is not None else None
    real = not any(map(_imaginary, (u0.samples, v0.samples, src0)))

    def level(a, t):
        """Samples a for the levels: on float64 levels its real part, which
        must be all of it."""
        if not real or a is None:
            return a
        if _imaginary(a):
            raise ValueError(f"the source at t = {t} is not real, but the data "
                             "were; pass complex data")
        return np.real(a)

    # one dtype for both, as the two levels trade roles every step
    u = level(u0.samples, 0.0).astype(float if real else complex)
    v, src0 = level(v0.samples, 0.0), level(src0, 0.0)
    lap = apply_sublaplacian(u, grid)
    acc0 = lap - m * u - b * v + (src0 if src0 is not None else 0.0)
    u_prev = u - dt * v + 0.5 * dt * dt * acc0

    times = dt * np.arange(steps + 1)
    l2 = np.empty(steps + 1)
    energy = np.empty(steps)
    vol = grid.cell_volume
    r = np.empty_like(u)
    mag = np.abs(u)
    l2[0] = np.sqrt(np.vdot(u, u).real * vol)
    snaps = [SpatialField(grid, u.copy())] if snapshot_every else []
    kept = [0] if snapshot_every else []
    flux = _boundary_ratio(mag)
    for j in range(steps):
        t_j = j * dt
        src = src0 if not j or source_fn is None else level(source_fn(t_j), t_j)
        if j:
            lap = apply_sublaplacian(u, grid)
        energy[j] = step_leapfrog(u, u_prev, dt, b, m, lap, vol, src, r)
        u_prev, u = u, u_prev
        l2[j + 1] = np.sqrt(np.vdot(u, u).real * vol)
        if not np.isfinite(l2[j + 1]):
            raise ValueError(f"leapfrog level {j + 1} has a non-finite L2 norm")
        flux = max(flux, _boundary_ratio(np.abs(u, out=mag)))
        if snapshot_every and ((j + 1) % snapshot_every == 0 or j + 1 == steps):
            snaps.append(SpatialField(grid, u.copy()))
            kept.append(j + 1)
    return LeapfrogResult(times, snaps, times[kept], l2, energy, flux)


@dataclass
class ComparisonReport:
    sample_times: np.ndarray
    discrepancies: np.ndarray
    max_discrepancy: float
    tolerance: float
    passed: bool


def compare_with_spectral(traj, fd: LeapfrogResult, grid: SpatialGrid,
                          horizon: float, tolerance: float) -> ComparisonReport:
    """Relative L^2 discrepancy between a spectral trajectory and an fd run.

    Both runs must start from the same data, with the fd side initialized
    from the synthesis of the spectral data onto grid, where its snapshots
    must live.  The trajectory is sampled at the fd snapshot times, so
    snapshot k pairs with trajectory node k; a trajectory of another length,
    or with a time more than 1e-9 (relative beyond 1) from its snapshot's,
    raises ValueError.  Every pair within the horizon contributes one
    sample; two identical zero runs give zero discrepancy.
    """
    # the one deliberate bridge to the spectral side; stencils stay independent
    from .transform import synthesize_on_grid

    if any(field_fd.grid != grid for field_fd in fd.snapshots):
        raise ValueError("data live on different grids")
    snap_t = np.asarray(fd.snapshot_times, dtype=float)
    times = np.asarray(traj.times, dtype=float)
    if (times.shape != snap_t.shape
            or np.any(np.abs(times - snap_t) > 1e-9 * np.maximum(1.0, np.abs(snap_t)))):
        raise ValueError("the trajectory is not sampled at the fd snapshot times")
    w = grid.weight_cube()
    sample_t, disc = [], []
    for field_fd, field, t in zip(fd.snapshots, traj.fields, snap_t):
        if t > horizon + 1e-12:
            continue
        ref = synthesize_on_grid(field, grid)
        delta = field_fd.samples - ref.samples
        num = np.sqrt(np.sum(w * np.abs(delta) ** 2))
        den = np.sqrt(np.sum(w * np.abs(ref.samples) ** 2))
        if den == 0.0:
            disc.append(0.0 if num == 0.0 else np.inf)
        else:
            disc.append(float(num / den))
        sample_t.append(float(t))
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
