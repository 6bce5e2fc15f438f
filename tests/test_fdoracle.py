"""Finite-difference oracle: stencils, stability, energy, and convergence.

The stencil exactness tests use low-degree polynomials, for which centered
second differences and centered mixed differences are exact; only interior
cells are compared because the scheme truncates with a Dirichlet ring.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from subwave import fdoracle
from subwave.fdoracle import (
    ComparisonReport,
    LeapfrogResult,
    apply_sublaplacian,
    cfl_limit,
    compare_with_spectral,
    mms_fields,
    run_leapfrog,
    step_leapfrog,
)
from subwave.propagator import LinearTrajectory
from subwave.spectral import SpectralField
from subwave.transform import SpatialField, SpatialGrid, from_function

from conftest import traced_peak

INTERIOR = (slice(1, -1),) * 3


@pytest.fixture()
def box():
    return SpatialGrid((2.0, 2.0, 2.0), (17, 15, 13))


def test_sublaplacian_exact_on_quadratic(box):
    f = from_function(box, lambda x, y, t: x * x + 0 * y + 0 * t)
    lap = apply_sublaplacian(f.samples, box)
    assert np.allclose(lap[INTERIOR], 2.0, atol=1e-10)


def test_sublaplacian_annihilates_constants(box):
    lap = apply_sublaplacian(np.full(box.shape, 3.7), box)
    assert np.allclose(lap[INTERIOR], 0.0, atol=1e-11)
    # samples that would broadcast into the box are still the wrong shape
    with pytest.raises(ValueError, match="does not match grid"):
        apply_sublaplacian(np.full(box.shape[1:], 3.7), box)


def test_sublaplacian_full_operator_on_polynomial(box):
    # f = x^2 + 2y^2 + 3t^2 + xy + xt - 2yt; all stencils are exact here
    def f(x, y, t):
        return (x * x + 2 * y * y + 3 * t * t
                + x * y + x * t - 2 * y * t)

    def exact(x, y, t):
        # 2 + 4 + (x^2+y^2)/4 * 6 + x * (-2) - y * 1
        return 6.0 + 1.5 * (x * x + y * y) - 2.0 * x - y + 0 * t

    lap = apply_sublaplacian(from_function(box, f).samples, box)
    want = from_function(box, exact).samples
    assert np.allclose(lap[INTERIOR], want[INTERIOR], atol=1e-9)


def reference_sublaplacian(f, grid):
    """The stencil term by term, with one temporary per difference."""
    hx, hy, ht = grid.spacings
    x = grid.axis(0)[:, None, None]
    y = grid.axis(1)[None, :, None]
    p = np.pad(f, 1)
    c = p[1:-1, 1:-1, 1:-1]
    d2x = (p[2:, 1:-1, 1:-1] - 2 * c + p[:-2, 1:-1, 1:-1]) / (hx * hx)
    d2y = (p[1:-1, 2:, 1:-1] - 2 * c + p[1:-1, :-2, 1:-1]) / (hy * hy)
    d2t = (p[1:-1, 1:-1, 2:] - 2 * c + p[1:-1, 1:-1, :-2]) / (ht * ht)
    dyt = (p[1:-1, 2:, 2:] - p[1:-1, 2:, :-2]
           - p[1:-1, :-2, 2:] + p[1:-1, :-2, :-2]) / (4 * hy * ht)
    dxt = (p[2:, 1:-1, 2:] - p[2:, 1:-1, :-2]
           - p[:-2, 1:-1, 2:] + p[:-2, 1:-1, :-2]) / (4 * hx * ht)
    return d2x + d2y + 0.25 * (x * x + y * y) * d2t + x * dyt - y * dxt


def test_sublaplacian_matches_term_by_term_formula(box, rng):
    f = rng.standard_normal(box.shape) + 1j * rng.standard_normal(box.shape)
    want = reference_sublaplacian(f, box)
    got = apply_sublaplacian(f, box)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def slice_sublaplacian(f, grid):
    """The stencil as it stood before the flat buffer: every neighbour a
    strided slice of a padded copy, the terms summed through one scratch."""
    hx, hy, ht = grid.spacings
    x = grid.axis(0)[:, None, None]
    y = grid.axis(1)[None, :, None]
    p = np.pad(f, 1)
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
    return lap


def stencil_data(shape, kind, rng):
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "real":
        return f.real + 0j
    if kind == "float":
        return f.real.copy()
    if kind == "faces":
        # mass on the six faces only, next to the Dirichlet ghost layer
        g = np.zeros(shape, dtype=complex)
        for axis in range(3):
            for end in (0, -1):
                idx = [slice(None)] * 3
                idx[axis] = end
                g[tuple(idx)] = f[tuple(idx)]
        return g
    return f


@pytest.mark.parametrize("kind", ["complex", "real", "faces", "float"])
@pytest.mark.parametrize("shape", [(4, 4, 4), (5, 7, 9), (36, 36, 48), (40, 6, 5),
                                   (41, 36, 48)])
def test_sublaplacian_is_bitwise_the_slice_stencil(shape, kind, rng):
    grid = SpatialGrid((5.0, 5.0, 8.5), shape)
    f = stencil_data(shape, kind, rng)
    got = apply_sublaplacian(f, grid)
    assert got.dtype == f.dtype
    assert got.tobytes() == slice_sublaplacian(f, grid).tobytes()


@pytest.mark.parametrize("block", [1, 3 * 8 * 7, 5 * 8 * 7])
def test_sublaplacian_is_bitwise_the_slice_stencil_in_any_blocks(block, rng,
                                                                  monkeypatch):
    # (40, 6, 5) has x-slabs of 8 * 7 padded cells: one, three and five slabs
    # per block, the last block short in the first two cases
    monkeypatch.setattr(fdoracle, "_BLOCK", block)
    grid = SpatialGrid((3.0, 2.0, 4.0), (40, 6, 5))
    for kind in ("complex", "faces", "float"):
        f = stencil_data(grid.shape, kind, rng)
        got = apply_sublaplacian(f, grid)
        assert got.tobytes() == slice_sublaplacian(f, grid).tobytes()


def test_cfl_limit_scales_with_resolution():
    coarse = SpatialGrid((3.0, 3.0, 3.0), (16, 16, 16))
    fine = SpatialGrid((3.0, 3.0, 3.0), (31, 31, 31))
    assert cfl_limit(fine) == pytest.approx(0.5 * cfl_limit(coarse), rel=0.05)
    with pytest.raises(ValueError):
        cfl_limit(coarse, safety=0.0)
    with pytest.raises(ValueError):
        cfl_limit(coarse, safety=1.5)


def test_step_leapfrog_free_motion(box):
    # constant field, zero mass, zero damping: deep interior cells see a
    # vanishing stencil, so the update reduces to u_next = 2u - u_prev
    u = np.full(box.shape, 1.3)
    lap = apply_sublaplacian(u, box)
    nxt = u.astype(complex)
    step_leapfrog(u, nxt, 0.01, 0.0, 0.0, lap, box.cell_volume)
    inner = (slice(2, -2),) * 3
    assert np.allclose(nxt[inner], u[inner], atol=1e-12)


def leapfrog_formula(u, u_prev, dt, b, m, lap, source=None):
    rhs = lap - m * u
    if source is not None:
        rhs = rhs + source
    denom = 1.0 + 0.5 * b * dt
    return (2.0 * u - (1.0 - 0.5 * b * dt) * u_prev + dt * dt * rhs) / denom


def energy_formula(u, u_next, dt, m, vol, lap):
    kin = 0.5 * np.sum(np.abs((u_next - u) / dt) ** 2) * vol
    pot = 0.5 * np.real(np.sum(np.conj(-lap + m * u) * u_next)) * vol
    return float(kin + pot)


def kernel_formula(u, u_prev, dt, b, m, lap, vol, source=None, divide=False):
    """step_leapfrog's increment form, one operation at a time, out of place:
    (u_next, staggered energy).  divide=True divides by 1 + b dt/2 instead
    of multiplying by its reciprocal, the kernel's choice."""
    dt2 = dt * dt
    r = (lap - u * m) * dt2
    d = (u - u_prev) * (1.0 - 0.5 * b * dt) + r
    if source is not None:
        d = d + source * dt2
    if divide:
        d = d / (1.0 + 0.5 * b * dt)
    else:
        d = d * (1.0 / (1.0 + 0.5 * b * dt))
    u_next = d + u
    pot = np.vdot(r, u_next).real
    return u_next, float((0.5 * vol / dt2) * (np.vdot(d, d).real - pot))


def random_levels(shape, rng):
    return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(4)]


def kernel_levels(levels, shape, rng):
    """u, u_prev, lap, source; "real-u" and "real-lap" make that input real,
    "real" makes all four real, so the next level is real too."""
    u, u_prev, lap, source = random_levels(shape, rng)
    if levels in ("real-u", "real"):
        u = u.real.copy()
    if levels in ("real-lap", "real"):
        lap = lap.real.copy()
    if levels == "real":
        u_prev, source = u_prev.real.copy(), source.real.copy()
    return u, u_prev, lap, source


@pytest.mark.parametrize("levels", ["complex", "real-u", "real"])
@pytest.mark.parametrize("with_source", [False, True])
def test_step_leapfrog_is_bitwise_the_formula(levels, with_source, box, rng):
    u, u_prev, lap, source = kernel_levels(levels, box.shape, rng)
    source = source if with_source else None
    want, energy = kernel_formula(u, u_prev, 0.013, 2.0, 2.0, lap,
                                  box.cell_volume, source)
    divided, _ = kernel_formula(u, u_prev, 0.013, 2.0, 2.0, lap,
                                box.cell_volume, source, divide=True)
    got = step_leapfrog(u, u_prev, 0.013, 2.0, 2.0, lap, box.cell_volume, source)
    assert u_prev.dtype == want.dtype
    assert u_prev.tobytes() == want.tobytes()
    assert got == energy
    if np.iscomplexobj(want):
        # NumPy's complex / real scalar is exactly the product with the
        # reciprocal, so complex levels keep the bits of the division
        assert u_prev.tobytes() == divided.tobytes()


@pytest.mark.parametrize("levels", ["complex", "real-u", "real", "real-lap"])
def test_staggered_energy_is_bitwise_the_formula(levels, box, rng):
    # the energy of a step that takes its scratch from the caller; the
    # source enters the increment only, as in kernel_formula
    u, u_prev, lap, source = kernel_levels(levels, box.shape, rng)
    _, want = kernel_formula(u, u_prev, 0.013, 2.0, 2.0, lap, box.cell_volume, source)
    scratch = np.empty_like(u_prev)
    got = step_leapfrog(u, u_prev, 0.013, 2.0, 2.0, lap, box.cell_volume,
                        source, scratch)
    assert got == want


def test_step_leapfrog_rejects_a_level_that_cannot_hold_the_next(box, rng):
    u, u_prev, lap, _ = random_levels(box.shape, rng)
    real_prev = u_prev.real.copy()
    with pytest.raises(TypeError, match="complex128"):
        step_leapfrog(u, real_prev, 0.013, 2.0, 2.0, lap, box.cell_volume)
    assert np.array_equal(real_prev, u_prev.real)
    for scratch in (np.empty(box.shape), np.empty(box.shape[1:], dtype=complex)):
        with pytest.raises(TypeError, match="scratch"):
            step_leapfrog(u, u_prev, 0.013, 2.0, 2.0, lap, box.cell_volume,
                          scratch=scratch)


def test_fd_kernels_stay_within_their_scratch(synth_box, rng):
    # tracemalloc peaks in complex grid arrays, Python objects included:
    # the slice stencil measures 3.4, the textbook step and energy as the
    # one-line formulas leapfrog_formula and energy_formula 3.0 and 2.0.
    # The kernel holds r in one array unless the caller lends it, and a
    # source costs one more for its dt^2 kick.
    u, u_prev, lap, source = random_levels(synth_box.shape, rng)
    vol = synth_box.cell_volume
    _, peak = traced_peak(lambda: apply_sublaplacian(u, synth_box))
    assert peak / u.nbytes <= 3.0, "stencil"
    for src in (None, source):
        for scratch in (None, np.empty_like(u)):
            _, peak = traced_peak(lambda: step_leapfrog(
                u, u_prev, 0.01, 2.0, 2.0, lap, vol, src, scratch))
            boxes = (scratch is None) + (src is not None)
            assert peak / u.nbytes <= boxes + 0.01, (boxes, src is None)


def test_stencil_leaves_no_garbage_behind():
    # with the collector off, cyclic garbage a call leaves stays on the
    # traced heap: np.pad of the y axis left about 200 bytes a call, where
    # the zero-padded y column built from the grid leaves 65
    box = SpatialGrid((3.0, 3.0, 3.0), (24, 24, 24))
    u = gaussian_data(box)[0].samples
    apply_sublaplacian(u, box)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            lap = apply_sublaplacian(u, box)
        grown = tracemalloc.get_traced_memory()[0] - base - lap.nbytes
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert grown < 100 * 300


def gaussian_data(box, sigma=0.7):
    u0 = from_function(box, lambda x, y, t: np.exp(
        -(x * x + y * y + t * t) / (2 * sigma * sigma)))
    v0 = SpatialField(box, np.zeros(box.shape))
    return u0, v0


def test_undamped_energy_conserved():
    box = SpatialGrid((3.0, 3.0, 3.0), (24, 24, 24))
    u0, v0 = gaussian_data(box)
    dt = cfl_limit(box, 0.4)
    res = run_leapfrog(u0, v0, dt, 60, b=0.0, m=1.0)
    e = res.energy_history
    assert np.max(np.abs(e - e[0])) < 1e-11 * abs(e[0])


def test_damped_energy_monotone():
    box = SpatialGrid((3.0, 3.0, 3.0), (24, 24, 24))
    u0, v0 = gaussian_data(box)
    dt = cfl_limit(box, 0.4)
    res = run_leapfrog(u0, v0, dt, 60, b=1.5, m=1.0)
    e = res.energy_history
    assert np.all(np.diff(e) <= 1e-13 * abs(e[0]))
    assert e[-1] < 0.9 * e[0]


def test_staggered_energy_positive_for_small_steps():
    box = SpatialGrid((2.0, 2.0, 2.0), (16, 16, 16))
    u0, _ = gaussian_data(box, sigma=0.5)
    u = u0.samples
    e = step_leapfrog(u, u.astype(complex), 0.01, 0.0, 0.5,
                      apply_sublaplacian(u, box), box.cell_volume)
    assert e > 0


def test_run_leapfrog_bookkeeping():
    box = SpatialGrid((3.0, 3.0, 3.0), (16, 16, 16))
    u0, v0 = gaussian_data(box)
    dt = cfl_limit(box, 0.35)
    res = run_leapfrog(u0, v0, dt, 12, b=1.0, m=0.5, snapshot_every=5)
    assert res.times.size == 13
    assert res.l2_history.size == 13
    assert res.energy_history.size == 12
    assert np.allclose(res.snapshot_times, [0.0, 5 * dt, 10 * dt, 12 * dt])
    assert len(res.snapshots) == 4
    # 12 leapfrog steps barely move the sigma=0.7 packet, so the shell stays quiet.
    assert res.boundary_flux < 2e-2
    with pytest.raises(ValueError):
        run_leapfrog(u0, v0, -dt, 10, b=1.0, m=0.0)
    with pytest.raises(ValueError):
        run_leapfrog(u0, v0, dt, 0, b=1.0, m=0.0)
    other = SpatialGrid((3.0, 3.0, 3.0), (17, 17, 17))
    with pytest.raises(ValueError, match="different grids"):
        run_leapfrog(u0, SpatialField(other, np.zeros(other.shape)), dt, 5,
                     b=1.0, m=0.0)


def test_run_leapfrog_rejects_an_unstable_step():
    # three times the stability limit blows up: the L2 norm of level 120 is
    # infinite long before the samples themselves overflow (near level 1000)
    box = SpatialGrid((3.0, 3.0, 3.0), (8, 8, 8))
    u0, v0 = gaussian_data(box)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="leapfrog level 120 "):
            run_leapfrog(u0, v0, 3 * cfl_limit(box, 1.0), 200, b=0.5, m=0.5)


@pytest.mark.parametrize("every", [-3, 0.5, 2.5, "2", None])
def test_run_leapfrog_rejects_a_bad_snapshot_interval(every):
    box = SpatialGrid((3.0, 3.0, 3.0), (12, 12, 12))
    u0, v0 = gaussian_data(box)
    with pytest.raises(ValueError, match="snapshot_every"):
        run_leapfrog(u0, v0, 0.01, 10, b=1.0, m=0.0, snapshot_every=every)


def test_run_leapfrog_takes_a_numpy_snapshot_interval():
    box = SpatialGrid((3.0, 3.0, 3.0), (12, 12, 12))
    u0, v0 = gaussian_data(box)
    res = run_leapfrog(u0, v0, 0.01, 10, b=1.0, m=0.0, snapshot_every=np.int64(4))
    assert np.allclose(res.snapshot_times, [0.0, 0.04, 0.08, 0.1])


def test_run_leapfrog_rejects_data_on_a_different_box():
    # same 12^3 shape, different box: the stencil would take u0's spacings
    u0, _ = gaussian_data(SpatialGrid((3.0, 3.0, 4.0), (12, 12, 12)))
    other = SpatialGrid((5.0, 5.0, 9.0), (12, 12, 12))
    v0 = SpatialField(other, np.zeros(other.shape))
    with pytest.raises(ValueError, match="different grids"):
        run_leapfrog(u0, v0, 0.01, 5, b=1.0, m=0.0)


def test_run_leapfrog_applies_the_stencil_once_per_step(monkeypatch):
    box = SpatialGrid((3.0, 3.0, 3.0), (16, 16, 16))
    u0, v0 = gaussian_data(box)
    calls = []

    def counting(u, grid):
        calls.append(1)
        return apply_sublaplacian(u, grid)

    monkeypatch.setattr(fdoracle, "apply_sublaplacian", counting)
    run_leapfrog(u0, v0, cfl_limit(box, 0.35), 7, b=1.0, m=0.5)
    assert len(calls) == 7


def test_run_leapfrog_samples_the_source_once_per_step():
    # the first step reuses the Taylor start's sample at t = 0
    box = SpatialGrid((3.0, 3.0, 3.0), (12, 12, 12))
    u0, v0 = gaussian_data(box)
    dt, times = cfl_limit(box, 0.35), []

    def source(t):
        times.append(t)
        return np.full(box.shape, 0.1)

    run_leapfrog(u0, v0, dt, 5, b=1.0, m=0.5, source_fn=source)
    assert times == [j * dt for j in range(5)]


def written_out_loop(step, with_source=True, share_stencil=True, kind="real"):
    """The leapfrog on the manufactured solution, written out: every level
    wrapped for boundary_decay, and step(u, u_prev, dt, b, m, lap, vol,
    source) returns a fresh next level and the energy.  The first step
    reuses the Taylor start's stencil or applies it afresh.  kind "complex"
    gives the data an imaginary part, the solution point-reflected in
    (x, y).  Returns run_leapfrog's result and the loop's (L2 history,
    energies, snapshots, flux)."""
    box = SpatialGrid((3.0, 3.0, 3.0), (16, 14, 12))
    b, m = 1.5, 0.8
    solution, velocity, source = mms_fields(box, b, m, sigma=0.8)
    source = source if with_source else None
    u0 = solution(0.0)
    if kind == "complex":
        u0 = u0 + 0.5j * u0[::-1, ::-1]
    u0, v0 = SpatialField(box, u0), SpatialField(box, velocity(0.0))
    dt, steps, every = cfl_limit(box, 0.35), 9, 4
    res = run_leapfrog(u0, v0, dt, steps, b, m, source_fn=source,
                       snapshot_every=every)
    src = source or (lambda t: None)
    vol = box.cell_volume
    # in run_leapfrog's own dtype from the start, as the levels swap roles
    dtype = res.snapshots[0].samples.dtype
    assert dtype == (np.float64 if kind == "real" else np.complex128)
    u = u0.samples.astype(dtype)
    lap = apply_sublaplacian(u, box)
    acc0 = lap - m * u - b * v0.samples + (0.0 if source is None else source(0.0))
    u_prev = u - dt * v0.samples + 0.5 * dt * dt * acc0
    l2 = [np.sqrt(np.vdot(u, u).real * vol)]
    energy, snaps = [], [u.copy()]
    flux = SpatialField(box, u).boundary_decay()
    for j in range(steps):
        if j or not share_stencil:
            lap = apply_sublaplacian(u, box)
        u_next, e = step(u, u_prev, dt, b, m, lap, vol, src(j * dt))
        energy.append(e)
        u_prev, u = u, u_next
        l2.append(np.sqrt(np.vdot(u, u).real * vol))
        flux = max(flux, SpatialField(box, u).boundary_decay())
        if (j + 1) % every == 0 or j + 1 == steps:
            snaps.append(u.copy())
    assert flux > 0
    return res, (np.array(l2), np.array(energy), snaps, flux)


def kernel_step(u, u_prev, dt, b, m, lap, vol, source):
    u_next = u_prev.copy()
    return u_next, step_leapfrog(u, u_next, dt, b, m, lap, vol, source)


def assert_matches_written_out_loop(share_stencil):
    """run_leapfrog, bit for bit, against a loop of step_leapfrog that lends
    it no scratch and never reuses a level's array, on real and on complex
    data."""
    for kind in ("real", "complex"):
        res, (l2, energy, snaps, flux) = written_out_loop(
            kernel_step, share_stencil=share_stencil, kind=kind)
        assert res.boundary_flux == flux
        assert np.array_equal(res.l2_history, l2)
        assert np.array_equal(res.energy_history, energy)
        assert len(res.snapshots) == len(snaps)
        for got, want in zip(res.snapshots, snaps):
            assert got.samples.dtype == want.dtype
            assert got.samples.tobytes() == want.tobytes()


def test_run_leapfrog_matches_steps_without_shared_stencil():
    assert_matches_written_out_loop(share_stencil=False)


def test_run_leapfrog_matches_the_loop_that_wraps_twice_per_step():
    assert_matches_written_out_loop(share_stencil=True)


def split_data(box, offset):
    """(u0, v0, source) of a manufactured solution from t = offset on, so
    that the velocity is not zero; offset picks the solution."""
    solution, velocity, source = mms_fields(
        box, 1.5, 0.8, sigma=0.8, centers=(0.35 - offset, -0.25, 0.3 + offset),
        omega=1.4 + offset)
    return solution(offset), velocity(offset), lambda t: source(t + offset)


def test_a_complex_run_is_the_runs_of_its_parts():
    # L and the scheme have real coefficients, so complex levels step their
    # real and imaginary parts as two float64 runs would, value for value
    box = SpatialGrid((3.0, 3.0, 3.0), (16, 14, 12))
    dt = cfl_limit(box, 0.35)
    (ur, vr, sr), (ui, vi, si) = split_data(box, 0.3), split_data(box, 0.7)

    def run(u0, v0, source):
        return run_leapfrog(SpatialField(box, u0), SpatialField(box, v0), dt, 9,
                            1.5, 0.8, source_fn=source, snapshot_every=4)

    whole = run(ur + 1j * ui, vr + 1j * vi, lambda t: sr(t) + 1j * si(t))
    real, imag = run(ur, vr, sr), run(ui, vi, si)
    assert len(whole.snapshots) == len(real.snapshots) == len(imag.snapshots) == 4
    for w, r, i in zip(whole.snapshots, real.snapshots, imag.snapshots):
        assert w.samples.dtype == np.complex128
        assert r.samples.dtype == i.samples.dtype == np.float64
        assert np.array_equal(w.samples.real, r.samples)
        assert np.array_equal(w.samples.imag, i.samples)


def test_complex_typed_real_data_step_float64_levels():
    # zero imaginary parts count as real, whatever the dtype: the bits of
    # the float64 run
    box = SpatialGrid((3.0, 3.0, 3.0), (16, 14, 12))
    u0, v0, source = split_data(box, 0.3)
    dt = cfl_limit(box, 0.35)
    runs = [run_leapfrog(SpatialField(box, u0.astype(dtype)),
                         SpatialField(box, v0.astype(dtype)), dt, 6, 1.5, 0.8,
                         source_fn=lambda t: source(t).astype(dtype), snapshot_every=3)
            for dtype in (float, complex)]
    assert runs[1].snapshots[0].samples.dtype == np.float64
    for real, typed in zip(*(run.snapshots for run in runs)):
        assert typed.samples.dtype == np.float64
        assert typed.samples.tobytes() == real.samples.tobytes()
    assert np.array_equal(runs[1].energy_history, runs[0].energy_history)


def test_a_source_that_turns_non_real_is_rejected():
    # the levels are float64 from the real data and first source sample;
    # a later imaginary part is never dropped
    box = SpatialGrid((3.0, 3.0, 3.0), (12, 12, 12))
    u0, v0 = gaussian_data(box)
    dt = cfl_limit(box, 0.35)

    def source(t):
        return np.full(box.shape, 0.1 + (1j if t > 2.5 * dt else 0.0))

    with pytest.raises(ValueError, match=r"source at t = .* is not real"):
        run_leapfrog(u0, v0, dt, 6, b=1.0, m=0.5, source_fn=source)


def test_real_levels_take_half_the_bytes_of_complex_ones():
    # the levels, the stencil and its padded buffer, the kernel's scratch
    # and the Taylor start's temporaries take the data's dtype; only the
    # float64 magnitudes are common to both runs: a peak of 90.5 bytes a
    # cell against 167.5 measured, 0.54
    box = SpatialGrid((3.0, 3.0, 3.0), (24, 24, 24))
    u0, v0 = gaussian_data(box)
    twin = SpatialField(box, u0.samples * (1 + 1e-3j))
    dt = cfl_limit(box, 0.35)
    _, real = traced_peak(lambda: run_leapfrog(u0, v0, dt, 5, b=1.0, m=0.5))
    _, complex_ = traced_peak(lambda: run_leapfrog(twin, v0, dt, 5, b=1.0, m=0.5))
    assert real <= 0.6 * complex_


def textbook_step(u, u_prev, dt, b, m, lap, vol, source):
    u_next = leapfrog_formula(u, u_prev, dt, b, m, lap, source)
    return u_next, energy_formula(u, u_next, dt, m, vol, lap)


# Rounding bound between the increment form and the textbook formulas over
# nine steps, relative to each quantity's largest magnitude: the two sum the
# same terms in another order, about 1e-16 per operation; measured 6e-15.
# Letting the source into the potential term moves the energies by about 0.3.
TEXTBOOK_RTOL = 1e-12


def rel_gap(got, want):
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) / np.max(np.abs(want))


@pytest.mark.parametrize("with_source", [False, True])
def test_run_leapfrog_agrees_with_the_textbook_loop(with_source):
    res, (l2, energy, snaps, flux) = written_out_loop(textbook_step, with_source)
    assert rel_gap(res.l2_history, l2) <= TEXTBOOK_RTOL
    assert rel_gap(res.energy_history, energy) <= TEXTBOOK_RTOL
    assert rel_gap(res.boundary_flux, flux) <= TEXTBOOK_RTOL
    assert len(res.snapshots) == len(snaps)
    for got, want in zip(res.snapshots, snaps):
        assert rel_gap(got.samples, want) <= TEXTBOOK_RTOL


def test_run_leapfrog_memory_does_not_grow_with_the_steps():
    # two levels, the stencil, the kernel's scratch and the magnitudes are
    # made once; only the (steps + 1)-float histories grow, where one array
    # kept per step would add 30 boxes over the 30 extra steps
    box = SpatialGrid((3.0, 3.0, 3.0), (24, 24, 24))
    u0, v0 = gaussian_data(box)
    dt = cfl_limit(box, 0.35)
    _, short = traced_peak(lambda: run_leapfrog(u0, v0, dt, 10, b=1.0, m=0.5))
    _, long = traced_peak(lambda: run_leapfrog(u0, v0, dt, 40, b=1.0, m=0.5))
    box_bytes = 16 * np.prod(box.shape)
    assert long - short <= 0.1 * box_bytes


def test_run_leapfrog_wraps_each_level_once(monkeypatch):
    box = SpatialGrid((3.0, 3.0, 3.0), (16, 16, 16))
    u0, v0 = gaussian_data(box)
    wraps = []

    def counting(grid, samples):
        wraps.append(1)
        return SpatialField(grid, samples)

    monkeypatch.setattr(fdoracle, "SpatialField", counting)
    steps = 7
    run_leapfrog(u0, v0, cfl_limit(box, 0.35), steps, b=1.0, m=0.5)
    # the levels and the stencil results stay arrays
    assert not wraps
    # only a snapshot is wrapped; keeping every level wraps each one once
    res = run_leapfrog(u0, v0, cfl_limit(box, 0.35), steps, b=1.0, m=0.5,
                       snapshot_every=1)
    assert len(wraps) == len(res.snapshots) == steps + 1


def mms_error(shape_1d, b=1.5, m=0.8, t_end=0.4):
    # sigma 0.8 on a half-width 4.8 box keeps the manufactured Gaussian near
    # 1e-6 at the Dirichlet faces; a tighter box lets truncation error swamp
    # the h^2 signal.
    box = SpatialGrid((4.8, 4.8, 4.8), (shape_1d,) * 3)
    solution, velocity, source = mms_fields(box, b, m, sigma=0.8)
    dt = cfl_limit(box, 0.35)
    steps = int(np.ceil(t_end / dt))
    dt = t_end / steps
    res = run_leapfrog(SpatialField(box, solution(0.0)),
                       SpatialField(box, velocity(0.0)),
                       dt, steps, b=b, m=m, source_fn=source,
                       snapshot_every=steps)
    final = res.snapshots[-1].samples
    exact = solution(t_end)
    err = np.sqrt(np.sum(np.abs(final - exact)[INTERIOR] ** 2)
                  * box.cell_volume)
    ref = np.sqrt(np.sum(np.abs(exact)[INTERIOR] ** 2) * box.cell_volume)
    return err / ref, box.spacings[0]


def test_mms_second_order_convergence():
    errs, hs = zip(*(mms_error(n) for n in (20, 28, 40)))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order == pytest.approx(2.0, abs=0.4)


def zero_comparison_inputs(calibrated_grid, synth_box):
    times = np.array([0.0, 0.1])
    zero_spec = SpectralField.zeros(calibrated_grid)
    traj = LinearTrajectory(times, [zero_spec, zero_spec],
                            [zero_spec, zero_spec], 1.0, 0.0)
    zeros = np.zeros(synth_box.shape)
    fd = LeapfrogResult(times, [SpatialField(synth_box, zeros)] * 2,
                        times, np.zeros(2), np.zeros(1), 0.0)
    return traj, fd


def test_compare_with_spectral_zero_runs(calibrated_grid, synth_box):
    traj, fd = zero_comparison_inputs(calibrated_grid, synth_box)
    report = compare_with_spectral(traj, fd, synth_box, horizon=0.1,
                                   tolerance=1e-2)
    assert isinstance(report, ComparisonReport)
    assert report.passed
    assert np.allclose(report.discrepancies, 0.0)
    assert report.max_discrepancy == 0.0
    assert report.sample_times.size == 2


def test_compare_with_spectral_requires_matching_times(calibrated_grid, synth_box):
    # snapshot k pairs with trajectory node k: the trajectory must be sampled
    # at the snapshot times (shifted here), as many as there are (fewer here)
    traj, fd = zero_comparison_inputs(calibrated_grid, synth_box)
    for snapshot_times in (np.array([0.531, 0.717]), np.array([0.0])):
        other = LeapfrogResult(fd.times, fd.snapshots[:snapshot_times.size],
                               snapshot_times, fd.l2_history, fd.energy_history,
                               0.0)
        with pytest.raises(ValueError, match="not sampled at the fd snapshot times"):
            compare_with_spectral(traj, other, synth_box, horizon=1.0,
                                  tolerance=1e-2)


def test_compare_with_spectral_rejects_snapshots_on_another_grid(
        calibrated_grid, synth_box):
    # the fd snapshots share the shape of the comparison grid, not its box
    traj, fd = zero_comparison_inputs(calibrated_grid, synth_box)
    wider = SpatialGrid((6.0, 6.0, 9.0), synth_box.shape)
    with pytest.raises(ValueError, match="different grids"):
        compare_with_spectral(traj, fd, wider, horizon=0.1, tolerance=1e-2)
