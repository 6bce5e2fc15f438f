"""Finite-difference oracle: stencils, stability, energy, and convergence.

The stencil exactness tests use low-degree polynomials, for which centered
second differences and centered mixed differences are exact; only interior
cells are compared because the scheme truncates with a Dirichlet ring.
"""

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
    staggered_energy,
    step_leapfrog,
)
from subwave.propagator import LinearTrajectory
from subwave.spectral import SpectralField
from subwave.transform import SpatialField, SpatialGrid, from_function

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


@pytest.mark.parametrize("kind", ["complex", "real", "faces"])
@pytest.mark.parametrize("shape", [(4, 4, 4), (5, 7, 9), (36, 36, 48), (40, 6, 5),
                                   (41, 36, 48)])
def test_sublaplacian_is_bitwise_the_slice_stencil(shape, kind, rng):
    grid = SpatialGrid((5.0, 5.0, 8.5), shape)
    f = stencil_data(shape, kind, rng)
    got = apply_sublaplacian(f, grid)
    assert got.tobytes() == slice_sublaplacian(f, grid).tobytes()


@pytest.mark.parametrize("block", [1, 3 * 8 * 7, 5 * 8 * 7])
def test_sublaplacian_is_bitwise_the_slice_stencil_in_any_blocks(block, rng,
                                                                  monkeypatch):
    # (40, 6, 5) has x-slabs of 8 * 7 padded cells: one, three and five slabs
    # per block, the last block short in the first two cases
    monkeypatch.setattr(fdoracle, "_BLOCK", block)
    grid = SpatialGrid((3.0, 2.0, 4.0), (40, 6, 5))
    for kind in ("complex", "faces"):
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
    nxt = step_leapfrog(u, u, 0.01, 0.0, 0.0, lap)
    inner = (slice(2, -2),) * 3
    assert np.allclose(nxt[inner], u[inner], atol=1e-12)


def leapfrog_formula(u, u_prev, dt, b, m, lap, source=None):
    rhs = lap - m * u
    if source is not None:
        rhs = rhs + source
    denom = 1.0 + 0.5 * b * dt
    return (2.0 * u - (1.0 - 0.5 * b * dt) * u_prev + dt * dt * rhs) / denom


def energy_formula(u, u_next, dt, m, grid, lap):
    vol = grid.cell_volume
    kin = 0.5 * np.sum(np.abs((u_next - u) / dt) ** 2) * vol
    pot = 0.5 * np.real(np.sum(np.conj(-lap + m * u) * u_next)) * vol
    return float(kin + pot)


def random_levels(shape, rng):
    return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(4)]


@pytest.mark.parametrize("levels", ["complex", "real-u", "real"])
@pytest.mark.parametrize("with_source", [False, True])
def test_step_leapfrog_is_bitwise_the_formula(levels, with_source, box, rng):
    u, u_prev, lap, source = random_levels(box.shape, rng)
    if levels != "complex":
        u = u.real.copy()
    if levels == "real":
        u_prev = u_prev.real.copy()
    source = source if with_source else None
    got = step_leapfrog(u, u_prev, 0.013, 2.0, 2.0, lap, source)
    want = leapfrog_formula(u, u_prev, 0.013, 2.0, 2.0, lap, source)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("levels", ["complex", "real-u", "real", "real-lap"])
def test_staggered_energy_is_bitwise_the_formula(levels, box, rng):
    u, u_next, lap, _ = random_levels(box.shape, rng)
    if levels in ("real-u", "real"):
        u = u.real.copy()
    if levels == "real":
        u_next = u_next.real.copy()
    if levels == "real-lap":
        lap = lap.real.copy()
    got = staggered_energy(u, u_next, 0.013, 2.0, box, lap)
    assert got == energy_formula(u, u_next, 0.013, 2.0, box, lap)


def test_fd_kernels_stay_within_their_scratch(synth_box, rng):
    # tracemalloc peaks in complex grid arrays, Python objects included:
    # the slice stencil, the step and the energy as one-line formulas
    # measure 3.4, 3.0 and 2.0
    u, u_prev, lap, source = random_levels(synth_box.shape, rng)
    kernels = {
        "stencil": (lambda: apply_sublaplacian(u, synth_box), 3.0),
        "step": (lambda: step_leapfrog(u, u_prev, 0.01, 2.0, 2.0, lap, source), 2.01),
        "energy": (lambda: staggered_energy(u, u_prev, 0.01, 2.0, synth_box, lap), 1.51),
    }
    for name, (kernel, bound) in kernels.items():
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / u.nbytes <= bound, name


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
    e = staggered_energy(u, u, 0.01, 0.5, box, apply_sublaplacian(u, box))
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


def assert_matches_written_out_loop(share_stencil):
    """run_leapfrog against the scheme written out, with every level wrapped
    for boundary_decay and |u| formed for each of L2 and the flux; the step
    and the energy share one stencil, or each computes it afresh."""
    box = SpatialGrid((3.0, 3.0, 3.0), (16, 14, 12))
    b, m = 1.5, 0.8
    solution, velocity, source = mms_fields(box, b, m, sigma=0.8)
    u0, v0 = SpatialField(box, solution(0.0)), SpatialField(box, velocity(0.0))
    dt, steps, every = cfl_limit(box, 0.35), 9, 4
    res = run_leapfrog(u0, v0, dt, steps, b, m, source_fn=source,
                       snapshot_every=every)
    vol = box.cell_volume
    u = u0.samples.copy()
    acc0 = (apply_sublaplacian(u, box) - m * u - b * v0.samples
            + source(0.0))
    u_prev = u - dt * v0.samples + 0.5 * dt * dt * acc0
    l2 = [np.sqrt(np.sum(np.abs(u) ** 2) * vol)]
    energy, snaps = [], [u.copy()]
    flux = SpatialField(box, u).boundary_decay()
    for j in range(steps):
        lap = apply_sublaplacian(u, box)
        u_next = step_leapfrog(u, u_prev, dt, b, m, lap, source(j * dt))
        if not share_stencil:
            lap = apply_sublaplacian(u, box)
        energy.append(staggered_energy(u, u_next, dt, m, box, lap))
        u_prev, u = u, u_next
        l2.append(np.sqrt(np.sum(np.abs(u) ** 2) * vol))
        flux = max(flux, SpatialField(box, u).boundary_decay())
        if (j + 1) % every == 0 or j + 1 == steps:
            snaps.append(u.copy())
    assert flux > 0
    assert res.boundary_flux == flux
    assert np.array_equal(res.l2_history, np.array(l2))
    assert np.array_equal(res.energy_history, np.array(energy))
    assert len(res.snapshots) == len(snaps)
    for got, want in zip(res.snapshots, snaps):
        assert np.array_equal(got.samples, want)


def test_run_leapfrog_matches_steps_without_shared_stencil():
    assert_matches_written_out_loop(share_stencil=False)


def test_run_leapfrog_matches_the_loop_that_wraps_twice_per_step():
    assert_matches_written_out_loop(share_stencil=True)


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
    report = compare_with_spectral(traj, fd, synth_box)
    assert isinstance(report, ComparisonReport)
    assert report.passed
    assert np.allclose(report.discrepancies, 0.0)
    assert report.max_discrepancy == 0.0
    assert report.sample_times.size == 2


def test_compare_with_spectral_requires_matching_times(calibrated_grid, synth_box):
    traj, fd = zero_comparison_inputs(calibrated_grid, synth_box)
    shifted = LeapfrogResult(fd.times, fd.snapshots,
                             np.array([0.531, 0.717]), fd.l2_history,
                             fd.energy_history, 0.0)
    with pytest.raises(ValueError):
        compare_with_spectral(traj, shifted, synth_box)


def test_compare_with_spectral_rejects_snapshots_on_another_grid(
        calibrated_grid, synth_box):
    # the fd snapshots share the shape of the comparison grid, not its box
    traj, fd = zero_comparison_inputs(calibrated_grid, synth_box)
    wider = SpatialGrid((6.0, 6.0, 9.0), synth_box.shape)
    with pytest.raises(ValueError, match="different grids"):
        compare_with_spectral(traj, fd, wider)
