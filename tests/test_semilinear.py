"""Nonlinearity plumbing, Z norms, Duhamel quadrature, and Picard iteration."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from subwave.abelian import (
    AbelianCoefficients,
    AbelianField,
    AbelianGrid,
    abelian_forward,
    abelian_from_function,
    abelian_homogeneous_norm,
    abelian_l2_norm,
    abelian_sobolev_norm,
    symbol_on_grid,
)
from subwave.propagator import (
    DampedModeParams,
    LinearTrajectory,
    Regime,
    classify_regime,
    decay_rate,
    evolve_linear,
    propagate_mode,
)
from subwave import propagator, semilinear
from subwave.semilinear import (
    GeneralNonlinearity,
    PicardStatus,
    PowerNonlinearity,
    ZNormConfig,
    apply_nonlinearity,
    check_admissible,
    duhamel_step,
    find_epsilon0,
    picard_solve,
    verify_semilinear_decay,
    z_norm,
)
from subwave.spectral import (
    AbelianSymbol,
    SpectralField,
    SubLaplacianSymbol,
    build_grid,
    homogeneous_sobolev_norm,
    l2_norm,
    sobolev_norm,
)
from subwave.transform import SpatialGrid, forward_transform, from_function

from conftest import packet


# --------------------------------------------------------------------------
# nonlinearity objects and admissibility


def test_power_nonlinearity():
    nl = PowerNonlinearity(2.0, 3.0)
    u = np.array([1.0 + 0.0j, -2.0, 0.5j])
    out = nl.evaluate(u)
    assert np.allclose(out, 2.0 * np.abs(u) ** 2 * u)
    with pytest.raises(ValueError):
        PowerNonlinearity(1.0, 1.0)


def test_general_nonlinearity_validation():
    with pytest.raises(ValueError, match="callable"):
        GeneralNonlinearity("not-a-function", 2.0)
    with pytest.raises(ValueError, match="p > 1"):
        GeneralNonlinearity(lambda U: U[0], 1.0)
    with pytest.raises(ValueError, match="lipschitz"):
        GeneralNonlinearity(lambda U: U[0], 2.0, lipschitz=0.0)


def test_admissibility_heisenberg():
    result = check_admissible(2, n=1)
    assert result.admissible and result.bound == Fraction(2)
    assert check_admissible(Fraction(2, 1), n=1).admissible
    assert not check_admissible(Fraction(201, 100), n=1).admissible
    assert check_admissible(Fraction(3, 2), n=2).admissible
    assert not check_admissible(Fraction(8, 5), n=2).admissible
    assert check_admissible(Fraction(3, 2), n=2).bound == Fraction(3, 2)


def test_admissibility_graded():
    res = check_admissible(3, Q=3)
    assert res.admissible and res.bound == Fraction(3)
    assert not check_admissible(Fraction(7, 2), Q=3).admissible
    assert check_admissible(2, Q=4).admissible
    assert check_admissible(Fraction(5, 3), Q=5).admissible
    assert not check_admissible(Fraction(51, 30), Q=5).admissible


def test_admissibility_validation():
    with pytest.raises(ValueError, match="exactly one"):
        check_admissible(2, n=1, Q=4)
    with pytest.raises(ValueError, match="exactly one"):
        check_admissible(2)
    with pytest.raises(ValueError, match="p > 1"):
        check_admissible(1, n=1)
    with pytest.raises(ValueError, match="Q >= 3"):
        check_admissible(2, Q=2)
    with pytest.raises(ValueError, match="n must be"):
        check_admissible(2, n=0)


# --------------------------------------------------------------------------
# Z norm


def test_znorm_weight_value():
    cfg = ZNormConfig(delta=1.0, sample_times=(0.0, 3.0))
    assert cfg.weight(3.0) == pytest.approx(0.5 * np.exp(3.0), rel=1e-12)
    assert cfg.weight(0.0) == 1.0


def test_znorm_validation():
    with pytest.raises(ValueError, match="delta"):
        ZNormConfig(delta=0.0, sample_times=(0.0, 1.0))
    with pytest.raises(ValueError, match="two sample times"):
        ZNormConfig(delta=1.0, sample_times=(0.0,))
    with pytest.raises(ValueError, match="increasing"):
        ZNormConfig(delta=1.0, sample_times=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="non-negative"):
        ZNormConfig(delta=1.0, sample_times=(-1.0, 1.0))


def test_znorm_single_mode_by_hand():
    grid = build_grid(0.3, 4.0, 16, 9.0, n=1)
    sym = SubLaplacianSymbol(power=1)
    q, k, el = 2, 3, 1
    coeffs = np.zeros(grid.field_shape(), dtype=complex)
    coeffs[q, k, el] = 0.5 - 0.1j
    u = SpectralField(grid, coeffs)
    zero = SpectralField.zeros(grid)
    times = np.array([0.0, 1.0])
    traj = LinearTrajectory(times, [u, u], [zero, zero], 1.0, 0.0)
    cfg = ZNormConfig(delta=0.3, sample_times=(0.0, 1.0))
    amp = abs(coeffs[q, k, el]) * np.sqrt(grid.weights[q])
    lam_mu = abs(grid.lambda_nodes[q]) * (2 * k + 1)
    per_time = amp * (1.0 + np.sqrt(lam_mu))  # L2 plus R^{1/2} seminorm
    expected = max(cfg.weight(t) * per_time for t in times)
    assert z_norm(traj, cfg, sym) == pytest.approx(expected, rel=1e-12)


def test_znorm_abelian_requires_provider(rng):
    grid = AbelianGrid((2.0,), (16,))
    c = abelian_forward(AbelianField(grid, rng.normal(size=16)))
    times = np.array([0.0, 1.0])
    traj = LinearTrajectory(times, [c, c], [c, c], 1.0, 0.0)
    cfg = ZNormConfig(delta=0.5, sample_times=(0.0, 1.0))
    with pytest.raises(ValueError, match="provider"):
        z_norm(traj, cfg)
    sym = AbelianSymbol([1.0], order=2)
    assert z_norm(traj, cfg, sym) > 0


# --------------------------------------------------------------------------
# Duhamel quadrature


def single_mode_history(grid, value, times):
    coeffs = np.zeros(grid.field_shape(), dtype=complex)
    coeffs[0, 0, 0] = value
    f = SpectralField(grid, coeffs)
    return LinearTrajectory(np.asarray(times), [f] * len(times),
                            [SpectralField.zeros(grid)] * len(times), 1.0, 0.0)


def test_duhamel_step_constant_source():
    grid = build_grid(0.5, 2.0, 4, 3.0, n=1)
    sym = SubLaplacianSymbol(power=1)
    b, m = 1.3, 0.7
    g = 0.6
    times = np.linspace(0.0, 2.0, 81)
    hist = single_mode_history(grid, g, times)
    out = duhamel_step(hist, b, m, sym, 2.0)
    total = abs(grid.lambda_nodes[0]) * 1.0 + m
    a0, _ = propagate_mode(DampedModeParams(b, m, total - m), 1.0, 0.0, 2.0)
    closed = (g / total) * (1.0 - a0)
    got = out.field.coefficients[0, 0, 0]
    assert got == pytest.approx(closed, rel=2e-4)
    assert np.isfinite(out.richardson_error)
    assert out.richardson_error < 5e-4
    finer = duhamel_step(single_mode_history(grid, g, np.linspace(0, 2, 161)),
                         b, m, sym, 2.0)
    fine_err = abs(finer.field.coefficients[0, 0, 0] - closed)
    coarse_err = abs(got - closed)
    # composite trapezoid halves the step: error drops about fourfold
    assert coarse_err / max(fine_err, 1e-18) == pytest.approx(4.0, rel=0.3)
    # stride 2 is the same quadrature on every second sample
    strided = duhamel_step(hist, b, m, sym, 2.0, stride=2)
    thinned = duhamel_step(single_mode_history(grid, g, times[::2]), b, m, sym, 2.0)
    assert strided.field.coefficients[0, 0, 0] == pytest.approx(
        thinned.field.coefficients[0, 0, 0], rel=1e-12)


def test_duhamel_step_validation():
    grid = build_grid(0.5, 2.0, 4, 3.0, n=1)
    sym = SubLaplacianSymbol(power=1)
    hist = single_mode_history(grid, 1.0, [0.0, 0.3, 0.9])
    with pytest.raises(ValueError, match="uniform"):
        duhamel_step(hist, 1.0, 0.0, sym, 0.9)
    hist = single_mode_history(grid, 1.0, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="grid"):
        duhamel_step(hist, 1.0, 0.0, sym, 0.77)
    # on the history grid but not on every second sample
    with pytest.raises(ValueError, match=r"time 0\.5 .*stride 2"):
        duhamel_step(hist, 1.0, 0.0, sym, 0.5, stride=2)


def direct_trapezoid(sources, times, b, m, omega2, idx, stride):
    """O(H^2) reference: the composite-trapezoid sum at sample idx, every
    lag factor evaluated by propagate_mode, one mode at a time."""
    nodes = np.arange(0, idx + 1, stride)
    hh = (times[1] - times[0]) * stride
    w = np.full(nodes.size, hh)
    w[[0, -1]] = 0.5 * hh
    src = np.array([sources[j] for j in nodes])
    val = np.zeros(src.shape[1:], dtype=complex)
    der = np.zeros_like(val)
    for mode in np.ndindex(val.shape):
        p = DampedModeParams(b, m, float(omega2[mode]))
        a1, d1 = propagate_mode(p, 0.0, 1.0, times[idx] - times[nodes])
        at = (slice(None),) + mode
        val[mode] = np.sum(w * a1 * src[at])
        der[mode] = np.sum(w * d1 * src[at])
    return val, der


@pytest.mark.parametrize("b, m, regimes", [
    (1.3, 0.7, {Regime.UNDERDAMPED}),
    # |xi| < 2 overdamped, |xi| = 2 critical, |xi| > 2 underdamped
    (4.0, 0.0, set(Regime)),
    # xi = 0 exactly critical, every other mode underdamped
    (2.0, 1.0, {Regime.CRITICAL, Regime.UNDERDAMPED}),
])
def test_duhamel_sweep_matches_direct_trapezoid_sum(b, m, regimes, rng):
    # half width pi puts the frequencies on the integers
    grid = AbelianGrid((np.pi,) * 3, (8, 8, 8))
    sym = AbelianSymbol(np.ones(3), order=2, radial=True)
    omega2 = symbol_on_grid(grid, sym)
    assert {classify_regime(DampedModeParams(b, m, float(w)))
            for w in omega2.ravel()} == regimes
    times = np.linspace(0.0, 2.0, 33)
    sources = [rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
               for _ in times]
    fields = [AbelianCoefficients(grid, s) for s in sources]
    hist = LinearTrajectory(times, fields, fields, b, m)

    def rel(got, ref):
        return np.linalg.norm(got - ref) / np.linalg.norm(ref)

    for stride in (1, 2):
        out = duhamel_step(hist, b, m, sym, 2.0, stride=stride)
        val, der = direct_trapezoid(sources, times, b, m, omega2, 32, stride)
        coarse, _ = direct_trapezoid(sources, times, b, m, omega2, 32, 2 * stride)
        assert rel(out.field.values, val) <= 1e-12
        assert rel(out.derivative.values, der) <= 1e-12
        expected = abelian_l2_norm(AbelianCoefficients(grid, val - coarse)) / 3.0
        assert out.richardson_error == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------------
# nonlinearity application on the spectral side


def test_apply_nonlinearity_scales_with_mu(calibrated_grid, synth_box):
    f = from_function(synth_box, packet(scale=1e-2))
    u = forward_transform(f, calibrated_grid, boundary_tol=None)
    # The gate is off: the coarse session grid leaves synthesis ringing on the
    # tau faces, and this test is about linearity in mu, not box vetting.
    one = apply_nonlinearity(u, PowerNonlinearity(1.0, 2.0), synth_box,
                             boundary_limit=None)
    two = apply_nonlinearity(u, PowerNonlinearity(2.0, 2.0), synth_box,
                             boundary_limit=None)
    assert np.allclose(two.coefficients, 2.0 * one.coefficients, rtol=1e-12)
    zero = apply_nonlinearity(SpectralField.zeros(calibrated_grid),
                              PowerNonlinearity(1.0, 2.0), synth_box,
                              boundary_limit=None)
    assert l2_norm(zero) == 0.0


def test_apply_nonlinearity_boundary_gate(calibrated_grid, synth_box):
    tight = SpatialGrid((1.5, 1.5, 2.0), (16, 16, 16))
    f = from_function(synth_box, packet())
    u = forward_transform(f, calibrated_grid, boundary_tol=None)
    with pytest.raises(ValueError, match="boundary decay"):
        apply_nonlinearity(u, PowerNonlinearity(1.0, 2.0), tight)
    # a caller that has vetted the box can disable the gate
    out = apply_nonlinearity(u, PowerNonlinearity(1.0, 2.0), tight,
                             boundary_limit=None)
    assert np.all(np.isfinite(out.coefficients))


def test_general_nonlinearity_tuple_length(rng):
    recorded = []

    def probe(U):
        recorded.append(len(U))
        return np.abs(U[0]) * U[0]

    grid = AbelianGrid((4.0,) * 3, (12, 12, 12))
    sym4 = AbelianSymbol(np.ones(3), order=4, radial=True)
    u0 = abelian_forward(abelian_from_function(
        grid, lambda x, y, z: 1e-3 * np.exp(-(x * x + y * y + z * z))))
    zero = abelian_forward(AbelianField(grid, np.zeros(grid.shape)))
    cfg = ZNormConfig(delta=0.5 * decay_rate(2.0, 1.0),
                      sample_times=tuple(np.linspace(0.0, 1.0, 5)))
    nl = GeneralNonlinearity(probe, 2.0)
    picard_solve(u0, zero, nl, 2.0, 1.0, sym4, cfg, tol=1e-6, max_iter=2)
    assert recorded and set(recorded) == {2}  # nu=4 passes (u, R^{1/4}u)

    recorded.clear()
    sym2 = AbelianSymbol(np.ones(3), order=2, radial=True)
    picard_solve(u0, zero, nl, 2.0, 1.0, sym2, cfg, tol=1e-6, max_iter=2)
    assert recorded and set(recorded) == {1}


# --------------------------------------------------------------------------
# Picard iteration


def abelian_setup(scale, grid=None):
    grid = grid or AbelianGrid((6.0,) * 3, (16, 16, 16))
    sym = AbelianSymbol(np.ones(3), order=2, radial=True)
    u0 = abelian_forward(abelian_from_function(
        grid, lambda x, y, z: scale * np.exp(-(x * x + y * y + z * z) / 2.0)))
    u1 = abelian_forward(AbelianField(grid, np.zeros(grid.shape)))
    return grid, sym, u0, u1


@pytest.mark.parametrize("backend", ["heisenberg", "abelian"])
def test_picard_linear_matches_evolve_linear_exactly(backend, calibrated_grid):
    # with no nonlinearity the iteration must return the linear trajectory
    rng = np.random.default_rng(8)
    if backend == "heisenberg":
        shape = calibrated_grid.field_shape()
        u0 = SpectralField(calibrated_grid, rng.normal(size=shape) * 1e-2)
        u1 = SpectralField(calibrated_grid, rng.normal(size=shape) * 1e-2)
        sym = SubLaplacianSymbol(power=1)
    else:
        grid, sym, u0, _ = abelian_setup(1e-3)
        u1 = abelian_forward(AbelianField(grid, rng.normal(size=grid.shape) * 1e-3))
    cfg = ZNormConfig(delta=0.9, sample_times=tuple(np.linspace(0.0, 4.0, 9)))
    traj, diag = picard_solve(u0, u1, None, 2.0, 1.0, sym, cfg)
    assert diag.status is PicardStatus.CONVERGED
    assert diag.iterations == 1
    lin = evolve_linear(u0, u1, 2.0, 1.0, sym, cfg.sample_times)
    model = propagator._Model(u0, sym, 2.0, 1.0)
    for f, g in zip(traj.fields + traj.derivatives, lin.fields + lin.derivatives):
        assert np.array_equal(model.unwrap(f), model.unwrap(g))


@pytest.mark.parametrize("backend", ["heisenberg", "abelian"])
def test_cauchy_data_on_two_grids_is_rejected(backend):
    if backend == "heisenberg":
        sym = SubLaplacianSymbol(power=1)
        u0 = SpectralField.zeros(build_grid(0.3, 4.0, 8, 7.0))
        u1 = SpectralField.zeros(build_grid(0.5, 4.0, 8, 7.0))
    else:
        _, sym, u0, _ = abelian_setup(1.0, AbelianGrid((6.0,) * 3, (8, 8, 8)))
        u1 = abelian_setup(1.0, AbelianGrid((3.0,) * 3, (8, 8, 8)))[2]
    cfg = ZNormConfig(delta=0.5, sample_times=(0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="different grids"):
        picard_solve(u0, u1, None, 2.0, 1.0, sym, cfg)
    with pytest.raises(ValueError, match="different grids"):
        evolve_linear(u0, u1, 2.0, 1.0, sym, cfg.sample_times)


def test_picard_linear_abelian_matches_propagate_mode(rng):
    # half width pi puts the frequencies on the integers, so with b = 2 and
    # m = 0 the modes |xi| = 0, 1, > 1 cover all three damping regimes
    grid = AbelianGrid((np.pi, np.pi), (8, 8))
    sym = AbelianSymbol(np.ones(2), order=2, radial=True)
    b, m = 2.0, 0.0
    u0 = abelian_forward(AbelianField(grid, rng.normal(size=grid.shape)))
    u1 = abelian_forward(AbelianField(grid, rng.normal(size=grid.shape)))
    cfg = ZNormConfig(delta=0.5, sample_times=tuple(np.linspace(0.0, 3.0, 7)))
    traj, _ = picard_solve(u0, u1, None, b, m, sym, cfg)
    vals = np.array([f.values for f in traj.fields])
    ders = np.array([d.values for d in traj.derivatives])
    omega2 = symbol_on_grid(grid, sym)
    regimes = set()
    for mode in np.ndindex(grid.shape):
        p = DampedModeParams(b, m, float(omega2[mode]))
        regimes.add(classify_regime(p))
        val, der = propagate_mode(p, u0.values[mode], u1.values[mode], traj.times)
        scale = abs(u0.values[mode]) + abs(u1.values[mode])
        at = (slice(None),) + mode
        assert np.max(np.abs(vals[at] - val)) <= 1e-14 * scale
        assert np.max(np.abs(ders[at] - der)) <= 1e-14 * scale
    assert regimes == set(Regime)


@pytest.mark.parametrize("backend", ["heisenberg", "abelian"])
def test_znorm_of_linear_picard_trajectory_is_its_first_z_norm(backend, calibrated_grid):
    if backend == "heisenberg":
        shape = calibrated_grid.field_shape()
        gen = np.random.default_rng(8)
        u0 = SpectralField(calibrated_grid, gen.normal(size=shape) * 1e-2)
        u1 = SpectralField(calibrated_grid, gen.normal(size=shape) * 1e-2)
        sym = SubLaplacianSymbol(power=1)
    else:
        _, sym, u0, u1 = abelian_setup(1e-3)
    cfg = ZNormConfig(delta=0.9, sample_times=tuple(np.linspace(0.0, 4.0, 9)))
    traj, diag = picard_solve(u0, u1, None, 2.0, 1.0, sym, cfg)
    assert z_norm(traj, cfg, sym) == diag.z_norms[0]


def test_picard_small_data_converges():
    grid, sym, u0, u1 = abelian_setup(1e-3)
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 1.0),
                      sample_times=tuple(np.linspace(0.0, 5.0, 21)))
    traj, diag = picard_solve(u0, u1, PowerNonlinearity(1.0, 2.0),
                              2.0, 1.0, sym, cfg, tol=1e-10)
    assert diag.status is PicardStatus.CONVERGED
    assert all(r < 1.0 for r in diag.ratios)
    assert diag.increments == sorted(diag.increments, reverse=True)
    assert diag.threshold == pytest.approx(4.0 * diag.z_norms[0], rel=1e-12)
    assert diag.data_norm > 0 and diag.c1 > 0
    report = verify_semilinear_decay(traj, 2.0, 1.0, sym)
    assert report.passed and not report.trivial
    assert all(s < 0 for s in report.slopes.values())


def test_picard_factor_work_is_linear_in_samples(monkeypatch):
    # the Duhamel quadrature evaluates the one-step propagator once per
    # sweep; per-lag factor tables would make 2H kernel calls
    calls = []
    kernel = propagator._mode_factors

    def counting(total, b, t):
        calls.append(t)
        return kernel(total, b, t)

    monkeypatch.setattr(propagator, "_mode_factors", counting)
    _, sym, u0, u1 = abelian_setup(1e-3)
    H = 41
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 1.0),
                      sample_times=tuple(np.linspace(0.0, 5.0, H)))
    _, diag = picard_solve(u0, u1, PowerNonlinearity(1.0, 2.0),
                           2.0, 1.0, sym, cfg, tol=1e-10)
    assert diag.status is PicardStatus.CONVERGED
    assert np.isfinite(diag.quadrature_error)
    assert len(calls) <= H + diag.iterations + 2


def list_based_picard(u0, u1, nl, b, m, sym, cfg, tol):
    """Reference: the Picard loop that holds every sweep's sources, both
    iterates and both difference lists, with each Z norm taken from the
    public abelian norms."""
    grid = u0.grid
    model = semilinear._make_model(u0, sym, b, m)
    times = np.asarray(cfg.sample_times)
    h = times[1] - times[0]

    def l2(c):
        return abelian_l2_norm(AbelianCoefficients(grid, c))

    def znorm_of(vals, ders):
        best = 0.0
        for t, v, d in zip(times, vals, ders):
            total = l2(v) + l2(d)
            for j in cfg.fractional_orders:
                total += abelian_homogeneous_norm(AbelianCoefficients(grid, v), sym, j)
            best = max(best, cfg.weight(t) * total)
        return best

    def source_sweep(vals):
        norms = [l2(v) for v in vals]
        return [model.nonlinearity(v, nl, strict=(nv >= 1e-2 * max(norms)))
                for v, nv in zip(vals, norms)]

    lin_val, lin_der = [], []
    for t in times:
        A0, A1, D0, D1 = model.factors(float(t))
        lin_val.append(A0 * u0.values + A1 * u1.values)
        lin_der.append(D0 * u0.values + D1 * u1.values)
    cur_val, cur_der = [v.copy() for v in lin_val], [d.copy() for d in lin_der]
    z_norms, incs = [znorm_of(lin_val, lin_der)], []
    for _ in range(25):
        new_val, new_der = [], []
        sweep = semilinear._duhamel_sweep(model, h, source_sweep(cur_val))
        for lv, ld, (dv, dd) in zip(lin_val, lin_der, sweep):
            new_val.append(lv + dv)
            new_der.append(ld + dd)
        incs.append(znorm_of([a - c for a, c in zip(new_val, cur_val)],
                             [a - c for a, c in zip(new_der, cur_der)]))
        z_norms.append(znorm_of(new_val, new_der))
        cur_val, cur_der = new_val, new_der
        if incs[-1] <= tol * z_norms[-1]:
            break
    flipped = [-s if k % 2 else s for k, s in enumerate(source_sweep(cur_val))]
    val, _ = list(semilinear._duhamel_sweep(model, h, flipped))[-1]
    return cur_val, cur_der, z_norms, incs, l2(val) / 3.0


def order4_setup(scale, H):
    grid = AbelianGrid((6.0,) * 3, (16, 16, 16))
    sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    u0 = abelian_forward(abelian_from_function(
        grid, lambda x, y, z: scale * np.exp(-(x * x + y * y + z * z) / 2.0)))
    u1 = AbelianCoefficients(grid, 0.3 * u0.values)
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 2.0),
                      sample_times=tuple(np.linspace(0.0, 6.0, H)))
    return sym, u0, u1, cfg


@pytest.mark.parametrize("nl", [
    PowerNonlinearity(1.0, 2.0),
    # the tuple (u, R^{1/4} u) of the order-4 symbol
    GeneralNonlinearity(lambda U: np.abs(U[0]) * U[0] + 0.5 * np.abs(U[1]) * U[1], 2.0),
], ids=["power", "general"])
def test_streaming_picard_matches_the_list_based_loop(nl):
    sym, u0, u1, cfg = order4_setup(0.2, 25)
    traj, diag = picard_solve(u0, u1, nl, 2.0, 2.0, sym, cfg, tol=1e-10)
    vals, ders, z_norms, incs, quad = list_based_picard(u0, u1, nl, 2.0, 2.0,
                                                        sym, cfg, tol=1e-10)
    assert diag.status is PicardStatus.CONVERGED
    assert diag.iterations == len(incs) >= 3
    assert diag.increments[0] > 1e-3 * diag.z_norms[-1]  # f(u) is not negligible
    for got, want in zip(traj.fields, vals):
        assert np.linalg.norm(got.values - want) <= 1e-13 * np.linalg.norm(want)
    for got, want in zip(traj.derivatives, ders):
        assert np.linalg.norm(got.values - want) <= 1e-13 * np.linalg.norm(want)
    assert diag.z_norms == pytest.approx(z_norms, rel=1e-12, abs=0)
    assert diag.ratios == pytest.approx([b / a for a, b in zip(incs, incs[1:])],
                                        rel=1e-12, abs=0)
    assert diag.quadrature_error == pytest.approx(quad, rel=1e-12, abs=0)
    assert diag.increments == pytest.approx(incs, rel=0,
                                            abs=1e-12 * diag.z_norms[-1])


def test_picard_holds_the_linear_part_and_one_iterate():
    # 4H coefficient arrays: values and derivatives of the linear part and
    # of the iterate; sources and differences are made one node at a time
    sym, u0, u1, cfg = order4_setup(0.2, 41)
    nbytes = u0.values.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, diag = picard_solve(u0, u1, PowerNonlinearity(1.0, 2.0), 2.0, 2.0,
                               sym, cfg, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert diag.status is PicardStatus.CONVERGED and diag.iterations >= 3
    assert np.isfinite(diag.quadrature_error)
    assert peak <= 5 * 41 * nbytes


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 2.0])  # 2 = nu/2
def test_abelian_model_norms_match_the_public_norms(order, rng, calibrated_grid):
    # and, on the Heisenberg backend, the model's norms match the spectral ones
    grid = AbelianGrid((5.0,) * 3, (12, 12, 12))
    sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    c = (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    coeffs = AbelianCoefficients(grid, c)
    model = propagator._Model(coeffs, sym, 2.0, 1.0)
    assert model.l2(c) == pytest.approx(abelian_l2_norm(coeffs), rel=1e-14)
    assert model.sobolev(c, order) == pytest.approx(
        abelian_sobolev_norm(coeffs, sym, order, mass=1.0), rel=1e-14)
    assert model.frac(c, order) == pytest.approx(
        abelian_homogeneous_norm(coeffs, sym, order), rel=1e-14)

    shape = calibrated_grid.field_shape()
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    field = SpectralField(calibrated_grid, c)
    sub = SubLaplacianSymbol(power=1)
    model = propagator._Model(field, sub, 2.0, 1.0)
    assert model.l2(c) == pytest.approx(l2_norm(field), rel=1e-14)
    assert model.sobolev(c, order) == pytest.approx(
        sobolev_norm(field, sub, order), rel=1e-14)
    assert model.frac(c, order) == pytest.approx(
        homogeneous_sobolev_norm(field, sub, order), rel=1e-14)


def test_abelian_model_norms_at_the_zero_frequency():
    grid = AbelianGrid((5.0,) * 3, (12, 12, 12))
    sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    c = np.zeros(grid.shape, dtype=complex)
    c[0, 0, 0] = 2.0  # xi = 0
    model = semilinear._make_model(AbelianCoefficients(grid, c), sym, 2.0, 1.0)
    assert model.frac(c, 1) == 0.0
    assert model.frac(c, 0) == model.l2(c) > 0
    assert model.sobolev(c, 1) == model.l2(c)  # (1 + 0)^s = 1
    with pytest.raises(ValueError, match="singular at xi = 0"):
        model.frac(c, -1)


def test_norm_multipliers_are_built_once_per_key(monkeypatch):
    built = []
    helper = propagator._norm_multiplier

    def counting(vals, nu, order, mass=None):
        built.append((order, mass))
        return helper(vals, nu, order, mass)

    monkeypatch.setattr(propagator, "_norm_multiplier", counting)
    sym, u0, u1, cfg = order4_setup(0.2, 25)
    nl = GeneralNonlinearity(lambda U: np.abs(U[0]) * U[1], 2.0)
    _, diag = picard_solve(u0, u1, nl, 2.0, 2.0, sym, cfg, tol=1e-10)
    assert diag.iterations >= 3 and np.isfinite(diag.quadrature_error)
    # data norm (nu/2, mass 1), Z norm R^{2/nu}, tuple factor R^{1/nu}
    assert sorted(built, key=str) == sorted([(2.0, 1.0), (1.0, None), (0.5, None)],
                                            key=str)


def test_picard_validation():
    grid, sym, u0, u1 = abelian_setup(1e-3)
    cfg = ZNormConfig(delta=0.5, sample_times=(0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="damping"):
        picard_solve(u0, u1, None, 0.0, 1.0, sym, cfg)
    with pytest.raises(ValueError, match="mass"):
        picard_solve(u0, u1, None, 1.0, -1.0, sym, cfg)
    bad = ZNormConfig(delta=0.5, sample_times=(0.5, 1.0))
    with pytest.raises(ValueError, match="start at t = 0"):
        picard_solve(u0, u1, None, 1.0, 1.0, sym, bad)


def test_picard_heisenberg_needs_synthesis_grid(calibrated_grid):
    u0 = SpectralField.zeros(calibrated_grid)
    cfg = ZNormConfig(delta=0.5, sample_times=(0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="synthesis"):
        picard_solve(u0, u0, PowerNonlinearity(1.0, 2.0), 1.0, 1.0,
                     SubLaplacianSymbol(power=1), cfg)


# --------------------------------------------------------------------------
# epsilon_0 bisection (exercised on a stub so the logic is isolated)


class StubTemplate:
    def __init__(self, threshold, max_iter_band=0.0):
        self.threshold = threshold
        self.max_iter_band = max_iter_band
        self.calls = []

    def __call__(self, eps):
        self.calls.append(eps)
        if eps <= self.threshold:
            return PicardStatus.CONVERGED
        if eps <= self.threshold + self.max_iter_band:
            return PicardStatus.MAX_ITER
        return PicardStatus.DIVERGED


def test_find_epsilon0_bisects():
    stub = StubTemplate(0.3)
    est = find_epsilon0(stub, (1e-3, 1.0), trials=12)
    assert est.epsilon0 <= 0.3 <= est.bracket[1]
    assert est.bracket[1] / est.epsilon0 < 1.02
    assert len(est.history) == 14
    assert est.width == pytest.approx(est.bracket[1] - est.bracket[0])


def test_find_epsilon0_counts_max_iter_as_failure():
    stub = StubTemplate(0.3, max_iter_band=0.5)
    est = find_epsilon0(stub, (1e-3, 1.0), trials=8)
    assert est.epsilon0 <= 0.3
    assert any(s is PicardStatus.MAX_ITER for _, s in est.history)


def test_find_epsilon0_validates_bracket():
    with pytest.raises(ValueError, match="0 < lo < hi"):
        find_epsilon0(StubTemplate(0.3), (1.0, 0.5))
    with pytest.raises(ValueError, match="did not converge"):
        find_epsilon0(StubTemplate(1e-6), (1e-3, 1.0))
    with pytest.raises(ValueError, match="converged; no transition"):
        find_epsilon0(StubTemplate(10.0), (1e-3, 1.0))


# --------------------------------------------------------------------------
# decay report on trivial data


def test_verify_semilinear_decay_trivial():
    grid, sym, _, u1 = abelian_setup(0.0)
    times = np.linspace(0.0, 3.0, 7)
    traj = LinearTrajectory(times, [u1] * 7, [u1] * 7, 2.0, 1.0)
    report = verify_semilinear_decay(traj, 2.0, 1.0, sym)
    assert report.trivial and report.passed


def test_picard_status_labels():
    assert PicardStatus.CONVERGED.value == "Converged"
    assert PicardStatus.DIVERGED.value == "Diverged"
    assert PicardStatus.MAX_ITER.value == "MaxIter"
