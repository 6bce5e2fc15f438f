"""Nonlinearity plumbing, Z norms, Duhamel quadrature, and Picard iteration."""

from collections import deque

import numpy as np
import pytest

from subwave.abelian import (
    AbelianCoefficients,
    AbelianField,
    AbelianGrid,
    abelian_forward,
    abelian_from_function,
)
from subwave.propagator import LinearTrajectory, decay_rate, evolve_linear
from subwave import propagator, semilinear
from subwave.semilinear import (
    GeneralNonlinearity,
    PicardStatus,
    PowerNonlinearity,
    ZNormConfig,
    apply_nonlinearity,
    picard_solve,
    verify_semilinear_decay,
)
from subwave.spectral import (
    AbelianSymbol,
    SpectralField,
    SubLaplacianSymbol,
    build_grid,
)
from subwave.transform import (SpatialGrid, calibrate_plancherel,
                              forward_transform, from_function,
                              synthesize_on_grid)

from conftest import packet, propagate_mode, traced_peak


# --------------------------------------------------------------------------
# nonlinearity objects


def test_power_nonlinearity():
    nl = PowerNonlinearity(2.0, 3.0)
    u = np.array([1.0 + 0.0j, -2.0, 0.5j])
    out = nl.evaluate(u)
    assert np.allclose(out, 2.0 * np.abs(u) ** 2 * u)
    with pytest.raises(ValueError):
        PowerNonlinearity(1.0, 1.0)


@pytest.mark.parametrize("mu,p", [(1, 2), (0.7 - 0.2j, 1.5), (2, 3), (1, 7 / 3),
                                  (1 + 0j, 2)])
def test_power_nonlinearity_is_bitwise_the_formula(mu, p, rng):
    u = rng.standard_normal((9, 10, 11)) + 1j * rng.standard_normal((9, 10, 11))
    u[0, 0, 0] = 0.0
    for samples in (u, u.real.copy()):
        got = PowerNonlinearity(mu, p).evaluate(samples)
        want = mu * np.abs(samples) ** (p - 1.0) * samples
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_general_nonlinearity_validation():
    with pytest.raises(ValueError, match="callable"):
        GeneralNonlinearity("not-a-function")


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
    for times in ((0.0, np.inf), (0.0, np.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            ZNormConfig(delta=1.0, sample_times=times)


def z_of(traj, cfg, provider=None):
    """Z norm of a trajectory, by the solver's own `_znorm_node`."""
    model = propagator._Model(traj.fields[0], provider, traj.b, traj.m)
    return max(semilinear._znorm_node(model, cfg, t, model.unwrap(f), model.unwrap(d))
               for t, f, d in zip(traj.times, traj.fields, traj.derivatives))


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
    assert z_of(traj, cfg, sym) == pytest.approx(expected, rel=1e-12)


def test_znorm_abelian_requires_provider(rng):
    grid = AbelianGrid((2.0,), (16,))
    c = abelian_forward(AbelianField(grid, rng.normal(size=16)))
    times = np.array([0.0, 1.0])
    traj = LinearTrajectory(times, [c, c], [c, c], 1.0, 0.0)
    cfg = ZNormConfig(delta=0.5, sample_times=(0.0, 1.0))
    with pytest.raises(ValueError, match="provider"):
        z_of(traj, cfg)
    sym = AbelianSymbol([1.0], order=2)
    assert z_of(traj, cfg, sym) > 0


# --------------------------------------------------------------------------
# Duhamel quadrature


def uniform_gaps(hh, H):
    """The gaps of H uniform nodes from t = 0, as the solver passes them."""
    return [0.0] + [hh] * (H - 1)


def listed(sources):
    """A `_history` source that hands out the listed sources in turn."""
    it = iter(sources)
    return lambda _: next(it)


def last_node(model, hh, sources):
    """(value, derivative) of the zero-start trapezoid Duhamel sweep of
    `_history` at its last node."""
    zero = np.zeros_like(sources[0])
    return deque(propagator._history(model, uniform_gaps(hh, len(sources)),
                                     (zero, zero), listed(sources)), maxlen=1)[0]


def richardson(model, hh, sources):
    it = iter(sources)
    nodes = semilinear._richardson(model, uniform_gaps(hh, len(sources)),
                                   np.zeros_like(sources[0]), lambda: next(it))
    return model.l2(deque(nodes, maxlen=1)[0][0]) / 3.0


def test_duhamel_sweep_constant_source():
    grid = build_grid(0.5, 2.0, 4, 3.0, n=1)
    b, m = 1.3, 0.7
    g = 0.6
    src = np.zeros(grid.field_shape(), dtype=complex)
    src[0, 0, 0] = g
    model = propagator._Model(SpectralField(grid, src),
                              SubLaplacianSymbol(power=1), b, m)
    val, _ = last_node(model, 2.0 / 80, [src] * 81)
    total = abs(grid.lambda_nodes[0]) * 1.0 + m
    a0, _ = propagate_mode(b, m, total - m, 1.0, 0.0, 2.0)
    closed = (g / total) * (1.0 - a0)
    got = val[0, 0, 0]
    assert got == pytest.approx(closed, rel=2e-4)
    estimate = richardson(model, 2.0 / 80, [src] * 81)
    assert np.isfinite(estimate)
    assert estimate < 5e-4
    fine, _ = last_node(model, 2.0 / 160, [src] * 161)
    fine_err = abs(fine[0, 0, 0] - closed)
    coarse_err = abs(got - closed)
    # composite trapezoid halves the step: error drops about fourfold
    assert coarse_err / max(fine_err, 1e-18) == pytest.approx(4.0, rel=0.3)


def damping_regimes(omega2, b, m):
    """The modes' regimes as the sign of Delta = omega2 + m - b^2/4: 1
    underdamped, -1 overdamped, 0 critical (the kernel's series band)."""
    delta = omega2 + m - 0.25 * b * b
    delta[np.abs(delta) < propagator._CRITICAL_BAND] = 0.0
    return {int(v) for v in np.sign(delta).ravel()}


def direct_trapezoid(sources, times, b, m, omega2, idx, stride):
    """O(H^2) reference: the composite-trapezoid sum at sample idx, every
    lag factor evaluated by the closed-form mode, one mode at a time."""
    nodes = np.arange(0, idx + 1, stride)
    hh = (times[1] - times[0]) * stride
    w = np.full(nodes.size, hh)
    w[[0, -1]] = 0.5 * hh
    src = np.array([sources[j] for j in nodes])
    val = np.zeros(src.shape[1:], dtype=complex)
    der = np.zeros_like(val)
    for mode in np.ndindex(val.shape):
        a1, d1 = propagate_mode(b, m, float(omega2[mode]), 0.0, 1.0,
                                times[idx] - times[nodes])
        at = (slice(None),) + mode
        val[mode] = np.sum(w * a1 * src[at])
        der[mode] = np.sum(w * d1 * src[at])
    return val, der


@pytest.mark.parametrize("b, m, regimes", [
    (1.3, 0.7, {1}),
    # |xi| < 2 overdamped, |xi| = 2 critical, |xi| > 2 underdamped
    (4.0, 0.0, {-1, 0, 1}),
    # xi = 0 exactly critical, every other mode underdamped
    (2.0, 1.0, {0, 1}),
])
def test_duhamel_sweep_matches_direct_trapezoid_sum(b, m, regimes, rng):
    # half width pi puts the frequencies on the integers
    grid = AbelianGrid((np.pi,) * 3, (8, 8, 8))
    sym = AbelianSymbol(np.ones(3), order=2, radial=True)
    omega2 = sym.values(grid)
    assert damping_regimes(omega2, b, m) == regimes
    times = np.linspace(0.0, 2.0, 33)
    sources = [rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
               for _ in times]
    model = propagator._Model(AbelianCoefficients(grid, sources[0]), sym, b, m)

    def rel(got, ref):
        return np.linalg.norm(got - ref) / np.linalg.norm(ref)

    for stride in (1, 2):
        hh = (times[1] - times[0]) * stride
        got_val, got_der = last_node(model, hh, sources[::stride])
        val, der = direct_trapezoid(sources, times, b, m, omega2, 32, stride)
        coarse, _ = direct_trapezoid(sources, times, b, m, omega2, 32, 2 * stride)
        assert rel(got_val, val) <= 1e-12
        assert rel(got_der, der) <= 1e-12
        expected = abelian_l2(grid, val - coarse) / 3.0
        estimate = richardson(model, hh, sources[::stride])
        assert estimate == pytest.approx(expected, rel=1e-12)


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
    assert not zero.coefficients.any()


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
    nl = GeneralNonlinearity(probe)
    picard_solve(u0, zero, nl, 2.0, 1.0, sym4, cfg)
    assert recorded and set(recorded) == {2}  # nu=4 passes (u, R^{1/4}u)

    recorded.clear()
    sym2 = AbelianSymbol(np.ones(3), order=2, radial=True)
    picard_solve(u0, zero, nl, 2.0, 1.0, sym2, cfg)
    assert recorded and set(recorded) == {1}


# U[-1] is R^{1/4} u on the order-4 abelian symbol and u on H^1
@pytest.mark.parametrize("nl", [
    PowerNonlinearity(1.0, 2.0),
    GeneralNonlinearity(lambda U: np.abs(U[0]) * U[-1]),
], ids=["power", "general"])
@pytest.mark.parametrize("backend", ["heisenberg", "abelian"])
def test_model_nonlinearity_maps_zero_to_zero(backend, nl, calibrated_grid,
                                              synth_box):
    # zero coefficients take the full path: synthesis or inverse FFT, the
    # pointwise map, analysis (the Heisenberg one signs some zeros negative)
    if backend == "heisenberg":
        zero, sym = SpectralField.zeros(calibrated_grid), SubLaplacianSymbol(1)
    else:
        grid = AbelianGrid((4.0,) * 3, (12, 12, 12))
        zero = AbelianCoefficients(grid, np.zeros(grid.shape, dtype=complex))
        sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    model = semilinear._make_model(zero, sym, 2.0, 1.0, synth_box)
    c = model.unwrap(zero)
    out = model.nonlinearity(c, nl)
    assert out.shape == c.shape and out.dtype == c.dtype and not out.any()


# --------------------------------------------------------------------------
# Picard iteration


def abelian_setup(scale, grid=None):
    grid = grid or AbelianGrid((6.0,) * 3, (16, 16, 16))
    sym = AbelianSymbol(np.ones(3), order=2, radial=True)
    u0 = abelian_forward(abelian_from_function(
        grid, lambda x, y, z: scale * np.exp(-(x * x + y * y + z * z) / 2.0)))
    u1 = abelian_forward(AbelianField(grid, np.zeros(grid.shape)))
    return grid, sym, u0, u1


@pytest.mark.parametrize("backend", ["heisenberg", "heisenberg-constant",
                                     "abelian"])
def test_cauchy_data_on_two_grids_is_rejected(backend):
    if backend.startswith("heisenberg"):
        sym = SubLaplacianSymbol(power=1)
        u0 = SpectralField.zeros(build_grid(0.3, 4.0, 8, 7.0))
        u1 = SpectralField.zeros(build_grid(0.5, 4.0, 8, 7.0))
        if backend == "heisenberg-constant":
            # a twin grid but for its Plancherel constant: accepted, u1's
            # norms would take u0's weights
            u1 = SpectralField.zeros(build_grid(0.3, 4.0, 8, 7.0))
            u1.grid.plancherel_constant = 2.0
    else:
        _, sym, u0, _ = abelian_setup(1.0, AbelianGrid((6.0,) * 3, (8, 8, 8)))
        u1 = abelian_setup(1.0, AbelianGrid((3.0,) * 3, (8, 8, 8)))[2]
    cfg = ZNormConfig(delta=0.5, sample_times=(0.0, 0.5, 1.0))
    # the model rejects u1 before picard_solve asks for a synthesis grid
    with pytest.raises(ValueError, match="different grids"):
        picard_solve(u0, u1, PowerNonlinearity(1.0, 2.0), 2.0, 1.0, sym, cfg)
    with pytest.raises(ValueError, match="different grids"):
        evolve_linear(u0, u1, 2.0, 1.0, sym, cfg.sample_times)


def test_evolve_linear_abelian_matches_propagate_mode(rng):
    # half width pi puts the frequencies on the integers, so with b = 2 and
    # m = 0 the modes |xi| = 0, 1, > 1 cover all three damping regimes; real
    # samples that are not even take the full layout, as complex ones do
    grid = AbelianGrid((np.pi, np.pi), (8, 8))
    sym = AbelianSymbol(np.ones(2), order=2, radial=True)
    b, m = 2.0, 0.0
    cfg = ZNormConfig(delta=0.5, sample_times=tuple(np.linspace(0.0, 3.0, 7)))

    def samples(imag):
        x = rng.normal(size=grid.shape)
        return x + 1j * rng.normal(size=grid.shape) if imag else x

    omega2 = sym.values(grid)
    for imag in (False, True):
        u0, u1 = (abelian_forward(AbelianField(grid, samples(imag))) for _ in range(2))
        assert u0.layout == u1.layout == "full"
        traj = evolve_linear(u0, u1, b, m, sym, cfg.sample_times)
        vals = np.array([f.coefficients for f in traj.fields])
        ders = np.array([d.coefficients for d in traj.derivatives])
        for mode in np.ndindex(grid.shape):
            val, der = propagate_mode(b, m, float(omega2[mode]), u0.coefficients[mode],
                                      u1.coefficients[mode], traj.times)
            scale = abs(u0.coefficients[mode]) + abs(u1.coefficients[mode])
            at = (slice(None),) + mode
            assert np.max(np.abs(vals[at] - val)) <= 1e-14 * scale
            assert np.max(np.abs(ders[at] - der)) <= 1e-14 * scale
        assert damping_regimes(omega2, b, m) == {-1, 0, 1}


@pytest.mark.parametrize("backend", ["heisenberg", "abelian"])
def test_znorm_of_linear_picard_trajectory_is_its_first_z_norm(backend):
    # z_norms[0] is Z of the linear evolution, bit for bit: the solve's
    # linear recursion is the same one
    box = None
    if backend == "heisenberg":
        # the packet and box of the endpoint test, which pass the
        # synthesis boundary-decay gate
        grid = build_grid(0.25, 6.0, 48, 15.0, n=1)
        box = SpatialGrid((5.0, 5.0, 8.5), (28, 28, 40))
        f = from_function(box, packet(scale=0.05))
        calibrate_plancherel(f, grid)
        u0, u1 = forward_transform(f, grid), SpectralField.zeros(grid)
        sym = SubLaplacianSymbol(power=1)
    else:
        _, sym, u0, u1 = abelian_setup(1e-3)
    cfg = ZNormConfig(delta=0.9, sample_times=tuple(np.linspace(0.0, 4.0, 9)))
    _, diag = picard_solve(u0, u1, PowerNonlinearity(1.0, 2.0), 2.0, 1.0, sym,
                           cfg, synth=box)
    lin = evolve_linear(u0, u1, 2.0, 1.0, sym, cfg.sample_times)
    assert z_of(lin, cfg, sym) == diag.z_norms[0]


def test_picard_small_data_converges():
    grid, sym, u0, u1 = abelian_setup(1e-3)
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 1.0),
                      sample_times=tuple(np.linspace(0.0, 5.0, 21)))
    traj, diag = picard_solve(u0, u1, PowerNonlinearity(1.0, 2.0),
                              2.0, 1.0, sym, cfg)
    assert diag.status is PicardStatus.CONVERGED and diag.iterations == 1
    # one measured quotient, and the first increment small against Z(u*):
    # the data sit deep inside the contraction ball
    assert len(diag.ratios) == 1 and 0 < diag.ratios[0] < 1e-2
    assert 0 < diag.increments[0] < 1e-2 * diag.z_norms[-1]
    assert diag.z_norms[-1] <= diag.threshold
    assert diag.threshold == pytest.approx(4.0 * diag.z_norms[0], rel=1e-12)
    assert diag.data_norm > 0 and diag.c1 > 0
    report = verify_semilinear_decay(traj, 2.0, 1.0, sym)
    assert report.passed and not report.trivial
    assert all(s < 0 for s in report.slopes.values())


def test_picard_from_rest_position_converges():
    # u(0) = 0 with u_t(0) != 0: the first source of u* and of u_lin is f(0)
    grid, sym, u1, _ = abelian_setup(1e-3)
    u0 = AbelianCoefficients(grid, np.zeros_like(u1.coefficients))
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 1.0),
                      sample_times=tuple(np.linspace(0.0, 5.0, 21)))
    traj, diag = picard_solve(u0, u1, PowerNonlinearity(1.0, 2.0),
                              2.0, 1.0, sym, cfg)
    assert diag.status is PicardStatus.CONVERGED and diag.iterations == 1
    assert not traj.fields[0].coefficients.any()
    assert traj.fields[-1].coefficients.any()


def test_picard_large_data_diverges(monkeypatch):
    # data scale 5 sends the march past the 4 Z(u_lin) threshold (run on, it
    # reaches Z = 3e38); it stops at the first node out of the ball, having
    # made f(u*_k) per node up to and including that one and f(u_lin,k) per
    # node before it, in turn, and no more
    calls = []
    nonlinearity = semilinear._AbelianModel.nonlinearity

    def counting(self, c, nl, strict=True):
        calls.append(c.copy())
        return nonlinearity(self, c, nl, strict)

    monkeypatch.setattr(semilinear._AbelianModel, "nonlinearity", counting)
    grid, sym, u0, u1 = abelian_setup(5.0)
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 1.0),
                      sample_times=tuple(np.linspace(0.0, 5.0, 21)))
    traj, diag = picard_solve(u0, u1, PowerNonlinearity(1.0, 2.0),
                              2.0, 1.0, sym, cfg)
    assert diag.status is PicardStatus.DIVERGED and diag.iterations == 0
    assert diag.z_norms[-1] > diag.threshold
    assert diag.ratios == diag.increments == []
    assert np.isnan(diag.quadrature_error)
    n = len(traj.times)
    assert 2 <= n < 21 and len(calls) == 2 * n - 1
    assert all(np.array_equal(c, f.coefficients)
               for c, f in zip(calls[::2], traj.fields))
    head = LinearTrajectory(traj.times[:-1], traj.fields[:-1],
                            traj.derivatives[:-1], 2.0, 1.0)
    assert z_of(head, cfg, sym) <= diag.threshold < z_of(traj, cfg, sym)
    assert z_of(traj, cfg, sym) == diag.z_norms[-1]


def test_a_stopped_march_reports_its_threshold_over_the_nodes_so_far():
    # rest-position data at scale 60: the linear Z term peaks at node 8,
    # past the node where u* leaves the ball.  The march stops at the first
    # node whose Z term exceeds 4 Z(u_lin) over the nodes so far, and
    # reports that bound, not the one over the whole horizon
    sym, u1, _, cfg = order4_setup(60.0, 41)
    u0 = AbelianCoefficients(u1.grid, np.zeros_like(u1.coefficients))
    traj, diag = picard_solve(u0, u1, _POWER, 2.0, 2.0, sym, cfg)
    assert diag.status is PicardStatus.DIVERGED and diag.iterations == 0
    model = propagator._Model((u0, u1), sym, 2.0, 2.0)
    times = cfg.sample_times
    nodes = propagator._history(model, uniform_gaps(times[1], len(times)),
                                (model.unwrap(u0), model.unwrap(u1)))
    lin = np.maximum.accumulate([semilinear._znorm_node(model, cfg, t, v, d)
                                 for t, (v, d) in zip(times, nodes)])
    star = [semilinear._znorm_node(model, cfg, t, f.coefficients, d.coefficients)
            for t, f, d in zip(traj.times, traj.fields, traj.derivatives)]
    stop = len(star) - 1
    assert all(z <= 4.0 * zl for z, zl in zip(star[:stop], lin))
    assert star[stop] > 4.0 * lin[stop] == diag.threshold
    assert diag.z_norms == [lin[stop], star[stop]]
    assert lin[stop] < lin[-1]  # the horizon's bound would be larger


def test_heisenberg_picard_converges_at_the_endpoint_power():
    # the paper's own case: small packet data on H^1 with f(u) = |u| u, so
    # p = 2 = 1 + 1/n, the endpoint of the small-data existence range; the
    # heis-picard packet on a 48-node grid (at 32 nodes the boundary-decay
    # gate fails)
    grid = build_grid(0.25, 6.0, 48, 15.0, n=1)
    box = SpatialGrid((5.0, 5.0, 8.5), (28, 28, 40))
    f = from_function(box, packet(scale=0.05))
    calibrate_plancherel(f, grid)
    u0 = forward_transform(f, grid)
    sym = SubLaplacianSymbol(power=1)
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 2.0),
                      sample_times=tuple(np.linspace(0.0, 4.0, 5)))
    traj, diag = picard_solve(u0, SpectralField.zeros(grid),
                              PowerNonlinearity(1.0, 2.0), 2.0, 2.0, sym, cfg,
                              synth=box)
    assert diag.status is PicardStatus.CONVERGED and diag.iterations == 1
    assert diag.increments[0] > 1e-3 * diag.z_norms[-1]  # f(u) is not negligible
    assert all(r < 1e-2 for r in diag.ratios)
    assert 0 < diag.quadrature_error < 1e-5
    report = verify_semilinear_decay(traj, 2.0, 2.0, sym)
    assert report.passed and not report.trivial


# Small-data existence rests on the Lipschitz constant of the Duhamel map on
# a ball of radius ~eps scaling like eps^(p-1), so the first contraction
# ratio does too.  Measured |order - (p - 1)| between the scales 0.2, 0.1
# and 0.05: at most 0.012 on the abelian backend (16^3, order-4 symbol,
# H = 9) and 0.026 on the Heisenberg one (the endpoint test's grid and box,
# H = 5), growing with eps.  The band is about twice the larger; a power
# that ignores p is off by at least 0.5 at these p.
ORDER_BAND = 0.05
ORDER_SCALES = (0.2, 0.1, 0.05)


def first_ratio_orders(ratio_at, scales=ORDER_SCALES):
    """Observed orders in eps of the first contraction ratio between
    consecutive scales."""
    r = [ratio_at(eps) for eps in scales]
    return [np.log(r[i] / r[i + 1]) / np.log(scales[i] / scales[i + 1])
            for i in range(len(scales) - 1)]


def within_band(orders, p):
    return bool(np.all(np.abs(np.array(orders) - (p - 1.0)) <= ORDER_BAND))


def abelian_first_ratio(nl):
    grid = AbelianGrid((6.0,) * 3, (16, 16, 16))
    sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 2.0),
                      sample_times=tuple(np.linspace(0.0, 4.0, 9)))

    def ratio_at(eps):
        u0 = abelian_forward(abelian_from_function(
            grid, lambda x, y, z: eps * np.exp(-(x * x + y * y + z * z) / 2.0)))
        u1 = AbelianCoefficients(grid, np.zeros_like(u0.coefficients))
        _, diag = picard_solve(u0, u1, nl, 2.0, 2.0, sym, cfg)
        return diag.ratios[0]

    return ratio_at


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_first_contraction_ratio_scales_like_eps_to_the_p_minus_1(p):
    orders = first_ratio_orders(abelian_first_ratio(PowerNonlinearity(1.0, p)))
    assert within_band(orders, p), orders


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_first_contraction_order_rejects_a_power_that_ignores_p(p):
    # |u| u stands in for |u|^(p-1) u: its order is 1, outside either band
    ignores_p = GeneralNonlinearity(lambda U: np.abs(U[0]) * U[0])
    orders = first_ratio_orders(abelian_first_ratio(ignores_p))
    assert not within_band(orders, p), orders


def test_heisenberg_first_contraction_ratio_scales_like_eps():
    # p = 2 = 1 + 1/n on H^1; grid and box of the endpoint test above
    grid = build_grid(0.25, 6.0, 48, 15.0, n=1)
    box = SpatialGrid((5.0, 5.0, 8.5), (28, 28, 40))
    calibrate_plancherel(from_function(box, packet(scale=0.05)), grid)
    sym = SubLaplacianSymbol(power=1)
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 2.0),
                      sample_times=tuple(np.linspace(0.0, 4.0, 5)))

    def ratio_at(eps):
        u0 = forward_transform(from_function(box, packet(scale=eps)), grid)
        _, diag = picard_solve(u0, SpectralField.zeros(grid),
                               PowerNonlinearity(1.0, 2.0), 2.0, 2.0, sym, cfg,
                               synth=box)
        return diag.ratios[0]

    orders = first_ratio_orders(ratio_at)
    assert within_band(orders, 2.0), orders


def test_contraction_quotient_agrees_across_layouts():
    # q = Z(Gamma[u_lin] - u*) / Z(u_lin - u*), whose numerator is 6e-9 of
    # Z(u*) at data scale 1e-3: it comes from a recursion whose sources are
    # the differences f(u_lin,k) - f(u*_k), so the even and full layouts
    # agree to 7.8e-14 relative (1.2e-8 when the numerator cancelled arrays
    # of the data's size)
    ratios = []
    for layout in ("even", "full"):
        sym, u0, _, cfg = order4_setup(1e-3, 25, layout)
        u1 = AbelianCoefficients(u0.grid, np.zeros_like(u0.coefficients))
        _, diag = picard_solve(u0, u1, _POWER, 2.0, 2.0, sym, cfg)
        assert diag.status is PicardStatus.CONVERGED
        ratios += diag.ratios
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-12, abs=0)


def test_picard_factor_work_is_linear_in_samples(monkeypatch):
    # the solve's recursions share one table of the one-step propagator:
    # one kernel call in all, whatever H.  Per-recursion tables would make
    # four calls, per-lag tables 2H, a closed-form linear part H,
    # and a linear part stepped through the rounded gaps t_k - t_{k-1} one
    # per distinct rounded value (the step 0.15 of the order-4 grid at
    # H = 41 is inexact: 13 calls)
    calls = []
    kernel = propagator._mode_factors

    def counting(total, b, t):
        calls.append(t)
        return kernel(total, b, t)

    monkeypatch.setattr(propagator, "_mode_factors", counting)
    _, sym, u0, u1 = abelian_setup(1e-3)
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 1.0),
                      sample_times=tuple(np.linspace(0.0, 5.0, 41)))
    cases = [(sym, u0, u1, cfg, 1.0)]
    cases += [order4_setup(0.2, H) + (2.0,) for H in (25, 41)]
    for sym, u0, u1, cfg, m in cases:
        calls.clear()
        _, diag = picard_solve(u0, u1, PowerNonlinearity(1.0, 2.0),
                               2.0, m, sym, cfg)
        assert diag.status is PicardStatus.CONVERGED
        assert np.isfinite(diag.quadrature_error)
        assert len(calls) == 1


def full_layout(grid, c):
    """c on the full DFT layout: the real octant of an even field unfolds by
    c(xi) = c(|xi|) on every axis, independent of `subwave.abelian`."""
    if c.dtype == complex:
        return c
    idx = np.indices(grid.shape)
    return c[tuple(np.minimum(i, n - i) for i, n in zip(idx, grid.shape))] + 0j


def abelian_l2(grid, c, mult=1.0):
    """Reference norm ||M^{1/2} u||_{L^2} = sqrt(sum M |c|^2 / V) on an FFT
    grid, with M on the full layout, independent of the backend model."""
    c = full_layout(grid, c)
    return float(np.sqrt(np.sum(mult * np.abs(c) ** 2) / grid.volume))


def list_based_picard(u0, u1, nl, b, m, sym, cfg, tol, closed_form=False):
    """Reference: the Picard loop that holds every sweep's sources, both
    iterates and both difference lists, with each Z norm taken from the
    reference norms, iterated until the increment is at most tol Z.  By
    default it forms each new iterate by the sweep started at (c0, c1) from
    the linear part of `_history` without sources; with closed_form=True it
    adds the zero-start sweep to the closed-form linear part P(t) (c0, c1)
    instead.  Returns the last iterate (values, derivatives), the Z norms
    and increments of every sweep, the Richardson estimate on the last
    iterate's sources and the contraction quotient
    q = Z(u_1 - u_last) / Z(u_lin - u_last), u_1 being the first iterate."""
    grid = u0.grid
    model = semilinear._make_model((u0, u1), sym, b, m)
    c0, c1 = model.unwrap(u0), model.unwrap(u1)
    times = np.asarray(cfg.sample_times)
    gaps = uniform_gaps(times[1] - times[0], times.size)
    zero = np.zeros_like(c0)
    root = sym.values(grid) ** (2.0 / sym.nu)  # R^{2/nu}

    def l2(c):
        return abelian_l2(grid, c)

    def znorm_of(vals, ders):
        best = 0.0
        for t, v, d in zip(times, vals, ders):
            total = l2(v) + l2(d) + abelian_l2(grid, v, root)
            best = max(best, cfg.weight(t) * total)
        return best

    def source_sweep(vals):
        norms = [l2(v) for v in vals]
        return [model.nonlinearity(v, nl, strict=(nv >= 1e-2 * max(norms)))
                for v, nv in zip(vals, norms)]

    def sweep(sources, start=(zero, zero)):
        # the recursion's yielded buffers live until the next pull: copy them
        source = None if sources is None else listed(sources)
        return [(v.copy(), d.copy())
                for v, d in propagator._history(model, gaps, start, source)]

    if closed_form:
        lin_val, lin_der = [], []
        for t in times:
            A0, A1, D0, D1 = model.factors(float(t))
            lin_val.append(A0 * c0 + A1 * c1)
            lin_der.append(D0 * c0 + D1 * c1)
    else:
        lin_val, lin_der = zip(*sweep(None, (c0, c1)))
    cur_val, cur_der = [v.copy() for v in lin_val], [d.copy() for d in lin_der]
    z_norms, incs, first = [znorm_of(lin_val, lin_der)], [], None
    for _ in range(40):
        if closed_form:
            nodes = sweep(source_sweep(cur_val))
            new_val = [lv + dv for lv, (dv, _) in zip(lin_val, nodes)]
            new_der = [ld + dd for ld, (_, dd) in zip(lin_der, nodes)]
        else:
            nodes = sweep(source_sweep(cur_val), (c0, c1))
            new_val, new_der = [v for v, _ in nodes], [d for _, d in nodes]
        incs.append(znorm_of([a - c for a, c in zip(new_val, cur_val)],
                             [a - c for a, c in zip(new_der, cur_der)]))
        z_norms.append(znorm_of(new_val, new_der))
        cur_val, cur_der = new_val, new_der
        first = first or (new_val, new_der)
        if incs[-1] <= tol * z_norms[-1]:
            break
    flipped = [-s if k % 2 else s for k, s in enumerate(source_sweep(cur_val))]
    val, _ = sweep(flipped)[-1]
    q = (znorm_of([a - c for a, c in zip(first[0], cur_val)],
                  [a - c for a, c in zip(first[1], cur_der)])
         / znorm_of([a - c for a, c in zip(lin_val, cur_val)],
                    [a - c for a, c in zip(lin_der, cur_der)]))
    return cur_val, cur_der, z_norms, incs, l2(val) / 3.0, q


def centred_data(grid, samples, layout):
    """The transform of real samples even on every axis on the layout: the
    octant (even), or the samples typed complex (full)."""
    u = abelian_forward(AbelianField(grid, samples + 0j if layout == "full" else samples))
    assert u.layout == layout
    return u


def order4_setup(scale, H, layout="even"):
    """Gaussian data on the octant of an even field, or on the full layout."""
    grid = AbelianGrid((6.0,) * 3, (16, 16, 16))
    sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    gauss = abelian_from_function(
        grid, lambda x, y, z: scale * np.exp(-(x * x + y * y + z * z) / 2.0))
    u0 = centred_data(grid, gauss.samples, layout)
    u1 = AbelianCoefficients(grid, 0.3 * u0.coefficients)
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 2.0),
                      sample_times=tuple(np.linspace(0.0, 6.0, H)))
    return sym, u0, u1, cfg


_POWER = PowerNonlinearity(1.0, 2.0)
# the tuple (u, R^{1/4} u) of the order-4 symbol
_GENERAL = GeneralNonlinearity(lambda U: np.abs(U[0]) * U[0]
                               + 0.5 * np.abs(U[1]) * U[1])


def assert_march_meets_the_list_based_loop(nl, H, closed_form):
    """The march against `list_based_picard` iterated to an increment of
    1e-14 Z.  Measured on order4_setup(0.2, H), H = 25, 41, 81: values and
    derivatives within 1.1e-14 relative L^2 (H eps of carrying the linear
    part in the recursion or not), the Z norms, the first increment and the
    Richardson estimate within 1.4e-15 relative, q within 7.7e-13."""
    sym, u0, u1, cfg = order4_setup(0.2, H)
    traj, diag = picard_solve(u0, u1, nl, 2.0, 2.0, sym, cfg)
    vals, ders, z_norms, incs, quad, q = list_based_picard(
        u0, u1, nl, 2.0, 2.0, sym, cfg, tol=1e-14, closed_form=closed_form)
    assert diag.status is PicardStatus.CONVERGED and diag.iterations == 1
    assert len(incs) >= 5  # the loop took sweeps to get where the march went
    assert diag.increments[0] > 1e-3 * diag.z_norms[-1]  # f(u) is not negligible
    for got, want in zip(traj.fields + traj.derivatives, list(vals) + list(ders)):
        assert np.linalg.norm(got.coefficients - want) <= 1e-13 * np.linalg.norm(want)
    assert diag.z_norms == pytest.approx([z_norms[0], z_norms[-1]], rel=1e-12, abs=0)
    assert diag.increments == pytest.approx(incs[:1], rel=0,
                                            abs=1e-12 * diag.z_norms[-1])
    assert diag.ratios == pytest.approx([q], rel=1e-11, abs=0)
    assert diag.quadrature_error == pytest.approx(quad, rel=1e-12, abs=0)


@pytest.mark.parametrize("nl", [_POWER, _GENERAL], ids=["power", "general"])
def test_streaming_picard_matches_the_list_based_loop(nl):
    # the loop forms each iterate as the march does, by the recursion from
    # (c0, c1)
    assert_march_meets_the_list_based_loop(nl, 25, closed_form=False)


@pytest.mark.parametrize("nl, H", [
    pytest.param(_POWER, 25, id="power"),
    pytest.param(_GENERAL, 25, id="general"),
    # steps 0.15 and 0.075 are not exact in binary
    pytest.param(_POWER, 41, id="power-41"),
    pytest.param(_GENERAL, 41, id="general-41"),
    pytest.param(_POWER, 81, id="power-81"),
    pytest.param(_GENERAL, 81, id="general-81"),
])
def test_recursive_picard_matches_the_closed_form_linear_part(nl, H):
    # the march carries the linear part in its recursion; the loop adds
    # the zero-start sweep to the closed form P(t) (c0, c1)
    assert_march_meets_the_list_based_loop(nl, H, closed_form=True)


@pytest.mark.parametrize("H", [41, 81, 161])
def test_picard_holds_one_iterate(H):
    # The pass holds, in arrays of the data's size: u*'s 2H; two for each
    # of its four recursions (u*, Richardson, u_lin, e); the shared work
    # pair; the two differences; three live sources (f(u*_k), its negated
    # copy, f(u_lin,k) - f(u*_k)); the model's symbol, weights and Z-norm
    # multiplier: 2H + 18.  On top, the larger of the factor table (four)
    # with a nonlinearity call's working arrays (three: the samples of f
    # and two transform intermediates) and the table's build at the first
    # step (at most nine while it runs): 2H + 27.  Interpreter objects (the
    # generators, closures and model) stay below 32 KiB, and the time grid
    # takes 24 B a node (times, steps, gaps).  The first solve of a process
    # also sets up NumPy's lazy state, so the peak is a second solve's.
    sym, u0, u1, cfg = order4_setup(0.2, H)

    def solve():
        return picard_solve(u0, u1, PowerNonlinearity(1.0, 2.0), 2.0, 2.0,
                            sym, cfg)[1]

    solve()
    diag, peak = traced_peak(solve)
    assert diag.status is PicardStatus.CONVERGED and diag.iterations == 1
    assert np.isfinite(diag.quadrature_error)
    assert peak <= (2 * H + 27) * u0.coefficients.nbytes + 32 * 1024 + 24 * H


# --------------------------------------------------------------------------
# the sweep's sources and its failures


def counting(fn, calls):
    """A GeneralNonlinearity that records each call's tuple."""

    def callback(U):
        calls.append(U)
        return fn(U)

    return GeneralNonlinearity(callback)


def test_each_sweep_makes_one_source_per_node():
    # H for u*, whose Richardson recursion reuses its sources, and H for
    # the sources f(u_lin,k) of Gamma[u_lin]: H (iterations + 1) = 2H
    sym, u0, u1, cfg = order4_setup(0.2, 25)
    calls = []
    _, diag = picard_solve(u0, u1, counting(_GENERAL.callback, calls), 2.0, 2.0,
                           sym, cfg)
    assert diag.status is PicardStatus.CONVERGED
    assert np.isfinite(diag.quadrature_error)
    assert len(calls) == 25 * (diag.iterations + 1) == 50


def test_a_non_finite_source_fails_the_solve_when_pulled():
    # call 2k + 1 is f(u*_k) and call 2k + 2 is f(u_lin,k): call 11 is
    # u*'s node 5, call 38 u_lin's node 18; no source is made past either
    sym, u0, u1, cfg = order4_setup(0.2, 25)
    for bad in (11, 38):
        calls = []

        def fn(U):
            out = _GENERAL.callback(U)
            return np.full_like(out, np.inf) if len(calls) == bad else out

        with pytest.raises(semilinear.NumericalFailure, match="non-finite"):
            picard_solve(u0, u1, counting(fn, calls), 2.0, 2.0, sym, cfg)
        assert len(calls) == bad


def test_each_stream_gates_its_sources_by_its_own_running_peak(monkeypatch):
    # f skips the boundary-decay gate for a value whose L^2 norm is below
    # 1e-2 of the running peak of its own stream, u* or u_lin.  From rest
    # position at scale 20 the norm of u* peaks 1.2 times above that of
    # u_lin, and one late linear node changes sides under a shared peak
    calls = []
    nonlinearity = semilinear._AbelianModel.nonlinearity

    def recording(self, c, nl, strict=True):
        calls.append((self.l2(c), strict))
        return nonlinearity(self, c, nl, strict)

    monkeypatch.setattr(semilinear._AbelianModel, "nonlinearity", recording)
    sym, u1, _, cfg = order4_setup(20.0, 41)
    u0 = AbelianCoefficients(u1.grid, np.zeros_like(u1.coefficients))
    _, diag = picard_solve(u0, u1, _POWER, 2.0, 2.0, sym, cfg)
    assert diag.status is PicardStatus.CONVERGED
    norms, strict = (np.array(a) for a in zip(*calls))
    # calls alternate f(u*_k), f(u_lin,k): one column per stream
    peaks = np.maximum.accumulate(norms.reshape(-1, 2), axis=0).ravel()
    assert np.array_equal(strict, norms >= 1e-2 * peaks)
    assert not np.array_equal(strict, norms >= 1e-2 * np.maximum.accumulate(norms))


def test_heisenberg_boundary_failure_fails_the_solve(calibrated_grid, synth_box):
    # the box of the boundary-gate test above is too small for the packet
    tight = SpatialGrid((1.5, 1.5, 2.0), (16, 16, 16))
    u0 = forward_transform(from_function(synth_box, packet(scale=0.05)),
                           calibrated_grid, boundary_tol=None)
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 2.0),
                      sample_times=tuple(np.linspace(0.0, 4.0, 5)))
    with pytest.raises(semilinear.NumericalFailure, match="boundary decay"):
        picard_solve(u0, SpectralField.zeros(calibrated_grid), _POWER, 2.0, 2.0,
                     SubLaplacianSymbol(1), cfg, synth=tight)


# --------------------------------------------------------------------------
# the even and full layouts of real data on the abelian backend


def test_mass_shift_oracle_has_time_order_2_on_both_layouts():
    # f(u) = c u makes the mild solution the linear evolution with mass
    # m - c, one closed-form step to T.  The trapezoid Duhamel rule is second
    # order in the step: measured errors at T 1.94e-2, 4.80e-3, 1.20e-3 and
    # 2.99e-4 at H = 9, 17, 33, 65 (orders 2.01, 2.00, 2.00) on both layouts,
    # which agree to 6e-13 relative (2e-16 of the solution); wrong octant
    # weights would move the norms of the even layout by O(1).  The real
    # Gaussian moved by 0.3, not even, takes the full layout, with errors
    # equal to 8 digits: a shift only turns each mode's phase
    grid = AbelianGrid((6.0,) * 3, (16, 16, 16))
    sym = AbelianSymbol(np.ones(3), order=2, radial=True)
    b, m, c, T = 2.0, 2.0, 0.5, 4.0
    shift = GeneralNonlinearity(lambda U: c * U[0])
    gauss = abelian_from_function(
        grid, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2.0))
    off = abelian_forward(abelian_from_function(
        grid, lambda x, y, z: np.exp(-((x - 0.3) ** 2 + y * y + z * z) / 2.0)))
    errors = {}
    for layout, u0 in (("even", centred_data(grid, gauss.samples, "even")),
                       ("full", centred_data(grid, gauss.samples, "full")),
                       ("off-centre", off)):
        u1 = AbelianCoefficients(grid, np.zeros_like(u0.coefficients))
        model = semilinear._make_model((u0, u1), sym, b, m)
        assert model.layout == ("even" if layout == "even" else "full")
        want = model.unwrap(evolve_linear(u0, u1, b, m - c, sym, [0.0, T]).fields[-1])
        errors[layout] = []
        for H in (9, 17, 33, 65):
            cfg = ZNormConfig(delta=0.999 * decay_rate(b, m),
                              sample_times=tuple(np.linspace(0.0, T, H)))
            traj, diag = picard_solve(u0, u1, shift, b, m, sym, cfg)
            assert diag.status is PicardStatus.CONVERGED
            got = traj.fields[-1].coefficients
            assert got.shape == want.shape
            errors[layout].append(model.l2(got - want) / model.l2(want))
        errs = np.array(errors[layout])
        orders = np.log2(errs[:-1] / errs[1:])
        assert np.all(np.abs(orders - 2.0) <= 0.05), (layout, orders)
    assert errors["even"] == pytest.approx(errors["full"], rel=1e-10, abs=0)


def test_richardson_estimate_tracks_the_true_horizon_error():
    # on the mass-shift oracle above, quadrature_error and the true error at
    # T are both absolute L^2 norms through the model; measured ratios
    # 1.061, 0.934, 0.914, 0.909 at H = 9, 17, 33, 65 (0.908 at H = 129)
    grid = AbelianGrid((6.0,) * 3, (16, 16, 16))
    sym = AbelianSymbol(np.ones(3), order=2, radial=True)
    b, m, c, T = 2.0, 2.0, 0.5, 4.0
    u0 = abelian_forward(abelian_from_function(
        grid, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2.0)))
    u1 = AbelianCoefficients(grid, np.zeros_like(u0.coefficients))
    model = semilinear._make_model((u0, u1), sym, b, m)
    want = model.unwrap(evolve_linear(u0, u1, b, m - c, sym, [0.0, T]).fields[-1])
    ratios = []
    for H in (9, 17, 33, 65):
        cfg = ZNormConfig(delta=0.999 * decay_rate(b, m),
                          sample_times=tuple(np.linspace(0.0, T, H)))
        traj, diag = picard_solve(u0, u1, GeneralNonlinearity(lambda U: c * U[0]),
                                  b, m, sym, cfg)
        assert diag.status is PicardStatus.CONVERGED
        error = model.l2(model.unwrap(traj.fields[-1]) - want)
        ratios.append(diag.quadrature_error / error)
    assert all(0.8 <= r <= 1.25 for r in ratios), ratios


def test_heisenberg_mass_shift_error_is_bounded_by_the_grid_loss(synth_box):
    # the mass-shift oracle on H^1: the error at T against the closed-form
    # linear evolution with mass m - c, over the loss ||F S u0 - u0||/||u0||
    # of one round trip of the data through the mode grid.  Measured on 48
    # nodes: loss 0.0279, error 0.0246 (0.0204 at H = 17: the grid, not the
    # time step, sets it); with lambda_min = 1 loss 0.169, error 0.141.  The
    # conftest's 24-node grid fails the nonlinearity's boundary gate here.
    # The packet is real and even in tau, so a source with the lambda nodes
    # reversed gives the same field; moved to tau = 0.3, the most the
    # transform's 1e-8 boundary gate allows on this box (edge 8.5e-9), it
    # is not: loss 0.0280, error 0.0246 with the right order, 0.425 (15
    # times the loss) reversed; 0.1687, 0.1413 and 0.471 at lambda_min = 1
    b, m, c, T, H = 2.0, 2.0, 0.5, 4.0, 9
    sym = SubLaplacianSymbol(1)
    cfg = ZNormConfig(delta=0.999 * decay_rate(b, m),
                      sample_times=tuple(np.linspace(0.0, T, H)))
    for center in (0.0, 0.3):
        f = from_function(synth_box, packet(center=center))
        assert f.boundary_decay() < 1e-8
        errors = {}
        for lambda_min in (0.25, 1.0):
            grid = build_grid(lambda_min, 6.0, 48, 15.0)
            calibrate_plancherel(f, grid)
            u0 = forward_transform(f, grid)
            u1 = SpectralField.zeros(grid)
            model = semilinear._make_model((u0, u1), sym, b, m)
            back = forward_transform(synthesize_on_grid(u0, synth_box), grid,
                                     boundary_tol=None)
            loss = (model.l2(back.coefficients - u0.coefficients)
                    / model.l2(u0.coefficients))
            want = evolve_linear(u0, u1, b, m - c, sym, [0.0, T]).fields[-1].coefficients
            traj, diag = picard_solve(u0, u1, GeneralNonlinearity(lambda U: c * U[0]),
                                      b, m, sym, cfg, synth=synth_box)
            assert diag.status is PicardStatus.CONVERGED
            error = model.l2(traj.fields[-1].coefficients - want) / model.l2(want)
            assert 0.5 * loss <= error <= loss, (center, lambda_min, loss, error)
            errors[lambda_min] = error
        assert errors[0.25] < 0.05


def assert_solves_agree(run, twin, shape):
    """Two picard_solve results on the same data and two layouts agree to
    rounding: the first on the layout of `shape`, the second on the full
    one or compared there, bounded as in the closed-form comparison."""
    (traj, diag), (other, odiag) = run, twin
    grid = traj.fields[0].grid
    assert traj.fields[0].coefficients.shape == shape
    assert diag.status is odiag.status is PicardStatus.CONVERGED
    assert diag.iterations == odiag.iterations == 1
    for got, want in zip(traj.fields + traj.derivatives,
                         other.fields + other.derivatives):
        want = full_layout(grid, want.coefficients)
        err = full_layout(grid, got.coefficients) - want
        assert np.linalg.norm(err) <= 1e-13 * np.linalg.norm(want)
    assert diag.z_norms == pytest.approx(odiag.z_norms, rel=1e-12, abs=0)
    assert diag.data_norm == pytest.approx(odiag.data_norm, rel=1e-12, abs=0)
    assert diag.quadrature_error == pytest.approx(odiag.quadrature_error,
                                                  rel=1e-12, abs=0)
    z = odiag.z_norms[-1]
    assert diag.increments == pytest.approx(odiag.increments, rel=0, abs=1e-12 * z)
    assert diag.ratios == pytest.approx(odiag.ratios, rel=1e-11, abs=0)


@pytest.mark.parametrize("nl", [_POWER, _GENERAL], ids=["power", "general"])
def test_real_data_and_their_complex_twin_agree(nl):
    # even real samples take the octant, the same samples typed complex the
    # full layout; the two solves differ by rounding (measured: Z norms 9e-16
    # relative, increments 3e-17 z, trajectory 1.5e-15, q 7e-14)
    runs = [picard_solve(u0, u1, nl, 2.0, 2.0, sym, cfg)
            for sym, u0, u1, cfg in (order4_setup(0.2, 25, layout)
                                     for layout in ("even", "full"))]
    assert_solves_agree(*runs, runs[0][0].fields[0].grid.even_shape)


def test_zero_velocity_on_any_layout_gives_the_same_bits():
    # the benchmark passes a full-layout zero velocity, the CLI a zero on the
    # data's layout: a zero datum fits any layout, so every solve takes the
    # data's octant
    sym, u0, _, cfg = order4_setup(0.2, 25)
    grid = u0.grid
    runs = [picard_solve(u0, AbelianCoefficients(grid, np.zeros(shape, dtype=dtype)),
                         _POWER, 2.0, 2.0, sym, cfg)
            for shape, dtype in ((grid.shape, complex), (grid.even_shape, float))]
    (traj, diag) = runs[0]
    assert diag.status is PicardStatus.CONVERGED
    for other, odiag in runs[1:]:
        assert diag == odiag
        for a, b in zip(traj.fields + traj.derivatives, other.fields + other.derivatives):
            assert a.coefficients.shape == grid.even_shape
            assert np.array_equal(a.coefficients, b.coefficients)


def test_real_data_take_under_0_6_of_the_complex_twins_peak():
    # the iterate's 2H arrays and the nonlinearity's samples shrink to the
    # real octant on the even layout (measured 0.115)
    peaks = []
    for layout in ("even", "full"):
        sym, u0, u1, cfg = order4_setup(0.2, 41, layout)
        diag, peak = traced_peak(lambda: picard_solve(
            u0, u1, _POWER, 2.0, 2.0, sym, cfg)[1])
        assert diag.status is PicardStatus.CONVERGED
        peaks.append(peak)
    assert peaks[0] <= 0.6 * peaks[1]


def test_non_real_general_nonlinearity_on_real_data_is_rejected():
    # a real solve stays on its real layout; complex data lift the limit
    rotate = GeneralNonlinearity(lambda U: 1j * np.abs(U[0]) * U[0])
    for layout in ("even", "full"):
        sym, u0, u1, cfg = order4_setup(0.2, 9, layout)
        if layout != "full":
            with pytest.raises(ValueError, match="complex samples"):
                picard_solve(u0, u1, rotate, 2.0, 2.0, sym, cfg)
        else:
            _, diag = picard_solve(u0, u1, rotate, 2.0, 2.0, sym, cfg)
            assert np.isfinite(diag.z_norms[-1])


def test_complex_samples_solve_on_the_full_layout_even_where_fftn_is_hermitian(rng):
    # fftn of real samples typed complex is exactly Hermitian on some grids
    # (this 8^3 one) and not on others; the layout comes from the samples'
    # dtype, never from the coefficients' values, so such data solve with a
    # nonlinearity that returns non-real samples
    grid = AbelianGrid((6.0,) * 3, (8, 8, 8))
    sym = AbelianSymbol(np.ones(3), order=2, radial=True)
    u0 = abelian_forward(AbelianField(grid, 0.1 * rng.normal(size=grid.shape) + 0j))
    c = u0.coefficients
    assert np.array_equal(c, np.conj(np.roll(np.flip(c), 1, axis=(0, 1, 2))))
    u1 = AbelianCoefficients(grid, np.zeros_like(c))
    cfg = ZNormConfig(delta=0.999 * decay_rate(2.0, 2.0),
                      sample_times=tuple(np.linspace(0.0, 2.0, 9)))
    rotate = GeneralNonlinearity(lambda U: 1j * np.abs(U[0]) * U[0])
    traj, diag = picard_solve(u0, u1, rotate, 2.0, 2.0, sym, cfg)
    assert traj.fields[-1].coefficients.shape == grid.shape
    assert np.isfinite(diag.z_norms[-1])


def test_complex_mu_keeps_real_data_on_the_full_layout():
    # from rest: the trajectory's first value is zero, and fits any layout,
    # while the later ones are complex; the decay report reads them all as
    # they are
    sym, u1, _, cfg = order4_setup(0.2, 9)
    u0 = AbelianCoefficients(u1.grid, np.zeros_like(u1.coefficients))
    traj, diag = picard_solve(u0, u1, PowerNonlinearity(1.0 + 0.5j, 2.0),
                              2.0, 2.0, sym, cfg)
    assert traj.fields[-1].coefficients.shape == u1.grid.shape
    assert np.isfinite(diag.z_norms[-1])
    report = verify_semilinear_decay(traj, 2.0, 2.0, sym)
    assert all(np.isfinite(v) for v in report.slopes.values())


@pytest.mark.parametrize("start", [False, True], ids=["zero", "data"])
def test_duhamel_sweep_memory_does_not_grow_with_the_nodes(start):
    # the recursion updates a fixed set of arrays in place: a pass over 65
    # nodes peaks where a pass over 17 does, within one array
    sym, u0, u1, _ = order4_setup(0.2, 17)
    model = semilinear._make_model(u0, sym, 2.0, 2.0)
    sources = [(k + 1.0) * u0.coefficients for k in range(65)]
    zero = np.zeros_like(u0.coefficients)
    init = (u0.coefficients, u1.coefficients) if start else (zero, zero)

    def sweep_pass(H):
        gaps = uniform_gaps(6.0 / (H - 1), H)
        deque(propagator._history(model, gaps, init, listed(sources[:H])),
              maxlen=0)

    _, short = traced_peak(lambda: sweep_pass(17))
    _, long = traced_peak(lambda: sweep_pass(65))
    assert abs(long - short) <= u0.coefficients.nbytes


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 2.0])  # 2 = nu/2
def test_model_norms_match_the_reference_norms(order, rng, calibrated_grid):
    # sqrt(sum M |c|^2 / V) with M = (1 + R)^{2s/nu} or R^{2a/nu} on the FFT
    # grid, and the Plancherel-weighted sums on the Heisenberg grid
    grid = AbelianGrid((5.0,) * 3, (12, 12, 12))
    sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    c = (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    R = sym.values(grid)
    model = propagator._Model(AbelianCoefficients(grid, c), sym, 2.0, 1.0)
    assert model.l2(c) == pytest.approx(abelian_l2(grid, c), rel=1e-14)
    assert model.sobolev(c, order) == pytest.approx(
        abelian_l2(grid, c, (1.0 + R) ** (order / 2)), rel=1e-14)
    assert model.frac(c, order) == pytest.approx(
        abelian_l2(grid, c, R ** (order / 2)), rel=1e-14)
    # the octant, with and without a Nyquist index on the last axis,
    # against the reference norms of its unfolding
    for grid in (grid, AbelianGrid((5.0,) * 3, (12, 12, 11))):
        octant = rng.normal(size=grid.even_shape)
        R = sym.values(grid)
        model = propagator._Model(AbelianCoefficients(grid, octant), sym, 2.0, 1.0)
        assert model.layout == "even"
        assert model.l2(octant) == pytest.approx(abelian_l2(grid, octant), rel=1e-14)
        assert model.sobolev(octant, order) == pytest.approx(
            abelian_l2(grid, octant, (1.0 + R) ** (order / 2)), rel=1e-14)
        assert model.frac(octant, order) == pytest.approx(
            abelian_l2(grid, octant, R ** (order / 2)), rel=1e-14)

    shape = calibrated_grid.field_shape()
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    sub = SubLaplacianSymbol(power=1)
    R = sub.values(calibrated_grid)
    model = propagator._Model(SpectralField(calibrated_grid, c), sub, 2.0, 1.0)

    def weighted(mult):
        hs = np.sum(mult * np.abs(c) ** 2, axis=(1, 2))
        return np.sqrt(np.sum(calibrated_grid.weights * hs))

    assert model.l2(c) == pytest.approx(weighted(1.0), rel=1e-14)
    assert model.sobolev(c, order) == pytest.approx(weighted((1.0 + R) ** order),
                                                    rel=1e-14)
    assert model.frac(c, order) == pytest.approx(weighted(R ** order), rel=1e-14)


def test_abelian_model_norms_at_the_zero_frequency():
    grid = AbelianGrid((5.0,) * 3, (12, 12, 12))
    sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    c = np.zeros(grid.shape, dtype=complex)
    c[0, 0, 0] = 2.0  # xi = 0: even, but complex, so the model takes the full layout
    state = AbelianCoefficients(grid, c)
    model = semilinear._make_model(state, sym, 2.0, 1.0)
    c = model.unwrap(state)
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
    nl = GeneralNonlinearity(lambda U: np.abs(U[0]) * U[1])
    _, diag = picard_solve(u0, u1, nl, 2.0, 2.0, sym, cfg)
    assert diag.iterations == 1 and np.isfinite(diag.quadrature_error)
    # data norm (nu/2, mass 1), Z norm R^{2/nu}, tuple factor R^{1/nu}
    assert sorted(built, key=str) == sorted([(2.0, 1.0), (1.0, None), (0.5, None)],
                                            key=str)


def test_picard_validation():
    grid, sym, u0, u1 = abelian_setup(1e-3)
    cfg = ZNormConfig(delta=0.5, sample_times=(0.0, 0.5, 1.0))
    nl = PowerNonlinearity(1.0, 2.0)
    with pytest.raises(ValueError, match="damping"):
        picard_solve(u0, u1, nl, 0.0, 1.0, sym, cfg)
    with pytest.raises(ValueError, match="mass"):
        picard_solve(u0, u1, nl, 1.0, -1.0, sym, cfg)
    bad = ZNormConfig(delta=0.5, sample_times=(0.5, 1.0))
    with pytest.raises(ValueError, match="start at t = 0"):
        picard_solve(u0, u1, nl, 1.0, 1.0, sym, bad)
    uneven = ZNormConfig(delta=0.5, sample_times=(0.0, 0.3, 0.9))
    with pytest.raises(ValueError, match="uniformly spaced"):
        picard_solve(u0, u1, nl, 1.0, 1.0, sym, uneven)


def test_picard_heisenberg_needs_synthesis_grid(calibrated_grid):
    u0 = SpectralField.zeros(calibrated_grid)
    cfg = ZNormConfig(delta=0.5, sample_times=(0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="synthesis"):
        picard_solve(u0, u0, PowerNonlinearity(1.0, 2.0), 1.0, 1.0,
                     SubLaplacianSymbol(power=1), cfg)


def test_picard_heisenberg_general_nonlinearity_needs_nu_2(calibrated_grid,
                                                          synth_box):
    # the Heisenberg backend hands the callback U = (u,), the tuple of nu = 2;
    # the set-up rejects nu = 4 before any data is looked at
    u0 = SpectralField.zeros(calibrated_grid)
    cfg = ZNormConfig(delta=0.5, sample_times=(0.0, 0.5, 1.0))
    sym4 = SubLaplacianSymbol(power=2)
    nl = GeneralNonlinearity(lambda U: np.abs(U[0]) * U[0])
    with pytest.raises(ValueError, match="nu = 4"):
        picard_solve(u0, u0, nl, 2.0, 1.0, sym4, cfg, synth=synth_box)
    # a power nonlinearity reads no tuple
    _, diag = picard_solve(u0, u0, PowerNonlinearity(1.0, 2.0), 2.0, 1.0,
                           sym4, cfg, synth=synth_box)
    assert diag.status is PicardStatus.CONVERGED


def test_heisenberg_picard_commutes_with_i(monkeypatch):
    # f(u) = c u is complex linear, so solve(i u0) = i solve(u0).  The real
    # packet's syntheses are float64 in every sweep, those of i u0 complex
    # with a zero real part: both branches of the synthesis and the forward
    # transform run through the whole nonlinear path.  The two solves may
    # differ by the order in which BLAS sums the t axis of one part or of
    # two, a rounding per synthesis of about 1e-16 relative (7e-17 seen on
    # a 12 x 12 x 10 box); here they agree bitwise
    dtypes = []
    synthesize = semilinear.synthesize_on_grid

    def recording(u, synth):
        f = synthesize(u, synth)
        dtypes.append(f.samples.dtype)
        assert not np.iscomplexobj(f.samples) or not np.any(f.samples.real)
        return f

    monkeypatch.setattr(semilinear, "synthesize_on_grid", recording)
    c, b, m = 0.5, 2.0, 2.0
    shift = GeneralNonlinearity(lambda U: c * U[0])
    # the grid, box and packet of the endpoint test above
    grid = build_grid(0.25, 6.0, 48, 15.0, n=1)
    box = SpatialGrid((5.0, 5.0, 8.5), (28, 28, 40))
    f = from_function(box, packet(scale=0.05))
    calibrate_plancherel(f, grid)
    packet_hat = forward_transform(f, grid)
    cfg = ZNormConfig(delta=0.999 * decay_rate(b, m),
                      sample_times=tuple(np.linspace(0.0, 4.0, 5)))
    runs = []
    for unit in (1.0, 1j):
        dtypes.clear()
        u0 = SpectralField(grid, unit * packet_hat.coefficients)
        runs.append(picard_solve(u0, SpectralField.zeros(grid), shift, b, m,
                                 SubLaplacianSymbol(1), cfg, synth=box))
        assert dtypes and set(dtypes) == {np.dtype(float if unit == 1.0 else complex)}
    (traj, diag), (twin, tdiag) = runs
    assert diag.status is tdiag.status is PicardStatus.CONVERGED
    assert diag.iterations == tdiag.iterations == 1
    for got, want in zip(twin.fields + twin.derivatives, traj.fields + traj.derivatives):
        err = got.coefficients - 1j * want.coefficients
        assert np.linalg.norm(err) <= 1e-14 * np.linalg.norm(want.coefficients)
    assert tdiag.z_norms == pytest.approx(diag.z_norms, rel=1e-13, abs=0)


# --------------------------------------------------------------------------
# decay report on trivial data


def test_verify_semilinear_decay_trivial():
    grid, sym, _, u1 = abelian_setup(0.0)
    times = np.linspace(0.0, 3.0, 7)
    traj = LinearTrajectory(times, [u1] * 7, [u1] * 7, 2.0, 1.0)
    report = verify_semilinear_decay(traj, 2.0, 1.0, sym)
    assert report.trivial and report.passed


def test_verify_semilinear_decay_fails_a_slope_that_is_not_finite():
    # three samples from rest: ||u_t|| is 0 at t = 0, which leaves two
    # usable tail points for the dt fit, whose slope is then -inf
    _, sym, u0, u1 = abelian_setup(1e-3)
    traj = evolve_linear(u0, u1, 2.0, 1.0, sym, np.linspace(0.0, 6.0, 3))
    report = verify_semilinear_decay(traj, 2.0, 1.0, sym)
    assert report.slopes["dt"] == -np.inf and not report.trivial
    assert np.isfinite(report.slopes["l2"]) and report.slopes["l2"] < 0
    assert not report.passed
    # five samples leave four usable points: finite slopes, and a pass
    traj = evolve_linear(u0, u1, 2.0, 1.0, sym, np.linspace(0.0, 6.0, 5))
    report = verify_semilinear_decay(traj, 2.0, 1.0, sym)
    assert all(np.isfinite(s) for s in report.slopes.values()) and report.passed


def test_verify_semilinear_decay_fails_norms_that_end_growing():
    # hand-built trajectories, every norm exp(g(t)) times one field's: g
    # grows at slope +0.2 throughout, or falls at slope -3 over the first 40%
    # of the samples and then grows at +0.2.  Both tails grow, so both fail.
    # A verdict that passed slopes below +0.5 would pass both; one whose tail
    # started at 10% of the samples would fit -0.648 to the second and pass it
    _, sym, u0, _ = abelian_setup(1e-3)
    times = np.linspace(0.0, 10.0, 41)
    knee = times[16]  # the tail's first sample, floor(0.4 * 41)
    for g in (0.2 * times,
              np.where(times <= knee, -3.0 * times, -3.0 * knee + 0.2 * (times - knee))):
        fields = [AbelianCoefficients(u0.grid, np.exp(v) * u0.coefficients) for v in g]
        traj = LinearTrajectory(times, fields, fields, 2.0, 1.0)
        report = verify_semilinear_decay(traj, 2.0, 1.0, sym)
        assert report.tail_start == knee and not report.trivial
        assert report.slopes == pytest.approx(dict.fromkeys(report.slopes, 0.2), rel=1e-9)
        assert not report.passed


def test_verify_semilinear_decay_rejects_b_and_m_not_the_trajectorys():
    # the slopes read only the norms, so b and m other than the
    # trajectory's would be accepted silently with the same slopes
    _, sym, u0, u1 = abelian_setup(1e-3)
    traj = evolve_linear(u0, u1, 2.0, 2.0, sym, np.linspace(0.0, 6.0, 13))
    for b, m in ((50.0, 2.0), (2.0, 0.0)):
        with pytest.raises(ValueError, match="trajectory"):
            verify_semilinear_decay(traj, b, m, sym)
    assert verify_semilinear_decay(traj, 2, 2, sym).passed


def test_picard_status_labels():
    # no iteration cap, so no third status
    assert [s.value for s in PicardStatus] == ["Converged", "Diverged"]
