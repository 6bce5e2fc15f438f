"""Closed-form mode propagation against an independent ODE integrator."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from subwave import propagator
from subwave.propagator import (
    LinearTrajectory,
    decay_rate,
    evolve_linear,
    verify_decay,
)
from subwave.abelian import (AbelianCoefficients, AbelianGrid, abelian_forward,
                             abelian_from_function)
from subwave.spectral import (AbelianSymbol, SpectralField, SubLaplacianSymbol,
                              build_grid)

from conftest import propagate_mode


def ode_solution(b, total, u0, u1, t_end, t_eval=None):
    def rhs(_, y):
        return [y[1], -b * y[1] - total * y[0]]

    return solve_ivp(rhs, (0.0, t_end), [u0, u1], t_eval=t_eval,
                     method="DOP853", rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("delta", [0.0, 0.5e-8, -0.5e-8, 0.99e-8, -0.99e-8,
                                   1e-6, -1e-6, 0.99e-4, -0.99e-4])
def test_mode_factors_match_the_closed_forms_across_the_series_band(delta):
    # within |Delta| < 1e-8 the kernel sums the power series in Delta t^2,
    # outside it takes sin or sinh; up to t = 50 both must agree with the
    # closed forms to 1e-13 relative (measured 7e-16 in the band), which a
    # band widened to 1e-4 fails (2e-7 at Delta = 0.99e-4).  With b = 0.02
    # no factor changes sign for 0 < t <= 50, so the bound is pointwise.
    b = 0.02
    total = 0.25 * b * b + delta
    delta = total - 0.25 * b * b  # the Delta the kernel sees
    t = np.linspace(0.0, 50.0, 201)
    a = np.sqrt(abs(delta))
    if delta > 0:
        S, C = np.sin(a * t) / a, np.cos(a * t)
    elif delta < 0:
        S, C = np.sinh(a * t) / a, np.cosh(a * t)
    else:
        S, C = t, np.ones_like(t)
    env = np.exp(-0.5 * b * t)
    want = (env * (C + 0.5 * b * S), env * S, env * (-total * S),
            env * (C - 0.5 * b * S))
    for got, ref in zip(propagator._mode_factors(total, b, t), want):
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("delta", [2.0, 1e-4, 0.5e-8, 0.0, -0.5e-8, -1e-4, -2.0])
def test_sc_factors_at_signed_zero_time(delta):
    # in every regime S(+-0) = +-0 with the sign of t and C(+-0) = 1: the
    # closed forms sin(a t)/a and sinh(c t)/c keep t's signed zero unguarded
    S, C = propagator._sc_factors(np.full(2, delta), np.array([0.0, -0.0]))
    assert np.array_equal(S, [0.0, 0.0]) and np.array_equal(C, [1.0, 1.0])
    assert list(np.signbit(S)) == [False, True]


def test_initial_data_reproduced():
    val, der = propagate_mode(1.7, 0.3, 2.2, 0.8, -0.4, 0.0)
    assert val == pytest.approx(0.8, abs=0.0)
    assert der == pytest.approx(-0.4, abs=0.0)


def test_against_ode_integrator():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(60):
        b = rng.uniform(0.1, 5.0)
        m = rng.uniform(0.0, 4.0)
        om2 = rng.uniform(0.0, 25.0)
        u0, u1 = rng.uniform(-1, 1, 2)
        t = rng.uniform(0.05, 8.0)
        sol = ode_solution(b, om2 + m, u0, u1, t)
        val, der = propagate_mode(b, m, om2, u0, u1, t)
        scale = max(1.0, abs(u0), abs(u1))
        worst = max(worst, abs(val - sol.y[0, -1]) / scale,
                    abs(der - sol.y[1, -1]) / scale)
    assert worst < 1e-7


def test_complex_data_propagates_componentwise():
    p = (1.2, 0.7, 3.0)
    zr, zi = 0.3, -0.9
    vc, dc = propagate_mode(*p, zr + 1j * zi, 0.5 - 0.25j, 2.0)
    vr, dr = propagate_mode(*p, zr, 0.5, 2.0)
    vi, di = propagate_mode(*p, zi, -0.25, 2.0)
    assert vc == pytest.approx(vr + 1j * vi, rel=1e-13)
    assert dc == pytest.approx(dr + 1j * di, rel=1e-13)


def test_regime_continuity_at_critical_threshold():
    b = 2.0
    t = np.linspace(0.0, 10.0, 501)
    for sign in (+1.0, -1.0):
        for u0, u1 in ((1.0, 0.0), (0.0, 1.0), (0.3, -0.7)):
            v_crit, _ = propagate_mode(b, 0.5, 0.5, u0, u1, t)
            v_near, _ = propagate_mode(b, 0.5, 0.5 + sign * 1e-6, u0, u1, t)
            assert np.max(np.abs(v_crit - v_near)) < 1e-5


def test_duhamel_kernel_is_impulse_response():
    # the Duhamel kernel is the mode propagator with data (0, g)
    b, m, om2 = 0.9, 0.2, 4.0
    g = 1.7
    ts = np.array([0.0, 0.6, 3.2])
    ref = ode_solution(b, om2 + m, 0.0, g, ts[-1], t_eval=ts)
    kv, kd = propagate_mode(b, m, om2, 0.0, g, ts)
    assert np.allclose(kv, ref.y[0], rtol=1e-8, atol=1e-10)
    assert np.allclose(kd, ref.y[1], rtol=1e-8, atol=1e-10)


def test_duhamel_kernel_integrates_constant_source():
    # u'' + b u' + T u = g with zero data settles by u = (g/T)(1 - A0(t)),
    # A0 being the position response to data (1, 0)
    p = (1.4, 0.6, 2.4)
    g = 0.85
    t_end = 4.0
    s = np.linspace(0.0, t_end, 4001)
    kernel_vals = np.array([propagate_mode(*p, 0.0, g, t_end - sj)[0] for sj in s])
    integral = np.trapezoid(kernel_vals, s)
    a0, _ = propagate_mode(*p, 1.0, 0.0, t_end)
    closed = (g / (p[1] + p[2])) * (1.0 - a0)
    assert integral == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("b,m,expected", [
    (1.0, 1.0, 0.5),
    (2.0, 1.0, 1.0),
    (4.0, 1.0, 2.0 - np.sqrt(3.0)),
])
def test_decay_rate_values(b, m, expected):
    assert decay_rate(b, m) == pytest.approx(expected, rel=1e-14)


def test_decay_rate_validation():
    with pytest.raises(ValueError):
        decay_rate(0.0, 1.0)
    with pytest.raises(ValueError):
        decay_rate(1.0, -0.5)


@pytest.fixture()
def grid():
    return build_grid(0.3, 4.0, 16, 9.0, n=1)


def diagonal_data(grid, ladder=0.4):
    coeffs = np.zeros(grid.field_shape(), dtype=complex)
    lam = grid.lambda_nodes
    for k in range(grid.block_size):
        coeffs[:, k, k] = np.exp(-np.log(np.abs(lam)) ** 2) * ladder ** k
    return SpectralField(grid, coeffs)


def test_evolve_linear_time_zero_and_linearity(grid):
    sym = SubLaplacianSymbol(power=1)
    u0 = diagonal_data(grid)
    u1 = SpectralField(grid, 0.5 * diagonal_data(grid, ladder=0.7).coefficients)
    traj = evolve_linear(u0, u1, 2.0, 1.0, sym, [0.0, 1.0])
    assert np.allclose(traj.fields[0].coefficients, u0.coefficients, atol=1e-15)
    assert np.allclose(traj.derivatives[0].coefficients, u1.coefficients, atol=1e-15)
    scaled = evolve_linear(SpectralField(grid, 3.0 * u0.coefficients),
                           SpectralField(grid, 3.0 * u1.coefficients),
                           2.0, 1.0, sym, [0.0, 1.0])
    assert np.allclose(scaled.fields[1].coefficients,
                       3.0 * traj.fields[1].coefficients, rtol=1e-13)


def test_evolve_linear_symbol_rides_row_index(grid):
    # a single off-diagonal coefficient at (q, k, l) must evolve with the
    # frequency |lambda_q| mu_k, not mu_l
    sym = SubLaplacianSymbol(power=1)
    q, k, el = 10, 3, 0
    c0 = np.zeros(grid.field_shape(), dtype=complex)
    c0[q, k, el] = 1.0
    u0 = SpectralField(grid, c0)
    u1 = SpectralField.zeros(grid)
    t = 1.3
    traj = evolve_linear(u0, u1, 1.1, 0.4, sym, [0.0, t])
    om2_row = abs(grid.lambda_nodes[q]) * (2 * k + 1)
    expected, _ = propagate_mode(1.1, 0.4, om2_row, 1.0, 0.0, t)
    om2_col = abs(grid.lambda_nodes[q]) * (2 * el + 1)
    wrong, _ = propagate_mode(1.1, 0.4, om2_col, 1.0, 0.0, t)
    got = traj.fields[1].coefficients[q, k, el]
    assert got == pytest.approx(expected, rel=1e-12)
    assert abs(got - wrong) > 1e-3


def test_evolve_linear_validation(grid):
    sym = SubLaplacianSymbol(power=1)
    u0 = diagonal_data(grid)
    with pytest.raises(ValueError):
        evolve_linear(u0, u0, -1.0, 0.0, sym, [0.0, 1.0])
    with pytest.raises(ValueError):
        evolve_linear(u0, u0, 1.0, -0.1, sym, [0.0, 1.0])
    with pytest.raises(ValueError):
        evolve_linear(u0, u0, 1.0, 0.0, sym, [-0.5, 1.0])


@pytest.mark.parametrize("times, match", [
    ([0.0, np.nan, 1.0], "finite"),
    ([0.0, np.inf], "finite"),
    ([0.0, 2.0, 1.0], "non-decreasing"),
    ([], "non-empty"),
])
def test_evolve_linear_rejects_bad_time_grids(grid, times, match):
    # the recursion steps from one time to the next, so a non-finite or
    # decreasing grid is refused before any step is taken
    sym = SubLaplacianSymbol(power=1)
    u0 = diagonal_data(grid)
    with pytest.raises(ValueError, match=match):
        evolve_linear(u0, u0, 1.0, 0.0, sym, times)


def test_evolve_linear_repeats_a_repeated_time(grid):
    sym = SubLaplacianSymbol(power=1)
    u0 = diagonal_data(grid)
    u1 = SpectralField(grid, 0.5 * u0.coefficients)
    traj = evolve_linear(u0, u1, 2.0, 1.0, sym, [0.0, 0.7, 0.7])
    first, second = traj.fields[1].coefficients, traj.fields[2].coefficients
    assert np.array_equal(first, second) and first is not second
    assert traj.fields[0].coefficients is not u0.coefficients


@pytest.mark.parametrize("times, evaluations", [
    (np.linspace(0.0, 6.0, 129), 1),  # the step 3/64 is exact
    (np.linspace(0.0, 12.0, 40), 5),  # the rounded steps take 5 values
])
def test_linear_history_evaluates_factors_once_per_distinct_gap(
        grid, monkeypatch, times, evaluations):
    calls = []
    kernel = propagator._mode_factors

    def counting(total, b, t):
        calls.append(t)
        return kernel(total, b, t)

    monkeypatch.setattr(propagator, "_mode_factors", counting)
    u0 = diagonal_data(grid)
    evolve_linear(u0, u0, 2.0, 2.0, SubLaplacianSymbol(power=1), times)
    assert len(calls) == len(set(np.diff(times))) == evaluations


def _history_case(name, rng):
    """(model, symbol, c0, c1) for the error-bound tests: the three regime
    sets of the Duhamel sweep test, the order-4 symbol of the abelian
    benchmark on its 32^3 grid, and a Heisenberg mode grid."""
    if name == "heisenberg":
        grid = build_grid(0.3, 4.0, 16, 9.0, n=1)
        shape, b, m, field = grid.field_shape(), 2.0, 2.0, SpectralField
        sym = SubLaplacianSymbol(power=1)
    elif name == "order4-benchmark":
        grid = AbelianGrid((6.0,) * 3, (32, 32, 32))
        shape, b, m, field = grid.shape, 2.0, 2.0, AbelianCoefficients
        sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    else:
        b, m = {"underdamped": (1.3, 0.7), "all-regimes": (4.0, 0.0),
                "critical-underdamped": (2.0, 1.0)}[name]
        grid = AbelianGrid((np.pi,) * 3, (8, 8, 8))
        shape, field = grid.shape, AbelianCoefficients
        sym = AbelianSymbol(np.ones(3), order=2, radial=True)
    # complex data on the full layout: the model takes its layout from them
    c0, c1 = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
              for _ in range(2))
    data = (field(grid, c0), field(grid, c1))
    return propagator._Model(data, sym, b, m), sym, c0, c1


_HISTORY_CASES = ["underdamped", "all-regimes", "critical-underdamped",
                  "order4-benchmark", "heisenberg"]


def assert_near_closed_form(model, c0, c1, times, nodes, omega=0.0):
    """Every (value, derivative) node within a relative L^2 error of
    (4 H + omega t) eps of the closed form P(t) (c0, c1) at its time t, for
    H times."""
    for t, (val, der) in zip(times, nodes):
        bound = (4 * len(times) + omega * t) * np.finfo(float).eps
        A0, A1, D0, D1 = model.factors(t)
        for got, want in ((val, A0 * c0 + A1 * c1), (der, D0 * c0 + D1 * c1)):
            err = got - want
            assert np.vdot(err, err).real <= bound ** 2 * np.vdot(want, want).real


@pytest.mark.parametrize("H", [129, 513])
@pytest.mark.parametrize("name", _HISTORY_CASES)
def test_linear_history_stays_within_4_H_eps_of_the_closed_form(name, H, rng):
    # on a uniform grid whose step is exact, one rounding error per step,
    # none amplified: 4 H eps (measured at most 1.7 H eps)
    model, _, c0, c1 = _history_case(name, rng)
    times = np.linspace(0.0, 6.0, H)
    nodes = propagator._history(model, np.diff(times, prepend=0.0), (c0, c1))
    assert_near_closed_form(model, c0, c1, times, nodes)


@pytest.mark.parametrize("name", _HISTORY_CASES)
def test_evolve_linear_from_a_late_first_time_stays_near_the_closed_form(
        name, rng):
    # the first gap is the first time itself and the repeated time a zero
    # gap.  Off a uniform grid whose step is exact the closed form's own
    # rounding of its phase, about omega t eps with omega the largest
    # sqrt|Delta|, enters too: on the order-4 benchmark symbol (omega t up
    # to 421 here) the error reaches 39 eps against 4 H eps = 16 eps
    model, sym, c0, c1 = _history_case(name, rng)
    omega = np.sqrt(np.abs(model.sym + model.m - 0.25 * model.b ** 2)).max()
    times = [0.7, 1.4, 1.4, 2.0]
    traj = evolve_linear(model.wrap(c0), model.wrap(c1), model.b, model.m,
                         sym, times)
    nodes = zip(map(model.unwrap, traj.fields), map(model.unwrap, traj.derivatives))
    assert_near_closed_form(model, c0, c1, times, nodes, omega)


def test_trajectory_validation(grid):
    u = diagonal_data(grid)
    with pytest.raises(ValueError, match="equal length"):
        LinearTrajectory(np.array([0.0, 1.0]), [u], [u, u], 1.0, 0.0)


def test_verify_decay_passes_and_reports(grid):
    sym = SubLaplacianSymbol(power=1)
    u0 = diagonal_data(grid)
    u1 = SpectralField.zeros(grid)
    traj = evolve_linear(u0, u1, 2.0, 2.0, sym, np.linspace(0.0, 12.0, 40))
    for s in (0.0, 1.0):
        report = verify_decay(traj, sym, s=s)
        assert report.passed and not report.trivial
        assert report.delta0 == pytest.approx(1.0)
        assert report.fitted_slope <= -0.95
        assert report.envelope_constant > 0
        assert report.tail_times.size == report.tail_lognorms.size >= 8
        assert np.array_equal(np.log(report.norms[-report.tail_times.size:]),
                              report.tail_lognorms)
    # the H^0 series is the L^2 norm bit for bit, as the CLI's l2 column takes it
    norms = propagator._Norms(u0, sym)
    assert np.array_equal(verify_decay(traj, sym).norms,
                          [norms.l2(f.coefficients) for f in traj.fields])


def test_verify_decay_flags_slow_trajectory(grid):
    u = diagonal_data(grid)
    times = np.linspace(0.0, 12.0, 40)
    fake = LinearTrajectory(times, [u] * 40, [u] * 40, 2.0, 2.0)
    with pytest.warns(UserWarning, match="slope"):
        report = verify_decay(fake, SubLaplacianSymbol(power=1))
    assert not report.passed
    assert report.fitted_slope == pytest.approx(0.0, abs=1e-12)


def test_verify_decay_trivial_and_short_tail(grid):
    sym = SubLaplacianSymbol(power=1)
    zero = SpectralField.zeros(grid)
    times = np.linspace(0.0, 12.0, 40)
    traj = LinearTrajectory(times, [zero] * 40, [zero] * 40, 2.0, 2.0)
    report = verify_decay(traj, sym)
    assert report.trivial and report.passed
    short = evolve_linear(diagonal_data(grid), zero, 2.0, 2.0, sym,
                          np.linspace(0.0, 12.0, 10))
    with pytest.raises(ValueError, match="tail samples"):
        verify_decay(short, sym)
    cramped = evolve_linear(diagonal_data(grid), zero, 2.0, 2.0, sym,
                            np.linspace(0.0, 2.0, 40))
    with pytest.raises(ValueError, match="span"):
        verify_decay(cramped, sym)


def test_verify_decay_on_an_abelian_trajectory():
    grid = AbelianGrid((6.0,) * 3, (16, 16, 16))
    sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    u0 = abelian_forward(abelian_from_function(
        grid, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2.0)))
    u1 = AbelianCoefficients(grid, 0.3 * u0.coefficients)
    traj = evolve_linear(u0, u1, 2.0, 2.0, sym, np.linspace(0.0, 12.0, 40))
    for s in (0.0, 1.0):
        report = verify_decay(traj, sym, s=s)
        assert report.passed and not report.trivial
        assert report.fitted_slope <= -0.95
