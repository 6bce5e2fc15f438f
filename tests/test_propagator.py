"""Closed-form mode propagation against an independent ODE integrator."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from subwave.propagator import (
    DampedModeParams,
    LinearTrajectory,
    Regime,
    classify_regime,
    decay_rate,
    evolve_linear,
    export_trajectory_csv,
    propagate_mode,
    verify_decay,
)
from subwave.abelian import (AbelianCoefficients, AbelianGrid, abelian_forward,
                             abelian_from_function, abelian_l2_norm,
                             abelian_sobolev_norm)
from subwave.spectral import (AbelianSymbol, SpectralField, SubLaplacianSymbol,
                              build_grid)


def ode_solution(params, u0, u1, t_end, t_eval=None):
    def rhs(_, y):
        return [y[1], -params.b * y[1] - params.total * y[0]]

    return solve_ivp(rhs, (0.0, t_end), [u0, u1], t_eval=t_eval,
                     method="DOP853", rtol=1e-11, atol=1e-13)


def test_params_validation():
    with pytest.raises(ValueError, match="damping"):
        DampedModeParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="mass"):
        DampedModeParams(1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="frequency"):
        DampedModeParams(1.0, 1.0, -1.0)
    p = DampedModeParams(2.0, 0.5, 1.5)
    assert p.total == pytest.approx(2.0)
    assert p.delta == pytest.approx(1.0)


def test_classify_regime():
    assert classify_regime(DampedModeParams(2.0, 0.0, 2.0)) is Regime.UNDERDAMPED
    assert classify_regime(DampedModeParams(2.0, 0.0, 0.5)) is Regime.OVERDAMPED
    assert classify_regime(DampedModeParams(2.0, 1.0, 0.0)) is Regime.CRITICAL
    # within the series band the branch is counted as critical
    assert classify_regime(DampedModeParams(2.0, 1.0 + 1e-12, 0.0)) is Regime.CRITICAL


def test_initial_data_reproduced():
    p = DampedModeParams(1.7, 0.3, 2.2)
    val, der = propagate_mode(p, 0.8, -0.4, 0.0)
    assert val == pytest.approx(0.8, abs=0.0)
    assert der == pytest.approx(-0.4, abs=0.0)
    with pytest.raises(ValueError):
        propagate_mode(p, 1.0, 0.0, -0.1)


def test_against_ode_integrator():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(60):
        b = rng.uniform(0.1, 5.0)
        m = rng.uniform(0.0, 4.0)
        om2 = rng.uniform(0.0, 25.0)
        u0, u1 = rng.uniform(-1, 1, 2)
        t = rng.uniform(0.05, 8.0)
        p = DampedModeParams(b, m, om2)
        sol = ode_solution(p, u0, u1, t)
        val, der = propagate_mode(p, u0, u1, t)
        scale = max(1.0, abs(u0), abs(u1))
        worst = max(worst, abs(val - sol.y[0, -1]) / scale,
                    abs(der - sol.y[1, -1]) / scale)
    assert worst < 1e-7


def test_complex_data_propagates_componentwise():
    p = DampedModeParams(1.2, 0.7, 3.0)
    zr, zi = 0.3, -0.9
    vc, dc = propagate_mode(p, zr + 1j * zi, 0.5 - 0.25j, 2.0)
    vr, dr = propagate_mode(p, zr, 0.5, 2.0)
    vi, di = propagate_mode(p, zi, -0.25, 2.0)
    assert vc == pytest.approx(vr + 1j * vi, rel=1e-13)
    assert dc == pytest.approx(dr + 1j * di, rel=1e-13)


def test_regime_continuity_at_critical_threshold():
    b = 2.0
    t = np.linspace(0.0, 10.0, 501)
    crit = DampedModeParams(b, 0.5, 0.5)
    for sign in (+1.0, -1.0):
        near = DampedModeParams(b, 0.5, 0.5 + sign * 1e-6)
        for u0, u1 in ((1.0, 0.0), (0.0, 1.0), (0.3, -0.7)):
            v_crit, _ = propagate_mode(crit, u0, u1, t)
            v_near, _ = propagate_mode(near, u0, u1, t)
            assert np.max(np.abs(v_crit - v_near)) < 1e-5


def test_duhamel_kernel_is_impulse_response():
    # the Duhamel kernel is propagate_mode with data (0, g)
    p = DampedModeParams(0.9, 0.2, 4.0)
    g = 1.7
    ts = np.array([0.0, 0.6, 3.2])
    ref = ode_solution(p, 0.0, g, ts[-1], t_eval=ts)
    kv, kd = propagate_mode(p, 0.0, g, ts)
    assert np.allclose(kv, ref.y[0], rtol=1e-8, atol=1e-10)
    assert np.allclose(kd, ref.y[1], rtol=1e-8, atol=1e-10)


def test_duhamel_kernel_integrates_constant_source():
    # u'' + b u' + T u = g with zero data settles by u = (g/T)(1 - A0(t)),
    # A0 being the position response to data (1, 0)
    p = DampedModeParams(1.4, 0.6, 2.4)
    g = 0.85
    t_end = 4.0
    s = np.linspace(0.0, t_end, 4001)
    kernel_vals = np.array([propagate_mode(p, 0.0, g, t_end - sj)[0] for sj in s])
    integral = np.trapezoid(kernel_vals, s)
    a0, _ = propagate_mode(p, 1.0, 0.0, t_end)
    closed = (g / p.total) * (1.0 - a0)
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
    u1 = 0.5 * diagonal_data(grid, ladder=0.7)
    traj = evolve_linear(u0, u1, 2.0, 1.0, sym, [0.0, 1.0])
    assert np.allclose(traj.fields[0].coefficients, u0.coefficients, atol=1e-15)
    assert np.allclose(traj.derivatives[0].coefficients, u1.coefficients, atol=1e-15)
    scaled = evolve_linear(3.0 * u0, 3.0 * u1, 2.0, 1.0, sym, [0.0, 1.0])
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
    expected, _ = propagate_mode(DampedModeParams(1.1, 0.4, om2_row), 1.0, 0.0, t)
    om2_col = abs(grid.lambda_nodes[q]) * (2 * el + 1)
    wrong, _ = propagate_mode(DampedModeParams(1.1, 0.4, om2_col), 1.0, 0.0, t)
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


def test_export_trajectory_csv(tmp_path, grid):
    sym = SubLaplacianSymbol(power=1)
    traj = evolve_linear(diagonal_data(grid), SpectralField.zeros(grid),
                         2.0, 1.0, sym, np.linspace(0.0, 3.0, 7))
    path = tmp_path / "traj.csv"
    export_trajectory_csv(traj, sym, [0.5, 1.0], str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,l2,h0.5,h1,envelope"
    assert len(lines) == 8
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0 and first[-1] == 1.0
    assert b"\r" not in path.read_bytes()


def test_verify_decay_and_csv_on_an_abelian_trajectory(tmp_path):
    grid = AbelianGrid((6.0,) * 3, (16, 16, 16))
    sym = AbelianSymbol(np.ones(3), order=4, radial=True)
    u0 = abelian_forward(abelian_from_function(
        grid, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2.0)))
    u1 = AbelianCoefficients(grid, 0.3 * u0.values)
    traj = evolve_linear(u0, u1, 2.0, 2.0, sym, np.linspace(0.0, 12.0, 40))
    for s in (0.0, 1.0):
        report = verify_decay(traj, sym, s=s)
        assert report.passed and not report.trivial
        assert report.fitted_slope <= -0.95
    path = tmp_path / "traj.csv"
    export_trajectory_csv(traj, sym, [1.0], str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,l2,h1,envelope" and len(lines) == 41
    for line, f in zip(lines[1:], traj.fields):
        _, l2, h1, _ = map(float, line.split(","))
        assert l2 == pytest.approx(abelian_l2_norm(f), rel=1e-14)
        assert h1 == pytest.approx(abelian_sobolev_norm(f, sym, 1.0), rel=1e-14)
