"""Exact per-mode propagation for the damped oscillator family.

Every spectral mode of the damped wave equation obeys the scalar ODE

    u'' + b u' + (omega^2 + m) u = g(t),    omega^2 = symbol value >= 0,

whose homogeneous solution is available in closed form in all three damping
regimes.  Writing total = omega^2 + m and Delta = total - b^2/4, both the
trigonometric (Delta > 0) and hyperbolic (Delta < 0) branches are the same
analytic functions of Delta:

    S(t) = sin(sqrt(Delta) t)/sqrt(Delta) = sinh(sqrt(-Delta) t)/sqrt(-Delta)
    C(t) = cos(sqrt(Delta) t)             = cosh(sqrt(-Delta) t)

so near the critical point the code switches to the common power series and
no branch ever cancels catastrophically.  The propagator and its exact time
derivative are

    u(t)  = e^{-bt/2} [ (C + (b/2) S) u0 + S u1 ]
    u'(t) = e^{-bt/2} [ -total S u0 + (C - (b/2) S) u1 ]

Both backends reach these factors through one model, `_Model`: SpectralField
coefficients on a Heisenberg mode grid and AbelianCoefficients on an FFT
grid.  It is the only code that reads a backend's symbol layout and norm
weighting, and it works on raw coefficient arrays c:

    factors(t)        closed-form (A0, A1, D0, D1): u(t) = A0 u0 + A1 u1,
                      u'(t) = D0 u0 + D1 u1
    l2(c)             L^2 norm
    sobolev(c, s)     inhomogeneous norm with multiplier (1 + R)^{2s/nu}
    frac(c, j)        homogeneous seminorm ||R^{j/nu} u||_{L^2}
    data_norm(c0, c1) the H^{nu/2} x L^2 norm of Cauchy data
    wrap(c), unwrap(u)  between c and the backend's field type
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .abelian import AbelianCoefficients, _norm_multiplier, symbol_on_grid
from .spectral import SpectralField, SubLaplacianSymbol, _csv_bytes

__all__ = [
    "Regime",
    "DampedModeParams",
    "classify_regime",
    "propagate_mode",
    "decay_rate",
    "evolve_linear",
    "LinearTrajectory",
    "verify_decay",
    "DecayReport",
    "export_trajectory_csv",
]

# relative half-width of the Delta-series window around the critical point
_CRITICAL_BAND = 1e-8


class Regime(enum.Enum):
    UNDERDAMPED = "underdamped"
    CRITICAL = "critical"
    OVERDAMPED = "overdamped"


@dataclass(frozen=True)
class DampedModeParams:
    """Damping b > 0, mass m >= 0, and mode frequency omega^2 >= 0."""

    b: float
    m: float
    omega2: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"damping must be positive, got b={self.b}")
        if self.m < 0:
            raise ValueError(f"mass must be non-negative, got m={self.m}")
        if self.omega2 < 0:
            raise ValueError(f"mode frequency omega^2 must be non-negative, got {self.omega2}")

    @property
    def total(self) -> float:
        return self.omega2 + self.m

    @property
    def delta(self) -> float:
        return self.total - 0.25 * self.b * self.b


def classify_regime(params: DampedModeParams) -> Regime:
    """Damping regime, with the series band counted as critical."""
    band = _CRITICAL_BAND * params.b * params.b
    if abs(params.delta) < band:
        return Regime.CRITICAL
    return Regime.UNDERDAMPED if params.delta > 0 else Regime.OVERDAMPED


def _sc_factors(delta, t):
    """S(t), C(t) for arrays of Delta and t, all regimes, branch-stable.

    Within |Delta| < _CRITICAL_BAND * scale the common 4-term Taylor series
    in Delta t^2 is used; its truncation error there is far below 1e-12.
    """
    delta = np.asarray(delta, dtype=float)
    t = np.asarray(t, dtype=float)
    delta, t = np.broadcast_arrays(delta, t)
    S = np.empty(delta.shape)
    C = np.empty(delta.shape)

    scale = np.maximum(np.abs(delta), 1.0)
    series = np.abs(delta) < _CRITICAL_BAND * scale
    osc = (~series) & (delta > 0)
    hyp = (~series) & (delta < 0)

    if np.any(osc):
        a = np.sqrt(delta[osc])
        at = a * t[osc]
        S[osc] = np.where(at == 0.0, t[osc], np.sin(at) / np.where(a == 0, 1.0, a))
        C[osc] = np.cos(at)
    if np.any(hyp):
        c = np.sqrt(-delta[hyp])
        ct = c * t[hyp]
        S[hyp] = np.where(ct == 0.0, t[hyp], np.sinh(ct) / c)
        C[hyp] = np.cosh(ct)
    if np.any(series):
        d = delta[series]
        ts = t[series]
        z = d * ts * ts
        S[series] = ts * (1.0 - z / 6.0 + z * z / 120.0 - z ** 3 / 5040.0)
        C[series] = 1.0 - z / 2.0 + z * z / 24.0 - z ** 3 / 720.0
    return S, C


def _mode_factors(total, b, t):
    """(A0, A1, D0, D1) with u(t) = A0 u0 + A1 u1 and u'(t) = D0 u0 + D1 u1.

    total = omega^2 + m broadcasts against t.  This is the one place where
    the envelope e^{-bt/2} is combined with S and C.
    """
    S, C = _sc_factors(total - 0.25 * b * b, t)
    env = np.exp(-0.5 * b * t)
    half_b = 0.5 * b
    return (env * (C + half_b * S), env * S,
            env * (-total * S), env * (C - half_b * S))


def propagate_mode(params: DampedModeParams, u0, u1, t):
    """Closed-form mode solution: returns (value, derivative) at time t.

    Inputs broadcast; complex data is propagated componentwise since the ODE
    is real-linear.  With u0 = 0 this is the Duhamel kernel: the response to
    unit impulse data (0, u1).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("propagation time must be non-negative")
    A0, A1, D0, D1 = _mode_factors(params.total, params.b, t)
    u0 = np.asarray(u0)
    u1 = np.asarray(u1)
    return A0 * u0 + A1 * u1, D0 * u0 + D1 * u1


def decay_rate(b: float, m: float) -> float:
    """Uniform decay rate delta0 = b/2 - sqrt(max(0, b^2/4 - m)).

    Infimum over omega^2 >= 0 of the per-mode envelope rates; the slowest
    mode is the bottom of the spectrum.
    """
    if b <= 0:
        raise ValueError("damping must be positive")
    if m < 0:
        raise ValueError("mass must be non-negative")
    return 0.5 * b - np.sqrt(max(0.0, 0.25 * b * b - m))


@dataclass
class LinearTrajectory:
    """Sampled linear evolution: values and exact derivatives per time."""

    times: np.ndarray
    fields: list
    derivatives: list
    b: float
    m: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("need a non-empty 1-d array of sample times")
        if not (len(self.fields) == len(self.derivatives) == self.times.size):
            raise ValueError("times and field lists must have equal length")


class _Model:
    """One backend as the solvers see it; the methods are listed in the
    module docstring.  Heisenberg (SpectralField): R = provider.values(grid)
    on the row index k of each (node, k, l) block, the sub-Laplacian by
    default, and each lambda node's Plancherel weight in the norms.  Abelian
    (AbelianCoefficients): R = symbol_on_grid(grid, provider), provider
    required, and the norms divided by the box volume.  Each norm multiplier
    is built once per (order, mass) and kept for the model's lifetime.
    """

    def __init__(self, state, provider, b, m):
        if b <= 0:
            raise ValueError("damping must be positive")
        if m < 0:
            raise ValueError("mass must be non-negative")
        if not isinstance(state, (SpectralField, AbelianCoefficients)):
            raise TypeError(f"unsupported state type {type(state).__name__}")
        grid = state.grid
        if isinstance(state, SpectralField):
            if provider is None:
                provider = SubLaplacianSymbol(power=1)
            self.sym = provider.values(grid)[:, :, None]
            self.weights, self.volume = grid.weights[:, None, None], 1.0
            self.field, self._attr = SpectralField, "coefficients"
            self._same_grid = lambda g: g.stamp == grid.stamp
        else:
            if provider is None:
                raise ValueError("abelian trajectories need an explicit symbol provider")
            self.sym = symbol_on_grid(grid, provider)
            self.weights, self.volume = None, grid.volume
            self.field, self._attr = AbelianCoefficients, "values"
            self._same_grid = lambda g: g == grid
        self.grid, self.nu = grid, provider.nu
        self.b, self.m = float(b), float(m)
        self.total = self.sym + self.m
        self._mults = {}

    def factors(self, t):
        return _mode_factors(self.total, self.b, t)

    def wrap(self, c):
        return self.field(self.grid, c)

    def unwrap(self, u):
        """The coefficients of u, which must be a field on the model's grid."""
        if not (isinstance(u, self.field) and self._same_grid(u.grid)):
            raise ValueError("fields live on different grids")
        return getattr(u, self._attr)

    def trajectory(self, times, values, derivs):
        return LinearTrajectory(times, [self.wrap(v) for v in values],
                                [self.wrap(d) for d in derivs], self.b, self.m)

    def multiplier(self, order, mass=None):
        """(mass + R)^{2 order/nu}, or R^{2 order/nu} when mass is None."""
        key = (float(order), mass)
        if key not in self._mults:
            self._mults[key] = _norm_multiplier(self.sym, self.nu, *key)
        return self._mults[key]

    def _norm(self, c, mult=None):
        if self.weights is not None:
            mult = self.weights if mult is None else self.weights * mult
        return float(np.sqrt(np.vdot(c, c if mult is None else mult * c).real
                             / self.volume))

    def l2(self, c):
        return self._norm(c)

    def sobolev(self, c, s):
        return self._norm(c, self.multiplier(s, 1.0))

    def frac(self, c, j):
        return self._norm(c, self.multiplier(j))

    def data_norm(self, c0, c1):
        return self.sobolev(c0, 0.5 * self.nu) + self.l2(c1)


def _linear_history(model, c0, c1, times):
    """Closed-form values and derivatives of the data (c0, c1) at each time."""
    values, derivs = [], []
    for t in times:
        A0, A1, D0, D1 = model.factors(float(t))
        values.append(A0 * c0 + A1 * c1)
        derivs.append(D0 * c0 + D1 * c1)
    return values, derivs


def evolve_linear(u0, u1, b: float, m: float, provider, times) -> LinearTrajectory:
    """Evolve Cauchy data modewise through the closed-form propagator.

    u0 and u1 are SpectralField on one mode grid or AbelianCoefficients on
    one FFT grid; the abelian backend needs its symbol as provider.
    """
    model = _Model(u0, provider, b, m)
    c0, c1 = model.unwrap(u0), model.unwrap(u1)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("sample times must be non-negative")
    return model.trajectory(times, *_linear_history(model, c0, c1, times))


@dataclass
class DecayReport:
    """Least-squares decay diagnosis of a sampled trajectory."""

    delta0: float
    fitted_slope: float
    envelope_constant: float
    tail_times: np.ndarray
    tail_lognorms: np.ndarray
    passed: bool
    trivial: bool = False


def verify_decay(traj: LinearTrajectory, provider, s: float = 0.0,
                 slope_tolerance: float = 0.05) -> DecayReport:
    """Fit the Sobolev-norm decay slope on the tail of a trajectory.

    The slope of log ||u(t)||_{H^s} is fit by least squares over the last 60%
    of the samples, which must number at least 8 and span at least 3/delta0.
    The report passes when the fitted slope is at most -delta0 (1 - tol).
    A zero-data trajectory is flagged trivial and passes vacuously.  The
    fields may be SpectralField or AbelianCoefficients.
    """
    delta0 = decay_rate(traj.b, traj.m)
    model = _Model(traj.fields[0], provider, traj.b, traj.m)
    norms = np.array([model.sobolev(model.unwrap(f), s) for f in traj.fields])
    data_scale = norms[0] + model.sobolev(model.unwrap(traj.derivatives[0]),
                                          s - 0.5 * model.nu)
    if data_scale == 0.0:
        return DecayReport(delta0, 0.0, 0.0, traj.times[:0], norms[:0],
                           passed=True, trivial=True)

    start = int(np.floor(0.4 * len(traj.times)))
    tail_t = traj.times[start:]
    tail_n = norms[start:]
    if tail_t.size < 8:
        raise ValueError(f"need at least 8 tail samples for a slope fit, got {tail_t.size}")
    span = tail_t[-1] - tail_t[0]
    if delta0 > 0 and span < 3.0 / delta0:
        raise ValueError(
            f"tail spans {span:.3g} but the fit needs at least {3.0 / delta0:.3g}"
        )
    if np.any(tail_n <= 0):
        raise ValueError("trajectory norm vanished on the tail; slope undefined")
    logn = np.log(tail_n)
    slope = np.polyfit(tail_t, logn, 1)[0]
    envelope = np.max(norms * np.exp(delta0 * traj.times)) / data_scale
    passed = slope <= -delta0 * (1.0 - slope_tolerance)
    if not passed:
        warnings.warn(
            f"fitted slope {slope:.6g} misses the decay rate bound "
            f"{-delta0 * (1.0 - slope_tolerance):.6g}",
            stacklevel=2,
        )
    return DecayReport(delta0, float(slope), float(envelope), tail_t, logn, passed)


def export_trajectory_csv(traj: LinearTrajectory, provider, s_values, path: str):
    """Write per-time norms to CSV: t, L2, H^s columns, decay envelope.  The
    fields may be SpectralField or AbelianCoefficients."""
    delta0 = decay_rate(traj.b, traj.m)
    model = _Model(traj.fields[0], provider, traj.b, traj.m)
    s_values = list(s_values)
    header = ["t", "l2"] + [f"h{s:g}" for s in s_values] + ["envelope"]
    rows = [[t, model.l2(c)] + [model.sobolev(c, s) for s in s_values]
            + [np.exp(-delta0 * t)]
            for t, c in zip(traj.times, map(model.unwrap, traj.fields))]
    with open(path, "wb") as fh:
        fh.write(_csv_bytes(header, rows))
