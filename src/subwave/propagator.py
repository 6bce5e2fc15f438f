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

Both backends reach these factors through one model in two halves:
SpectralField coefficients on a Heisenberg mode grid and AbelianCoefficients
on an FFT grid, each symbol giving its values on its own layout.  It is the
only code that reads a backend's norm weighting, and the package's one home
for the homogeneous Sobolev norms ||R^{a/nu} u||.  It works on raw
coefficient arrays c on one layout, which on the abelian backend is the
octant of real cosine coefficients for real data even on every axis, else
the full DFT layout (see `subwave.abelian`).  The first half,
`_Norms(data, provider)`, is the function space:

    l2(c)             L^2 norm
    sobolev(c, s)     inhomogeneous norm with multiplier (1 + R)^{2s/nu}
    frac(c, j)        homogeneous seminorm ||R^{j/nu} u||_{L^2}
    data_norm(c0, c1) the H^{nu/2} x L^2 norm of Cauchy data
    wrap(c), unwrap(u)  between c and the backend's field type

The second half, `_Model(data, provider, b, m)`, adds the damping b, the
mass m and the dynamics:

    factors(t)        closed-form (A0, A1, D0, D1): u(t) = A0 u0 + A1 u1,
                      u'(t) = D0 u0 + D1 u1
    steps             factors(gap) per gap, kept for the model's lifetime
    trajectory(times, values, derivs)  a LinearTrajectory of wrapped fields

The mild solution u(t) = P(t)(u0, u1) + int_0^t K(t - s) f(u(s)) ds, with
P the propagator and K its velocity column, comes from one recursion,
`_history`: it steps P from node to node and adds the composite-trapezoid
kicks of the source f, made from each node's value as soon as it exists.
So the linear evolution, the semilinear march and the Richardson estimate
share its arithmetic, its in-place buffers (a yielded node is valid until
the next is pulled), the one-step tables in `steps` and its error bound
against the closed form, stated on `_history`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .abelian import AbelianCoefficients, _layout, _multiplicities, _relayout
from .spectral import SpectralField, SubLaplacianSymbol

__all__ = [
    "decay_rate",
    "evolve_linear",
    "LinearTrajectory",
    "verify_decay",
    "DecayReport",
]

# |Delta| below which _sc_factors takes the power series in place of the
# trigonometric or hyperbolic closed form
_CRITICAL_BAND = 1e-8


def _check_damping(b, m):
    """The standing assumptions b > 0 and m >= 0."""
    if not b > 0:
        raise ValueError(f"damping must be positive, got b={b}")
    if m < 0:
        raise ValueError(f"mass must be non-negative, got m={m}")


def _sc_factors(delta, t):
    """S(t), C(t) for arrays of Delta and t, all regimes, branch-stable.

    Within |Delta| < _CRITICAL_BAND the common 4-term Taylor series in
    Delta t^2 is used; for t <= 50 its truncation error there is far below
    1e-12 relative to the closed forms.
    """
    delta = np.asarray(delta, dtype=float)
    t = np.asarray(t, dtype=float)
    delta, t = np.broadcast_arrays(delta, t)
    S = np.empty(delta.shape)
    C = np.empty(delta.shape)

    series = np.abs(delta) < _CRITICAL_BAND
    osc = (~series) & (delta > 0)
    hyp = (~series) & (delta < 0)

    if np.any(osc):
        a = np.sqrt(delta[osc])
        at = a * t[osc]
        S[osc] = np.sin(at) / a
        C[osc] = np.cos(at)
    if np.any(hyp):
        c = np.sqrt(-delta[hyp])
        ct = c * t[hyp]
        S[hyp] = np.sinh(ct) / c
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


def decay_rate(b: float, m: float) -> float:
    """Uniform decay rate delta0 = b/2 - sqrt(max(0, b^2/4 - m)).

    Infimum over omega^2 >= 0 of the per-mode envelope rates; the slowest
    mode is the bottom of the spectrum.
    """
    _check_damping(b, m)
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


def _norm_multiplier(vals: np.ndarray, nu: int, order: float,
                     mass: float | None = None) -> np.ndarray:
    """The multiplier (mass + R)^{2 order/nu}, or R^{2 order/nu} when mass
    is None, from vals = R on the coefficient layout.  R^0 is 1 everywhere;
    a negative order without mass is singular where R vanishes."""
    if mass is None:
        if order < 0 and np.any(vals == 0):
            raise ValueError("negative homogeneous order is singular at xi = 0")
        mult = np.zeros_like(vals)
        nz = vals > 0
        mult[nz] = vals[nz] ** (2.0 * order / nu)
        if order == 0:
            mult[~nz] = 1.0
        return mult
    if mass == 0 and np.any(vals == 0):
        raise ValueError("mass-free multiplier is singular at xi = 0")
    return (mass + vals) ** (2.0 * order / nu)


class _Norms:
    """The first half of a backend model: layout, norms, wrap/unwrap (see
    the module docstring).  Both backends answer one protocol: the symbol
    provider's values(grid) is R on the coefficient layout, and a field
    holds its grid and its coefficients.  Heisenberg (SpectralField): the
    sub-Laplacian by default, and each lambda node's Plancherel weight in
    the norms.  Abelian (AbelianCoefficients): provider required, and the
    norms divided by the box volume.  Each norm multiplier times the
    weights, and each multiplier() asked for, is built once per (order,
    mass) and kept for the object's lifetime.

    data is one field or the Cauchy data (u0, u1); the model's grid and type
    are those of its first field.  The abelian layout is taken once, from
    all of data, by the rule of `subwave.abelian`: full when a nonzero datum
    is on it (any datum, when all are zero) or real is false, else even.  The even layout folds every
    axis: the weights slot holds the outer product of the axes'
    multiplicities (2 for an index k that stands for k and -k, 1 for k = 0
    and, at even N, the Nyquist index), and the symbol is R on the octant,
    the first of the full values since every AbelianSymbol is even in each
    coordinate.  `unwrap` puts any field on the model's layout.
    """

    def __init__(self, data, provider, real=True):
        data = data if isinstance(data, tuple) else (data,)
        state = data[0]
        self.grid, self.field = state.grid, type(state)
        self.layout = None  # the abelian layout; None on the Heisenberg backend
        if isinstance(state, SpectralField):
            provider = provider or SubLaplacianSymbol(power=1)
            self.weights, self.volume = state.grid.weights[:, None, None], 1.0
        elif isinstance(state, AbelianCoefficients):
            if provider is None:
                raise ValueError("abelian trajectories need an explicit symbol provider")
            full = max((bool(c.any()), _layout(c) == "full")
                       for c in map(self._coefficients, data))[1]
            self.layout = "full" if full or not real else "even"
            self.weights, self.volume = None, state.grid.volume
        else:
            raise TypeError(f"unsupported state type {type(state).__name__}")
        self.nu = provider.nu
        self.sym = provider.values(self.grid)
        if self.layout == "even":
            self.weights = math.prod(np.ix_(*map(_multiplicities, self.grid.shape)))
            self.sym = np.ascontiguousarray(
                self.sym[tuple(slice(h) for h in self.grid.even_shape)])
        self._mults, self._weighted_mults = {}, {}

    def wrap(self, c):
        return self.field(self.grid, c)

    def _coefficients(self, u):
        if not (isinstance(u, self.field) and u.grid == self.grid):
            raise ValueError("fields live on different grids")
        return u.coefficients

    def unwrap(self, u):
        """The coefficients of u on the model's layout; u must be a field on
        the model's grid, on that layout or the even one, or zero."""
        c = self._coefficients(u)
        return c if self.layout is None else _relayout(c, self.grid, self.layout)

    def multiplier(self, order, mass=None):
        """(mass + R)^{2 order/nu}, or R^{2 order/nu} when mass is None."""
        key = (float(order), mass)
        if key not in self._mults:
            self._mults[key] = _norm_multiplier(self.sym, self.nu, *key)
        return self._mults[key]

    def _weighted(self, order, mass=None):
        """The weights times multiplier(order, mass), built once per key."""
        key = (float(order), mass)
        if key not in self._weighted_mults:
            if self.weights is None:
                self._weighted_mults[key] = self.multiplier(order, mass)
            else:  # the multiplier itself is kept only if multiplier() made it
                mult = self._mults.get(key)
                self._weighted_mults[key] = self.weights * (
                    _norm_multiplier(self.sym, self.nu, *key) if mult is None else mult)
        return self._weighted_mults[key]

    def _reduce(self, c, w):
        """sqrt(Re <c, w c> / volume); w None is 1."""
        return float(np.sqrt(np.vdot(c, c if w is None else w * c).real
                             / self.volume))

    def l2(self, c):
        return self._reduce(c, self.weights)

    def sobolev(self, c, s):
        return self._reduce(c, self._weighted(s, 1.0))

    def frac(self, c, j):
        return self._reduce(c, self._weighted(j))

    def data_norm(self, c0, c1):
        return self.sobolev(c0, 0.5 * self.nu) + self.l2(c1)


class _Model(_Norms):
    """The whole backend model: `_Norms` plus damping b, mass m, the
    closed-form factors and the trajectory they sample."""

    def __init__(self, data, provider, b, m, real=True):
        _check_damping(b, m)
        super().__init__(data, provider, real)
        self.b, self.m = float(b), float(m)
        self.steps = {}  # factors(gap) per gap, shared by every recursion

    def factors(self, t):
        return _mode_factors(self.sym + self.m, self.b, t)

    def trajectory(self, times, values, derivs):
        return LinearTrajectory(times, [self.wrap(v) for v in values],
                                [self.wrap(d) for d in derivs], self.b, self.m)


def _history(model, gaps, start, source=None, work=None):
    """Yield node k = 0, 1, ... of the mild solution at t_k = g_0 + ... + g_k
    for the gaps g_k >= 0, from the Cauchy data start = (c0, c1).

    With P the closed-form propagator, e_2 the velocity slot and f_k the
    source of node k, the composite trapezoid rule for the Duhamel integral
    becomes the semigroup recursion

        Y_{-1} = start,  Y_k = P(g_k) (Y_{k-1} + (g_{k-1} + g_k)/2 e_2 f_{k-1}),

    and node k is Y_k + (0, g_k/2 f_k), since P(0) e_2 = e_2.  Without a
    source the kicks are skipped and node k is P(t_k) start.  P is evaluated
    once per distinct nonzero gap per model; a zero gap takes no step.

    Source of node k from node k's value: f_k = source(val_k) is called as
    soon as val_k exists, before the derivative's half-kick, so a source
    that reads its argument marches to the discrete mild solution in one
    pass.  f_k is read again in the step to node k + 1, and not after.

    Four arrays are updated in place and nothing is allocated per node: the
    yielded pair is valid only until the next node is pulled, and must not
    be written to.  Recursions pulled in lockstep may share work = (tmp,
    out), which hold only a sourced node's derivative (out) between steps.

    Error bound: the powers of P stay bounded for b > 0, m >= 0, so node k
    carries about k rounding errors of one step.  Against the closed form
    P(t_k) start, each of H nodes lies within a relative L^2 error of
    (4 H + omega t_k) eps, where omega is the largest sqrt|Delta| of the
    model: the second term is the closed form's own rounding of its phase.
    On uniform grids whose step is exact in binary the tests hold 4 H eps.
    """
    val, der = start[0].copy(), start[1].copy()
    tmp, out = work or (np.empty_like(val), np.empty_like(val))
    src = last = None
    for gap in map(float, gaps):
        if src is not None:
            der += np.multiply(0.5 * (last + gap), src, out=tmp)
        if gap != 0.0:
            if gap not in model.steps:
                model.steps[gap] = model.factors(gap)
            A0, A1, D0, D1 = model.steps[gap]
            np.multiply(D0, val, out=tmp)
            val *= A0
            val += np.multiply(A1, der, out=out)
            der *= D1
            der += tmp
        if source is None:
            yield val, der
        else:
            src, last = source(val), gap
            np.multiply(0.5 * gap, src, out=out)
            out += der
            yield val, out


def evolve_linear(u0, u1, b: float, m: float, provider, times) -> LinearTrajectory:
    """Evolve Cauchy data modewise through the closed-form propagator.

    u0 and u1 are SpectralField on one mode grid or AbelianCoefficients on
    one FFT grid; the abelian backend needs its symbol as provider.  The
    times must be finite, non-negative and non-decreasing: the samples are
    copies of the nodes of `_history` on the gaps between them, so for H
    times each lies within a relative L^2 error of (4 H + omega t) eps of
    the closed form P(t) (u0, u1), omega being the largest sqrt|Delta|.
    """
    model = _Model((u0, u1), provider, b, m)
    c0, c1 = model.unwrap(u0), model.unwrap(u1)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a non-empty 1-d array of sample times")
    if not np.all(np.isfinite(times)):
        raise ValueError("sample times must be finite")
    if np.any(times < 0):
        raise ValueError("sample times must be non-negative")
    if np.any(np.diff(times) < 0):
        raise ValueError("sample times must be non-decreasing")
    nodes = _history(model, np.diff(times, prepend=0.0), (c0, c1))
    return model.trajectory(times, *zip(*((v.copy(), d.copy())
                                          for v, d in nodes)))


@dataclass
class DecayReport:
    """Least-squares decay diagnosis of a sampled trajectory; norms holds the
    fitted norm ||u(t)||_{H^s} at every sample time, tail or not."""

    delta0: float
    fitted_slope: float
    envelope_constant: float
    tail_times: np.ndarray
    tail_lognorms: np.ndarray
    norms: np.ndarray
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
    model = _Norms((*traj.fields, *traj.derivatives), provider)
    norms = np.array([model.sobolev(model.unwrap(f), s) for f in traj.fields])
    data_scale = norms[0] + model.sobolev(model.unwrap(traj.derivatives[0]),
                                          s - 0.5 * model.nu)
    if data_scale == 0.0:
        return DecayReport(delta0, 0.0, 0.0, traj.times[:0], norms[:0], norms,
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
    return DecayReport(delta0, float(slope), float(envelope), tail_t, logn, norms,
                       passed)
