"""The semilinear damped wave equation: its discrete mild solution and the
contraction behind small-data global existence.

The mild-solution map is Gamma[u](t) = u_lin(t) + int_0^t K(t-s) f(u(s)) ds,
where u_lin is the linear evolution and K is the Duhamel kernel of the damped
mode system.  One recursion, `subwave.propagator._history`, computes both
terms on the uniform time grid: it steps the one-step propagator from the
Cauchy data and adds the composite-trapezoid kicks of the sources (O(H)
time, four arrays of extra memory, the error bound stated there).  Node k's
own source enters it only through the derivative's half-kick, so the
discrete equation u = Gamma[u] is explicit in time and one causal pass
solves it (the step-by-step trapezoid rule for Volterra equations of the
second kind; Linz, Analytical and Numerical Methods for Volterra Equations,
SIAM 1985, ch. 7).  `picard_solve` makes one pass, four such recursions
pulled in lockstep on one pair of work arrays: u*, whose source at node k
is f of node k's value (the discrete fixed point that Picard sweeps
converge to, in H calls to f, kept as 2H arrays); the Richardson recursion
of the same sources; the linear part u_lin; and e = Gamma[u_lin] - u*, from
zero data with the sources f(u_lin,k) - f(u*_k), in H more calls to f.  As
the recursion is linear in data and sources, e gives the contraction
quotient q = Z(e) / Z(u_lin - u*) (Z the weighted sup-in-time norm of
ZNormConfig) and e - (u_lin - u*) the increment Gamma[u_lin] - u_lin, with
no cancelling of arrays of the data's size.  The march stops at the first
node that is not finite or whose Z-norm term exceeds 4 Z(u_lin) over the
nodes so far, before its f(u_lin) is made: the bootstrap form of twice the
radius L = 2 C1 (data norm) of the contraction ball, C1 measured, not
assumed.  No array is made per node beyond u*.  A source skips the
boundary-decay gate when its value's L^2 norm is below 1e-2 of its
stream's running peak: such values synthesize to the noise floor, where
the relative boundary measure is meaningless.

Both backends take one code path through the model of `subwave.propagator`,
to which `_make_model` adds nonlinearity(c, nl, strict), the coefficients of
f(u): on a Heisenberg mode grid by synthesis to a box and re-analysis; on
an FFT grid (symbol of even order nu) through the inverse transform of the
model's layout, with the tuple U = (u, R^{1/nu}u, ...) of a
GeneralNonlinearity from the model's multipliers.  Real abelian data even
on every axis (and a real mu) stay on the even layout of `subwave.abelian`,
where f acts on the octant of the samples and non-real f samples are a
ValueError; real Heisenberg data synthesize to float64 samples.  A failed
boundary-decay gate, or non-finite f samples, raise NumericalFailure.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .abelian import _forward, _samples
from .propagator import _history, _Model, _Norms
from .spectral import SpectralField
from .transform import SpatialField, SpatialGrid, forward_transform, synthesize_on_grid

__all__ = [
    "PowerNonlinearity",
    "GeneralNonlinearity",
    "ZNormConfig",
    "NumericalFailure",
    "PicardStatus",
    "PicardDiagnostics",
    "apply_nonlinearity",
    "picard_solve",
    "verify_semilinear_decay",
    "SemilinearDecayReport",
]

# boundary-decay level above which synthesis-based nonlinearity evaluation
# refuses to trust the box quadrature; generous because late-time iterates
# decay to the transform noise floor, where the relative boundary measure
# rises while the absolute source contribution becomes negligible
_NL_BOUNDARY_LIMIT = 0.25


@dataclass(frozen=True)
class PowerNonlinearity:
    """f(u) = mu |u|^{p-1} u with p > 1; mu may be complex."""

    mu: complex
    p: float

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"power nonlinearity needs p > 1, got p={self.p}")

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        w = np.abs(u)
        w **= self.p - 1.0  # then times mu, then times u: in place where the dtype allows
        w = np.multiply(w, self.mu, out=w if np.isrealobj(self.mu) else None)
        return np.multiply(w, u, out=w if w.dtype == np.result_type(w, u) else None)


@dataclass(frozen=True)
class GeneralNonlinearity:
    """Pointwise callback on the tuple U = (u, R^{1/nu}u, ..., R^{(h-1)/nu}u).

    The callback receives h = ceil(nu/2) sample arrays and must return one
    array of the same shape with F(0) = 0, acting pointwise: on the abelian
    even layout the arrays are the octant of the samples.  The Heisenberg
    backend takes nu = 2 only, where U = (u,).
    """

    callback: object

    def __post_init__(self):
        if not callable(self.callback):
            raise ValueError("callback must be callable")


@dataclass(frozen=True)
class ZNormConfig:
    """Weighted sup-in-time norm: Z(u) is the max over the sample times t of
    weight(t) (||u|| + ||R^{1/nu} u|| + ||u_t||) at t, in L^2, with
    weight(t) = (1+t)^{weight_exponent} e^{delta t}.

    sample_times must be finite, strictly increasing and non-negative; they
    double as the Picard history grid, which starts at 0.
    """

    delta: float
    sample_times: tuple
    weight_exponent: float = -0.5

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("Z-norm rate delta must be positive")
        times = tuple(float(t) for t in self.sample_times)
        if len(times) < 2:
            raise ValueError("need at least two sample times")
        if not all(np.isfinite(times)):
            raise ValueError("sample times must be finite")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        if times[0] < 0:
            raise ValueError("sample times must be non-negative")
        object.__setattr__(self, "sample_times", times)

    def weight(self, t: float) -> float:
        return (1.0 + t) ** self.weight_exponent * np.exp(self.delta * t)


class NumericalFailure(ValueError, FloatingPointError):
    """A synthesized field fails the boundary-decay gate, or a nonlinearity
    produces non-finite samples: the run's numerics, not its input, broke."""


class PicardStatus(enum.Enum):
    CONVERGED = "Converged"
    DIVERGED = "Diverged"


@dataclass
class PicardDiagnostics:
    """What `picard_solve` measured.  iterations is 1 when the one Picard
    iterate Gamma[u_lin] was formed, 0 when the march stopped; z_norms is
    [Z(u_lin), Z(u*)]; increments is [Z(Gamma[u_lin] - u_lin)]; ratios is
    [q]; threshold is 4 Z(u_lin), c1 Z(u_lin) over the H^{nu/2} x L^2
    data_norm.  After a stop at t_stop, Z(u_lin), and with it threshold
    and c1, is over [0, t_stop], and Z(u*) is the stopping node's Z-norm
    term.  The Richardson quadrature_error at the horizon is NaN unless
    the solve converged over an even number of steps."""

    iterations: int
    z_norms: list
    increments: list
    ratios: list
    status: PicardStatus
    threshold: float
    data_norm: float
    c1: float
    quadrature_error: float = float("nan")


class _HeisenbergModel(_Model):
    def __init__(self, data, provider, b, m, synth):
        super().__init__(data, provider, b, m)
        self.synth = synth

    def nonlinearity(self, c, nl, strict: bool = True):
        limit = _NL_BOUNDARY_LIMIT if strict else None
        return apply_nonlinearity(self.wrap(c), nl, self.synth,
                                  boundary_limit=limit).coefficients


class _AbelianModel(_Model):
    def nonlinearity(self, c, nl, strict: bool = True):
        def samples(j):
            # R^{j/nu} is the multiplier of order j/2
            cj = c if j == 0 else self.multiplier(0.5 * j) * c
            return _samples(cj, self.grid, self.layout)

        out = _evaluate(nl, samples, max(1, (self.nu + 1) // 2))
        if self.layout == "full":
            out = out.astype(complex, copy=False)
        elif np.iscomplexobj(out):
            # a real mu typed complex gives zero imaginary parts
            if np.any(out.imag):
                raise ValueError("the nonlinearity returned non-real samples for "
                                 "real data; pass the data as complex samples")
            out = out.real
        # _evaluate has checked the samples: one pass over them per call
        return _forward(out, self.grid, self.layout)


def _evaluate(nl, samples, count):
    """f(u) from samples(j), the samples of R^{j/nu} u (the tuple j < count
    for a GeneralNonlinearity); NumericalFailure on non-finite output."""
    if isinstance(nl, PowerNonlinearity):
        out = nl.evaluate(samples(0))
    elif isinstance(nl, GeneralNonlinearity):
        out = nl.callback(tuple(samples(j) for j in range(count)))
    else:
        raise TypeError(f"unsupported nonlinearity {type(nl).__name__}")
    out = np.asarray(out)
    out = out.astype(complex if np.iscomplexobj(out) else float, copy=False)
    if not np.all(np.isfinite(out.view(float))):
        raise NumericalFailure("nonlinearity produced non-finite samples")
    return out


def _make_model(data, provider, b, m, synth=None, real=True):
    """The backend model, with its nonlinearity, for the type of data (one
    field or the Cauchy data); real=False keeps the full abelian layout."""
    first = data[0] if isinstance(data, tuple) else data
    if isinstance(first, SpectralField):
        return _HeisenbergModel(data, provider, b, m, synth)
    return _AbelianModel(data, provider, b, m, real)


def apply_nonlinearity(u: SpectralField, nl, synth: SpatialGrid,
                       boundary_limit: float | None = _NL_BOUNDARY_LIMIT,
                       ) -> SpectralField:
    """Synthesize u to the box, apply the pointwise nonlinearity, re-analyze.

    For GeneralNonlinearity on this backend the tuple is U = (u,), since the
    sub-Laplacian has nu = 2.  Raises NumericalFailure when the synthesized
    field fails the boundary-decay check (box too small for |u|^p) or
    powering produces non-finite values.  boundary_limit=None skips the decay
    check; callers do this for fields whose norm is negligible on the scale
    of the run, where the relative boundary measure only reports the
    synthesis noise floor.
    """
    if not isinstance(synth, SpatialGrid):
        raise TypeError("synth must be a SpatialGrid for the Heisenberg backend")
    f = synthesize_on_grid(u, synth)
    if boundary_limit is not None:
        decay = f.boundary_decay()
        if decay > boundary_limit:
            raise NumericalFailure(
                f"synthesized field has boundary decay {decay:.2e}; box too "
                "small for a trustworthy nonlinearity quadrature")
    g = _evaluate(nl, lambda j: f.samples, 1)
    return forward_transform(SpatialField(synth, g), u.grid, boundary_tol=None)


def _richardson(model, gaps, zero, source, work=None):
    """The recursion from zero data whose last value is T_h - T_2h, three
    times the Richardson error, at the last of an odd number of uniform
    nodes: minus T_h of source() with alternating signs, free of the rounding
    of two large T.  Odd sources go negated into zero, copied by then."""
    odd = itertools.cycle((False, True))
    return _history(model, gaps, (zero, zero), lambda _: (
        np.negative(source(), out=zero) if next(odd) else source()), work)


def _znorm_node(model, znorm, t, val, der, l2=None):
    """The weighted Z-norm term at time t of one node; l2 is ||val|| if known."""
    l2 = model.l2(val) if l2 is None else l2
    return znorm.weight(t) * (l2 + model.frac(val, 1) + model.l2(der))


class _Gate:
    """gate(l2) of one stream of sources: False, skipping the boundary-decay
    gate, when l2 is below 1e-2 of the stream's running peak."""
    peak = 0.0

    def __call__(self, l2):
        self.peak = max(self.peak, l2)
        return l2 >= 1e-2 * self.peak


def _march(model, nl, gaps, start, znorm):
    """The pass of `picard_solve`: u*'s values and derivatives, Z(u_lin),
    Z(u*) and (Z(Gamma[u_lin] - u_lin), q or 0 if u_lin is u*, Richardson
    estimate), None after a stop at a Z term above 4 Z(u_lin) so far."""
    times = znorm.sample_times
    # u* in two blocks of H nodes, made before any temporary, which reuses
    # memory freed below them (arrays made per node once took the half
    # layout's `abelian-picard` peak RSS from 112 to 128 MB)
    vals, ders = (np.empty((len(times),) + start[0].shape, start[0].dtype)
                  for _ in range(2))
    work = (np.empty_like(start[0]), np.empty_like(start[0]))
    dv, dd = np.empty_like(start[0]), np.zeros_like(start[0])
    star_gate, lin_gate = _Gate(), _Gate()
    l2 = f = None

    def source(val):
        nonlocal l2, f
        l2 = model.l2(val)
        f = model.nonlinearity(val, nl, strict=star_gate(l2))
        return f

    def difference(_):  # f(u_lin,k) - f(u*_k), in f(u_lin,k)'s array
        g = model.nonlinearity(lin_val, nl, strict=lin_gate(lin_l2))
        g -= f
        return g

    star = _history(model, gaps, start, source, work)
    rich = (_richardson(model, gaps, np.zeros_like(start[0]), lambda: f, work)
            if len(times) % 2 else None)
    lin = _history(model, gaps, start, None, work)
    # e = Gamma[u_lin] - u*; the recursion copies dd before the loop writes it
    error = _history(model, gaps, (dd, dd), difference, work)
    z_lin = z_star = inc = num = den = 0.0
    for k, t in enumerate(times):
        val, der = next(star)
        vals[k], ders[k] = val, der
        z_k = _znorm_node(model, znorm, t, val, der, l2)
        if rich:  # its source is this node's f; its step overwrites der
            last, _ = next(rich)
        lin_val, lin_der = next(lin)
        lin_l2 = model.l2(lin_val)
        z_lin = max(z_lin, _znorm_node(model, znorm, t, lin_val, lin_der, lin_l2))
        if not z_k <= 4.0 * z_lin:
            return vals[:k + 1], ders[:k + 1], z_lin, z_k, None
        z_star = max(z_star, z_k)
        e_val, e_der = next(error)
        num = max(num, _znorm_node(model, znorm, t, e_val, e_der))
        np.subtract(lin_val, vals[k], out=dv)
        np.subtract(lin_der, ders[k], out=dd)
        den = max(den, _znorm_node(model, znorm, t, dv, dd))
        inc = max(inc, _znorm_node(model, znorm, t, np.subtract(e_val, dv, out=dv),
                                   np.subtract(e_der, dd, out=dd)))
    return vals, ders, z_lin, z_star, (inc, num / den if den > 0 else 0.0,
                                       model.l2(last) / 3.0 if rich else float("nan"))


def picard_solve(u0, u1, nl, b, m, provider, znorm: ZNormConfig, synth=None):
    """Solve the discrete mild equation u = Gamma[u] by one causal march and
    measure the contraction of Gamma about its solution u*.

    u0, u1 are SpectralField (synth: SpatialGrid required) or
    AbelianCoefficients.  Returns (trajectory, diagnostics): u* with exact
    derivatives up to the node where the march stopped, and Converged when
    every node is finite, Z(u*) <= 4 Z(u_lin) and q < 1, else Diverged.
    """
    # a complex mu makes f(u) complex for real u: the solve stays on the
    # full layout of the abelian backend
    real = not (isinstance(nl, PowerNonlinearity) and np.imag(nl.mu) != 0)
    model = _make_model((u0, u1), provider, b, m, synth, real)
    c0, c1 = model.unwrap(u0), model.unwrap(u1)
    if isinstance(model, _HeisenbergModel):
        if synth is None:
            raise ValueError("nonlinear Heisenberg runs need a synthesis grid")
        if isinstance(nl, GeneralNonlinearity) and model.nu > 2:
            raise ValueError("a Heisenberg GeneralNonlinearity needs nu = 2, "
                             f"got nu = {model.nu}")
    times = np.asarray(znorm.sample_times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("sample times must start at t = 0")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("history times must be uniformly spaced")
    gaps = [0.0] + [float(steps[0])] * (times.size - 1)

    vals, ders, z_lin, z_star, quotient = _march(model, nl, gaps, (c0, c1), znorm)
    data_norm = model.data_norm(c0, c1)
    diag = PicardDiagnostics(0, [z_lin, z_star], [], [], PicardStatus.DIVERGED,
                             4.0 * z_lin, data_norm,
                             z_lin / data_norm if data_norm > 0 else 0.0)
    if quotient:
        inc, q, quad = quotient
        diag.iterations, diag.increments, diag.ratios = 1, [inc], [q]
        if q < 1.0:
            diag.status, diag.quadrature_error = PicardStatus.CONVERGED, quad
    return model.trajectory(times[:len(vals)], vals, ders), diag


@dataclass
class SemilinearDecayReport:
    slopes: dict
    tail_start: float
    passed: bool
    trivial: bool


def verify_semilinear_decay(trajectory, b, m, provider=None) -> SemilinearDecayReport:
    """Fit tail slopes of the three seminorms ||u||, ||R^{1/2}u||, ||u_t||.

    The middle seminorm uses the homogeneous multiplier of order nu/2 (the
    square root of the operator), matching the gradient-type quantity of the
    linear decay statement.  Slopes are fitted on the trailing 60% of the
    samples; passed means all three are finite and negative, so a fit from
    fewer than 3 usable tail points (slope -inf) fails.  The slopes do not
    depend on b and m, which must be the trajectory's own (ValueError
    otherwise).
    """
    if (b, m) != (trajectory.b, trajectory.m):
        raise ValueError(f"(b, m) = ({b}, {m}) is not the trajectory's "
                         f"({trajectory.b}, {trajectory.m})")
    times = np.asarray(trajectory.times, dtype=float)
    model = _Norms((*trajectory.fields, *trajectory.derivatives), provider)
    half = model.nu / 2.0
    values = [model.unwrap(f) for f in trajectory.fields]
    series = {
        "l2": np.array([model.l2(c) for c in values]),
        "half_operator": np.array([model.frac(c, half) for c in values]),
        "dt": np.array([model.l2(model.unwrap(d)) for d in trajectory.derivatives]),
    }
    peak = max(float(v.max()) for v in series.values())
    if peak == 0.0:
        return SemilinearDecayReport({k: 0.0 for k in series}, times[0], True, True)
    start = int(np.floor(0.4 * times.size))
    if times.size - start < 4:
        start = max(0, times.size - 4)
    slopes = {}
    for name, vals in series.items():
        tail = vals[start:]
        tt = times[start:]
        good = tail > peak * 1e-14
        if np.count_nonzero(good) < 3:
            slopes[name] = float("-inf")
            continue
        slopes[name] = float(np.polyfit(tt[good], np.log(tail[good]), 1)[0])
    passed = all(np.isfinite(s) and s < 0 for s in slopes.values())
    return SemilinearDecayReport(slopes, float(times[start]), passed, False)
