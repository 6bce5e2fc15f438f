"""Picard fixed-point machinery for the semilinear damped wave equation.

The mild-solution map is Gamma[u](t) = u_lin(t) + int_0^t K(t-s) f(u(s)) ds,
where u_lin is the linear evolution and K is the Duhamel kernel of the damped
mode system.  Both terms come from one semigroup, and one recursion,
`subwave.propagator._history`, computes them together: on the uniform time
grid it steps the one-step propagator from the Cauchy data and adds the
composite-trapezoid kicks of the sources (O(H) time, four arrays of N
coefficients of extra memory, and the error bound stated there).
This module iterates Gamma with it and measures contraction in a weighted
sup-in-time Z norm.

A Picard solve holds one iterate, values and derivatives: 2H arrays on the
data's coefficient layout, in place, plus the recursion's four arrays, the
source it holds and, on the abelian backend, the model's work array for
the inverse FFT.  On the abelian backend real data
(with a real mu, if f is a PowerNonlinearity) take the half spectrum of
`subwave.abelian`, N_1...N_{d-1}(N_d/2 + 1) entries per array instead of
N, and the solve stays real: a GeneralNonlinearity that returns non-real
samples for real data is a ValueError, mended by passing the data as
complex samples.  On the Heisenberg backend the transform of real samples
is an exactly Hermitian field, whose synthesis is float64 samples
(`subwave.transform`), so with a real f every sweep from real data stays
real.

Iterate 0 is the recursion without sources, and each sweep yields the whole
new iterate node by node: the sources f(u_k) are made one node at a time as
the recursion pulls them.  As it yields node k, old - new is written into
the old iterate's slot k, the Z-norm terms of that difference and of the
new value are taken, and the new node is copied over the slot before the
next node is pulled.  No source list, difference list, second iterate or
stored linear part is ever held.  The Richardson estimate of the quadrature
error is one more pass of the same recursion.

Two coefficient backends are supported through one code path: SpectralField
histories on a Heisenberg mode grid (nonlinearity applied by synthesis to a
spatial box and re-analysis), and AbelianCoefficients on an FFT grid with a
homogeneous symbol of arbitrary even order nu (nonlinearity applied through
the inverse FFT, with the tuple U = (u, R^{1/nu}u, ...) built from spectral
multipliers).  Divergence is declared against a threshold proportional to
the Z norm of the linear part, mirroring the contraction-ball radius
L = r * C1 * (data norm) with r = 2 and C1 measured, not assumed.

The solver sees a backend only through the model of `subwave.propagator`
(symbol, factors, norms, wrap/unwrap; see its module docstring), to which
`_make_model` adds the backend's nonlinearity(c, nl, strict): the
coefficients of f(u).  On the abelian backend the R^{j/nu} factors of a
GeneralNonlinearity's tuple come from the model's cached norm multipliers.
A synthesized field that fails the boundary-decay gate, or a nonlinearity
that produces non-finite samples, raises NumericalFailure.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from .abelian import AbelianField, abelian_forward, abelian_inverse
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
    array of the same shape with F(0) = 0.  The Heisenberg backend takes
    nu = 2 only, where U = (u,).
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
    MAX_ITER = "MaxIter"


@dataclass
class PicardDiagnostics:
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
    def __init__(self, data, provider, b, m, real=True):
        super().__init__(data, provider, b, m, real)
        # the passes of the inverse FFT over the leading axes, in place
        self._work = np.empty(self.sym.shape, dtype=complex)

    def nonlinearity(self, c, nl, strict: bool = True):
        def samples(j):
            # R^{j/nu} is the multiplier of order j/2
            cj = c if j == 0 else self.multiplier(0.5 * j) * c
            return abelian_inverse(self.wrap(cj), work=self._work).samples

        out = _evaluate(nl, samples, max(1, (self.nu + 1) // 2))
        if not self.real:
            out = out.astype(complex, copy=False)
        elif np.iscomplexobj(out):
            # a real mu typed complex gives zero imaginary parts
            if np.any(out.imag):
                raise ValueError("the nonlinearity returned non-real samples for "
                                 "real data; pass the data as complex samples")
            out = out.real
        return abelian_forward(AbelianField(self.grid, out)).coefficients


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


def _uniform_step(times: np.ndarray) -> float:
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("history times must be uniformly spaced")
    return float(steps[0])


def _richardson_error(model, gaps, sources, zero):
    """Richardson estimate ||T_h - T_2h|| / 3 at the last of an odd number
    of nodes, T_h being the trapezoid Duhamel value on the uniform gaps
    [0, h, h, ...] and zero an array of zero coefficients.

    T_h - T_2h is minus the T_h value of the sources with alternating
    signs, so one sweep from zero data forms the difference directly;
    subtracting two separate sweeps would leave each one's rounding, which
    is relative to the much larger T_h, in the small difference.
    """
    flipped = (-src if k % 2 else src for k, src in enumerate(sources))
    val, _ = deque(_history(model, gaps, (zero, zero), flipped), maxlen=1)[0]
    return model.l2(val) / 3.0


def _znorm_node(model, znorm, t, val, der):
    """(weighted Z-norm terms at time t, L^2 norm of val) for one node."""
    l2 = model.l2(val)
    return znorm.weight(t) * (l2 + model.frac(val, 1) + model.l2(der)), l2


def _znorm_arrays(model, znorm, values, derivs, times):
    """Z norm from raw coefficient arrays (values/derivs lists), and the
    L^2 norm of every value."""
    best, l2s = 0.0, []
    for t, val, der in zip(times, values, derivs):
        z, l2 = _znorm_node(model, znorm, t, val, der)
        best = max(best, z)
        l2s.append(l2)
    return best, l2s


def picard_solve(u0, u1, nl, b, m, provider, znorm: ZNormConfig,
                 tol: float = 1e-8, max_iter: int = 25, synth=None):
    """Iterate the mild-solution map to a fixed point on the Z-norm ball.

    u0, u1 are SpectralField (synth: SpatialGrid required) or
    AbelianCoefficients.  Returns (trajectory, diagnostics); the
    trajectory holds values and exact-derivative fields at the sample times.
    Divergence is flagged when the iterate Z norm exceeds twice the measured
    threshold L = 2 * Z(linear part); it is a diagnostic, not an exception.
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
    H = times.size
    gaps = [0.0] + [_uniform_step(times)] * (H - 1)

    # iterate 0 is the linear part; each sweep starts from (c0, c1), so it
    # yields whole new iterates, copied node by node into these arrays
    cur_val, cur_der = zip(*((v.copy(), d.copy())
                             for v, d in _history(model, gaps, (c0, c1))))
    data_norm = model.data_norm(c0, c1)
    z_lin, norms = _znorm_arrays(model, znorm, cur_val, cur_der, times)
    c1_const = z_lin / data_norm if data_norm > 0 else 0.0
    threshold = 4.0 * z_lin  # 2 * L with L = 2 * C1 * (data norm) = 2 * Z(u_lin)

    diagnostics = PicardDiagnostics(0, [z_lin], [], [], PicardStatus.MAX_ITER,
                                    threshold, data_norm, c1_const)
    if data_norm == 0.0:
        diagnostics.status = PicardStatus.CONVERGED
        diagnostics.iterations = 1
        diagnostics.increments.append(0.0)
        return model.trajectory(times, cur_val, cur_der), diagnostics

    def sources(l2s):
        # Boundary-decay vetting only matters for fields that carry weight.
        # Entries far below the history peak synthesize to the noise floor,
        # where the relative boundary measure is meaningless; their |u|^p
        # contribution is below quadrature resolution either way.  The sweep
        # pulls source k before it yields node k, so f is applied to the
        # iterate cur_val[k] holds before the loop below replaces it.
        ref = max(l2s)
        return (model.nonlinearity(cur_val[k], nl, strict=(nv >= 1e-2 * ref))
                for k, nv in enumerate(l2s))

    prev_inc = None
    status = PicardStatus.MAX_ITER
    for it in range(1, max_iter + 1):
        inc = z_cur = 0.0
        new_norms = []
        sweep = _history(model, gaps, (c0, c1), sources(norms))
        for k, (new_val, new_der) in enumerate(sweep):
            # source k is made, so slot k is free: it takes old - new for
            # the increment's norms (negation is exact), then the new node
            old_val, old_der = cur_val[k], cur_der[k]
            old_val -= new_val
            old_der -= new_der
            z_diff, _ = _znorm_node(model, znorm, times[k], old_val, old_der)
            z_new, l2 = _znorm_node(model, znorm, times[k], new_val, new_der)
            inc, z_cur = max(inc, z_diff), max(z_cur, z_new)
            new_norms.append(l2)
            old_val[...] = new_val
            old_der[...] = new_der
        norms = new_norms
        diagnostics.increments.append(inc)
        diagnostics.z_norms.append(z_cur)
        if prev_inc is not None and prev_inc > 0:
            diagnostics.ratios.append(inc / prev_inc)
        prev_inc = inc
        diagnostics.iterations = it
        if not np.isfinite(z_cur) or z_cur > threshold:
            status = PicardStatus.DIVERGED
            break
        if inc <= tol * max(z_cur, 1e-300):
            status = PicardStatus.CONVERGED
            break

    diagnostics.status = status
    # Richardson half-step estimate of the Duhamel quadrature at the horizon
    if status is PicardStatus.CONVERGED and (H - 1) >= 2 and (H - 1) % 2 == 0:
        diagnostics.quadrature_error = _richardson_error(
            model, gaps, sources(norms), np.zeros_like(c0))
    return model.trajectory(times, cur_val, cur_der), diagnostics


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
    samples; passed means all three are negative.  The slopes do not depend
    on b and m, which must be the trajectory's own (ValueError otherwise).
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
    passed = all(s < 0 for s in slopes.values())
    return SemilinearDecayReport(slopes, float(times[start]), passed, False)
