"""Picard fixed-point machinery for the semilinear damped wave equation.

The mild-solution map is Gamma[u](t) = u_lin(t) + int_0^t K(t-s) f(u(s)) ds,
where u_lin is the closed-form linear evolution and K is the Duhamel kernel
of the damped mode system.  This module iterates Gamma on a uniform time
grid with composite-trapezoid quadrature, evaluated at all H samples at once
by the semigroup recursion of the one-step propagator (O(H) time, O(N) extra
memory for N coefficients), measures contraction in a weighted sup-in-time
Z norm, and exposes the smallness-threshold search.

A Picard solve holds the linear part and one iterate, values and derivatives
of each: 4H coefficient arrays.  Each sweep streams: the sources f(u_k) are
made one node at a time as the quadrature pulls them, and as it yields node k
the new value is formed, its terms and those of its difference to the old
iterate enter the two Z norms, and it replaces the old iterate at k.  No
source list, difference list or second iterate is ever held.

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
from fractions import Fraction

import numpy as np

from .abelian import AbelianField, abelian_forward, abelian_inverse
from .propagator import _linear_history, _Model
from .spectral import SpectralField
from .transform import SpatialField, SpatialGrid, forward_transform, synthesize_on_grid

__all__ = [
    "PowerNonlinearity",
    "GeneralNonlinearity",
    "Admissibility",
    "check_admissible",
    "ZNormConfig",
    "NumericalFailure",
    "PicardStatus",
    "PicardDiagnostics",
    "apply_nonlinearity",
    "duhamel_step",
    "DuhamelResult",
    "z_norm",
    "picard_solve",
    "find_epsilon0",
    "Epsilon0Estimate",
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
        return self.mu * np.abs(u) ** (self.p - 1.0) * u


@dataclass(frozen=True)
class GeneralNonlinearity:
    """Pointwise callback on the tuple U = (u, R^{1/nu}u, ..., R^{(h-1)/nu}u).

    The callback receives h = ceil(nu/2) sample arrays and must return one
    array of the same shape with F(0) = 0.  p and lipschitz feed the
    admissibility check and the contraction heuristics only.
    """

    callback: object
    p: float
    lipschitz: float = 1.0

    def __post_init__(self):
        if not callable(self.callback):
            raise ValueError("callback must be callable")
        if not self.p > 1:
            raise ValueError(f"nonlinearity order needs p > 1, got p={self.p}")
        if self.lipschitz <= 0:
            raise ValueError("lipschitz constant must be positive")


@dataclass(frozen=True)
class Admissibility:
    admissible: bool
    bound: Fraction
    backend: str


def check_admissible(p, n=None, Q=None) -> Admissibility:
    """Small-data existence range for the power p.

    Heisenberg branch (pass n): p <= 1 + 1/n.  General homogeneous branch
    (pass Q): requires Q >= 3 and gives p <= 1 + 2/(Q-2).
    """
    p = Fraction(p) if not isinstance(p, float) else Fraction(p).limit_denominator(10 ** 9)
    if not p > 1:
        raise ValueError("admissibility is defined for p > 1")
    if (n is None) == (Q is None):
        raise ValueError("pass exactly one of n (Heisenberg) or Q (general)")
    if n is not None:
        if n < 1:
            raise ValueError("Heisenberg index n must be >= 1")
        bound = 1 + Fraction(1, int(n))
        return Admissibility(p <= bound, bound, f"heisenberg(n={n})")
    Q = Fraction(Q) if not isinstance(Q, float) else Fraction(Q).limit_denominator(10 ** 9)
    if Q < 3:
        raise ValueError(f"general admissibility needs homogeneous dimension Q >= 3, got {Q}")
    bound = 1 + Fraction(2) / (Q - 2)
    return Admissibility(p <= bound, bound, f"graded(Q={Q})")


@dataclass(frozen=True)
class ZNormConfig:
    """Weighted sup-in-time norm: weight(t) = (1+t)^{weight_exponent} e^{delta t}.

    sample_times must be sorted and start at 0; they double as the Picard
    history grid.  fractional_orders lists the j for which the seminorm
    ||R^{j/nu} u||_{L^2} is included (nu taken from the symbol provider).
    """

    delta: float
    sample_times: tuple
    weight_exponent: float = -0.5
    include_l2: bool = True
    include_dt: bool = True
    fractional_orders: tuple = (1,)

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("Z-norm rate delta must be positive")
        times = tuple(float(t) for t in self.sample_times)
        if len(times) < 2:
            raise ValueError("need at least two sample times")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        if times[0] < 0:
            raise ValueError("sample times must be non-negative")
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "fractional_orders", tuple(int(j) for j in self.fractional_orders))

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
    def __init__(self, state, provider, b, m, synth):
        super().__init__(state, provider, b, m)
        self.synth = synth

    def nonlinearity(self, c, nl, strict: bool = True):
        if not c.any():
            return np.zeros_like(c)
        limit = _NL_BOUNDARY_LIMIT if strict else None
        return apply_nonlinearity(self.wrap(c), nl, self.synth,
                                  boundary_limit=limit).coefficients


class _AbelianModel(_Model):
    def nonlinearity(self, c, nl, strict: bool = True):
        if not c.any():
            return np.zeros_like(c)
        if isinstance(nl, PowerNonlinearity):
            u = abelian_inverse(self.wrap(c)).samples
            out = nl.evaluate(u)
        else:
            comps = []
            for j in range(max(1, (self.nu + 1) // 2)):
                # R^{j/nu} is the multiplier of order j/2
                cj = c if j == 0 else self.multiplier(0.5 * j) * c
                comps.append(abelian_inverse(self.wrap(cj)).samples)
            out = nl.callback(tuple(comps))
        out = np.asarray(out, dtype=complex)
        if not np.all(np.isfinite(out.view(float))):
            raise NumericalFailure("nonlinearity produced non-finite samples")
        return abelian_forward(AbelianField(self.grid, out)).values


def _make_model(state, provider, b, m, synth=None):
    """The backend model, with its nonlinearity, for a state's type."""
    if isinstance(state, SpectralField):
        return _HeisenbergModel(state, provider, b, m, synth)
    return _AbelianModel(state, provider, b, m)


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
    if isinstance(nl, PowerNonlinearity):
        g = nl.evaluate(f.samples)
    elif isinstance(nl, GeneralNonlinearity):
        g = nl.callback((f.samples,))
    else:
        raise TypeError(f"unsupported nonlinearity {type(nl).__name__}")
    g = np.asarray(g, dtype=complex)
    if not np.all(np.isfinite(g.view(float))):
        raise NumericalFailure("nonlinearity produced non-finite samples")
    return forward_transform(SpatialField(synth, g), u.grid, boundary_tol=None)


@dataclass
class DuhamelResult:
    field: SpectralField
    derivative: SpectralField
    richardson_error: float


def _uniform_step(times: np.ndarray) -> float:
    steps = np.diff(times)
    if steps.size == 0:
        return 0.0
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("history times must be uniformly spaced")
    return float(steps[0])


def _duhamel_sweep(model, hh, sources):
    """Yield the composite-trapezoid Duhamel integral at every node.

    sources yields f(u) at the nodes of a uniform grid of step hh; the k-th
    item is (value, derivative) of int_0^{t_k} K(t_k - s) f(u(s)) ds.  The
    semigroup property P(a + b) = P(a) P(b) of the one-step propagator P(hh)
    turns the sum into the recursion Y_0 = 0, Y_{k+1} = P(hh)(Y_k + c_k e_2 s_k)
    (c_0 = hh/2, else hh), whose value at node k >= 1 is Y_k + (0, hh/2 s_k),
    since P(0) e_2 = e_2; at node 0 it is 0.  The factors are evaluated once: O(H) time and O(N)
    extra memory for H nodes of N coefficients.  The powers of P stay
    bounded for b > 0, m >= 0, so the recursion does not amplify rounding.
    """
    A0, A1, D0, D1 = model.factors(hh)
    sources = iter(sources)
    prev = next(sources)
    val = np.zeros_like(prev)
    der = np.zeros_like(prev)
    yield val, der
    weight = 0.5 * hh
    for src in sources:
        kick = der + weight * prev
        val, der = A0 * val + A1 * kick, D0 * val + D1 * kick
        yield val, der + 0.5 * hh * src
        prev, weight = src, hh


def _richardson_error(model, hh, sources):
    """Richardson estimate ||T_hh - T_2hh|| / 3 at the last of an odd number
    of nodes, T_hh being the trapezoid Duhamel value on step hh.

    T_hh - T_2hh is minus the T_hh value of the sources with alternating
    signs, so one sweep forms the difference directly; subtracting two
    separate sweeps would leave each one's rounding, which is relative to
    the much larger T_hh, in the small difference.
    """
    flipped = (-src if k % 2 else src for k, src in enumerate(sources))
    val, _ = deque(_duhamel_sweep(model, hh, flipped), maxlen=1)[0]
    return model.l2(val) / 3.0


def duhamel_step(source_history, b, m, provider, t, stride: int = 1):
    """Composite-trapezoid Duhamel integral of a source history.

    source_history is a LinearTrajectory whose fields hold f(u(s)) at the
    uniform sample times; t must coincide with one of them, and with every
    stride-th one.  Returns a DuhamelResult carrying the value, its time
    derivative, and a Richardson error estimate against the quadrature with
    twice the stride (nan when that stride does not reach t).  The trapezoid
    sum over the H nodes up to t is evaluated by the propagator's semigroup
    recursion in O(H) time and O(N) extra memory (N coefficients per field).
    """
    times = np.asarray(source_history.times, dtype=float)
    h = _uniform_step(times)
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the source history grid")
    if idx % stride:
        raise ValueError(f"time {t} is sample {idx}, not a multiple of stride {stride}")
    model = _Model(source_history.fields[0], provider, b, m)
    nodes = [model.unwrap(f) for f in source_history.fields[:idx + 1:stride]]
    val, der = deque(_duhamel_sweep(model, h * stride, nodes), maxlen=1)[0]
    rich = float("nan")
    if idx >= 2 * stride and idx % (2 * stride) == 0:
        rich = _richardson_error(model, h * stride, nodes)
    return DuhamelResult(model.wrap(val), model.wrap(der), rich)


def _znorm_node(model, znorm, t, val, der):
    """(weighted Z-norm terms at time t, L^2 norm of val) for one node."""
    l2 = model.l2(val)
    total = l2 if znorm.include_l2 else 0.0
    for j in znorm.fractional_orders:
        total += model.frac(val, j)
    if znorm.include_dt:
        total += model.l2(der)
    return znorm.weight(t) * total, l2


def _znorm_arrays(model, znorm, values, derivs, times):
    """Z norm from raw coefficient arrays (values/derivs lists), and the
    L^2 norm of every value."""
    best, l2s = 0.0, []
    for t, val, der in zip(times, values, derivs):
        z, l2 = _znorm_node(model, znorm, t, val, der)
        best = max(best, z)
        l2s.append(l2)
    return best, l2s


def z_norm(trajectory, znorm: ZNormConfig, provider=None) -> float:
    """Weighted sup-in-time norm of a trajectory.

    provider defaults to the symbol the trajectory's fields were built with;
    it must be passed for fractional seminorms (and is required for abelian
    trajectories, whose fields carry no symbol)."""
    model = _Model(trajectory.fields[0], provider, trajectory.b, trajectory.m)
    values = [model.unwrap(f) for f in trajectory.fields]
    derivs = [model.unwrap(f) for f in trajectory.derivatives]
    times = np.asarray(trajectory.times, dtype=float)
    return _znorm_arrays(model, znorm, values, derivs, times)[0]


def picard_solve(u0, u1, nl, b, m, provider, znorm: ZNormConfig,
                 tol: float = 1e-8, max_iter: int = 25, synth=None):
    """Iterate the mild-solution map to a fixed point on the Z-norm ball.

    u0, u1 are SpectralField (synth: SpatialGrid required when nl is not
    None) or AbelianCoefficients.  Returns (trajectory, diagnostics); the
    trajectory holds values and exact-derivative fields at the sample times.
    Divergence is flagged when the iterate Z norm exceeds twice the measured
    threshold L = 2 * Z(linear part); it is a diagnostic, not an exception.
    """
    model = _make_model(u0, provider, b, m, synth)
    c0, c1 = model.unwrap(u0), model.unwrap(u1)
    if isinstance(model, _HeisenbergModel) and nl is not None and synth is None:
        raise ValueError("nonlinear Heisenberg runs need a synthesis grid")
    times = np.asarray(znorm.sample_times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("sample times must start at t = 0")
    h = _uniform_step(times)
    H = times.size

    lin_val, lin_der = _linear_history(model, c0, c1, times)
    data_norm = model.data_norm(c0, c1)
    z_lin, norms = _znorm_arrays(model, znorm, lin_val, lin_der, times)
    c1_const = z_lin / data_norm if data_norm > 0 else 0.0
    threshold = 4.0 * z_lin  # 2 * L with L = 2 * C1 * (data norm) = 2 * Z(u_lin)

    diagnostics = PicardDiagnostics(0, [z_lin], [], [], PicardStatus.MAX_ITER,
                                    threshold, data_norm, c1_const)
    if nl is None or data_norm == 0.0:
        diagnostics.status = PicardStatus.CONVERGED
        diagnostics.iterations = 1
        diagnostics.increments.append(0.0)
        return model.trajectory(times, lin_val, lin_der), diagnostics

    # The iterate is replaced node by node as the sweep yields; the linear
    # part is never written to, so cur starts out sharing its arrays.
    cur_val, cur_der = list(lin_val), list(lin_der)

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
        for k, (dv, dd) in enumerate(_duhamel_sweep(model, h, sources(norms))):
            new_val, new_der = lin_val[k] + dv, lin_der[k] + dd
            z_diff, _ = _znorm_node(model, znorm, times[k], new_val - cur_val[k],
                                    new_der - cur_der[k])
            z_new, l2 = _znorm_node(model, znorm, times[k], new_val, new_der)
            inc, z_cur = max(inc, z_diff), max(z_cur, z_new)
            new_norms.append(l2)
            cur_val[k], cur_der[k] = new_val, new_der
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
        diagnostics.quadrature_error = _richardson_error(model, h, sources(norms))
    return model.trajectory(times, cur_val, cur_der), diagnostics


@dataclass
class Epsilon0Estimate:
    epsilon0: float
    bracket: tuple
    width: float
    history: list


def find_epsilon0(template, bracket, trials: int = 10) -> Epsilon0Estimate:
    """Bisect the data scale between a converging and a diverging run.

    template(eps) must return a PicardDiagnostics (or its status).  The
    bracket is validated first: the low end must converge and the high end
    must not (Diverged or MaxIter both count as failure to converge).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")

    def status_of(eps):
        out = template(eps)
        return out.status if isinstance(out, PicardDiagnostics) else out

    history = []
    s_lo = status_of(lo)
    history.append((lo, s_lo))
    if s_lo is not PicardStatus.CONVERGED:
        raise ValueError(f"bracket low end {lo} did not converge ({s_lo.value})")
    s_hi = status_of(hi)
    history.append((hi, s_hi))
    if s_hi is PicardStatus.CONVERGED:
        raise ValueError(f"bracket high end {hi} converged; no transition inside")
    for _ in range(trials):
        mid = float(np.sqrt(lo * hi))
        s = status_of(mid)
        history.append((mid, s))
        if s is PicardStatus.CONVERGED:
            lo = mid
        else:
            hi = mid
    return Epsilon0Estimate(lo, (lo, hi), hi - lo, history)


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
    samples; passed means all three are negative.
    """
    times = np.asarray(trajectory.times, dtype=float)
    model = _Model(trajectory.fields[0], provider, b, m)
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
